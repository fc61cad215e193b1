"""Auxiliary-beam-pair angle acquisition for wideband mmWave MIMO."""

from .channel import (ChannelRealization, ClusterProfile, CrossPolConfig,
                      OfdmConfig, PathParams, clustered_channel_generate,
                      rician_narrowband)
from .codebook import (CodebookConfig, CodebookSet, ProbingPlan, build_codebooks,
                       random_probing_plan)
from .estimator import (estimate_multipath, estimate_single_path, gob_estimate,
                        invert_ratio, ratio_metric, received_symbol)
from .feedback import (quantize_differential, quantize_direct, reconstruct_differential,
                       reconstruct_direct, worst_case_error)
from .geometry import (AngleSet, ArrayConfig, SpatialFrequencies,
                       angles_from_spatial_frequencies, spatial_frequencies,
                       ula_steering, upa_steering)
from .metrics import (OverheadModel, ci95, maee,
                      normalized_spectral_efficiency, spectral_efficiency)
from .pilot import (PilotAssignment, assign_pilots, correlate_zero_lag,
                    interference_bounds, zc_sequence)

__version__ = "0.1.0"
