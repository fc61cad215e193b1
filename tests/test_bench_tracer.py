"""The benchmark tracer (perfbench/tracing.py) on a real family run: the
counters it reads off estimate_multipath's reports, so that a change that
drops what it reads fails here, not at benchmark time."""

import sys
from pathlib import Path

from beampair.experiments import ExperimentConfig, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer, traced  # noqa: E402


def _traced_counts(tmp_path, **overrides) -> dict:
    cfg = ExperimentConfig(experiment="robustness_xpd", trials=2, plots=False, **overrides)
    with traced(Tracer()) as tracer:
        run_experiment(cfg, str(tmp_path))
    return tracer.counts


def test_default_cross_pol_paths_all_fall_back(tmp_path):
    """The default cross-pol codebook has one elevation beam per
    polarization, so no path forms an elevation pair."""
    counts = _traced_counts(tmp_path)
    assert counts["estimator.abp_paths"] > 0
    assert counts["estimator.elevation_fallbacks"] == counts["estimator.abp_paths"]


def test_full_elevation_range_pairs_every_path(tmp_path):
    counts = _traced_counts(tmp_path, el_range_deg=(-90.0, 90.0))
    assert counts["estimator.abp_paths"] > 0
    assert counts["estimator.elevation_fallbacks"] == 0
