"""Error metrics, spectral efficiency, and overhead accounting."""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, DimensionMismatch
from .codebook import rx_beam_vector, tx_beam_vector
from .geometry import ArrayConfig


class EmptyInput(ValueError):
    pass


def maee(true_angles, estimates) -> float:
    """Mean absolute estimation error; inputs and output in degrees."""
    t = np.asarray(true_angles, dtype=float)
    e = np.asarray(estimates, dtype=float)
    if t.size == 0:
        raise EmptyInput("no angle pairs")
    if t.shape != e.shape:
        raise ValueError("paired inputs must have equal length")
    return float(np.mean(np.abs(t - e)))


def ci95(values) -> float:
    """95% confidence half-width of the mean."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(1.96 * v.std(ddof=1) / np.sqrt(v.size))


@dataclass(frozen=True)
class OverheadModel:
    epsilon_t: int = 1000
    t_tot: int = 200

    def __post_init__(self):
        if self.epsilon_t < 1 or self.t_tot < 1:
            raise ValueError("epsilon_t and t_tot must be >= 1")

    def t_est(self, iterations: int) -> int:
        return math.ceil(iterations / self.epsilon_t)

    @staticmethod
    def gob_complexity(n_bm: int, m_bm: int, n_rf: int, m_rf: int) -> int:
        return (n_bm ** n_rf) * (m_bm ** m_rf)

    @staticmethod
    def abp_complexity(n_rf: int, n_tx: int, m_rf: int, m_rx: int) -> int:
        return n_rf * n_tx * m_rf * m_rx


def spectral_efficiency(channel, f_rf: np.ndarray, w_rf: np.ndarray,
                        gamma: float, n_s: int) -> float:
    """Per-subcarrier average of log2 det(I + (gamma/n_s) H_TR H_TR*) with
    H_TR[k] = W* H[k] F. channel is a ChannelRealization (beamformed from
    its path factors) or a dense (N, M, N_t) or (M, N_t) array."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if isinstance(channel, ChannelRealization):
        htr = channel.beamformed(w_rf, f_rf)
    else:
        h = np.asarray(channel)
        if h.ndim == 2:
            h = h[None, :, :]
        if w_rf.shape[0] != h.shape[1] or f_rf.shape[0] != h.shape[2]:
            raise DimensionMismatch("beamformer shapes do not match the channel")
        htr = w_rf.conj().T @ h @ f_rf
    gram = np.einsum("kij,klj->kil", htr, htr.conj())
    eye = np.eye(gram.shape[1])
    # I plus a PSD matrix: the determinant is real and >= 1, so the sign is 1
    _, logdet = np.linalg.slogdet(eye[None, :, :] + (gamma / n_s) * gram)
    return float(np.mean(logdet / np.log(2.0)))


def normalized_spectral_efficiency(r: float, estimator_iterations: int,
                                   overhead: OverheadModel) -> float:
    """Scales the rate by the fraction of coherence slots left after
    estimation; clamped at zero when overhead exhausts the budget."""
    if estimator_iterations < 0:
        raise ValueError("iteration count must be >= 0")
    t_est = overhead.t_est(estimator_iterations)
    return max(0.0, 1.0 - t_est / overhead.t_tot) * r


def build_rf_beamformers(paths, arrays: ArrayConfig, n_s: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Analog beamformers from per-path direction triples (mu_x, mu_y, nu):
    one steering column per stream, cycling over paths when n_s exceeds the
    path count and alternating polarization halves in cross mode."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    triples = list(paths)
    if not triples:
        raise EmptyInput("no path directions")
    pols = ("v", "h") if arrays.polarization_mode == "cross" else ("v",)
    dirs = np.array(triples, dtype=float)[np.arange(n_s) % len(triples)]
    f = np.empty((arrays.n_tot, n_s), dtype=complex)
    w = np.empty((arrays.m_full, n_s), dtype=complex)
    # one steering call per polarization and side: streams j, j + len(pols), ...
    for j, pol in enumerate(pols[:n_s]):
        mu_x, mu_y, nu = dirs[j::len(pols)].T
        f[:, j::len(pols)] = tx_beam_vector(arrays, pol, mu_x, mu_y)
        w[:, j::len(pols)] = rx_beam_vector(arrays, pol, nu)
    return f, w
