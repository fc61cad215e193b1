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


# Lanes per slice of spectral_efficiency's Gram and log-det: 768 lanes of a
# 3-stream H_TR hold some 110 KB per copy.
SE_LANES = 768


def spectral_efficiency(channel, f_rf: np.ndarray, w_rf: np.ndarray,
                        gamma: float, n_s: int) -> float | np.ndarray:
    """Per-subcarrier average of log2 det(I + (gamma/n_s) H_TR H_TR*) with
    H_TR[k] = W* H[k] F. channel is a ChannelRealization (beamformed from
    its path factors) or a dense (N, M, N_t) or (M, N_t) array. Leading
    batch axes of f_rf (..., N_t, j) and w_rf (..., M, i) give one rate per
    batch entry, as an array; 2-D beamformers give a float. A NaN or
    infinite gamma raises ValueError: the rate has no finite value there.

    Every (batch entry, subcarrier) pair is one lane of the Gram and log-det
    arithmetic, which runs over slices of SE_LANES lanes, so that a wide
    batch holds one slice's copies, not copies of all of H_TR; a lane's
    arithmetic does not depend on the slice it falls in."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, not {gamma}")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if isinstance(channel, ChannelRealization):
        htr = channel.beamformed(w_rf, f_rf)
    else:
        h = np.asarray(channel)
        if h.ndim == 2:
            h = h[None, :, :]
        if w_rf.shape[-2] != h.shape[1] or f_rf.shape[-2] != h.shape[2]:
            raise DimensionMismatch("beamformer shapes do not match the channel")
        htr = np.swapaxes(w_rf.conj(), -1, -2)[..., None, :, :] @ h @ f_rf[..., None, :, :]
    *batch, n_sub, n_r, n_c = htr.shape
    lanes = htr.reshape(-1, n_r, n_c)
    logdet = np.concatenate([_logdet(lanes[i:i + SE_LANES], gamma / n_s)
                             for i in range(0, len(lanes), SE_LANES)])
    rate = np.mean((logdet / np.log(2.0)).reshape(*batch, n_sub), axis=-1)
    return rate if batch else float(rate)


def _logdet(htr: np.ndarray, scale: float) -> np.ndarray:
    """ln det(I + scale H H*) of every lane of htr (lanes, r, c), each lane
    on its own."""
    n_r = htr.shape[1]
    # streams first: g[c, r] holds entry (r, c) of every lane's H
    g = np.ascontiguousarray(htr.transpose(2, 1, 0))
    a = np.zeros((n_r, n_r, g.shape[-1]), dtype=complex)
    conj, row = np.empty_like(a[0]), np.empty_like(a[0])
    for col in g:  # H H*, one stream column's outer product at a time,
        np.conjugate(col, out=conj)  # a row at a time, through reused buffers
        for r in range(n_r):
            a[r] += np.multiply(col[r], conj, out=row)
    del g, conj, row
    a *= scale
    a[np.arange(n_r), np.arange(n_r)] += 1.0
    # I plus a PSD matrix is Hermitian positive definite: elimination without
    # pivoting meets real pivots >= 1, whose product is the determinant
    logdet = np.zeros(a.shape[-1])
    for p in range(n_r):
        pivot = a[p, p].real
        logdet += np.log(pivot)
        a[p + 1:, p + 1:] -= a[p + 1:, p, None] * (a[p, None, p + 1:] / pivot)
    return logdet


def normalized_spectral_efficiency(r, estimator_iterations: int, overhead: OverheadModel):
    """Scales the rate, or each of an array of rates, by the fraction of
    coherence slots left after estimation; clamped at zero when overhead
    exhausts the budget."""
    if estimator_iterations < 0:
        raise ValueError("iteration count must be >= 0")
    t_est = overhead.t_est(estimator_iterations)
    return max(0.0, 1.0 - t_est / overhead.t_tot) * r


def build_rf_beamformers(dirs: np.ndarray, arrays: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Analog beamformers f (..., N_t, n_s) and w (..., M, n_s) from direction
    rows (mu_x, mu_y, nu), dirs (..., n_s, 3), row j steering stream j, in
    polarization j mod 2 in cross mode: one steering call per polarization
    and side."""
    *batch, n_s, _ = dirs.shape
    if not n_s:
        raise EmptyInput("no stream directions")
    pols = arrays.pols
    f = np.empty((arrays.n_tot, *batch, n_s), dtype=complex)
    w = np.empty((arrays.m_full, *batch, n_s), dtype=complex)
    for j, pol in enumerate(pols[:n_s]):  # streams j, j + len(pols), ...
        mu_x, mu_y, nu = np.moveaxis(dirs[..., j::len(pols), :], -1, 0)
        f[..., j::len(pols)] = tx_beam_vector(arrays, pol, mu_x, mu_y)
        w[..., j::len(pols)] = rx_beam_vector(arrays, pol, nu)
    return np.moveaxis(f, 0, -2), np.moveaxis(w, 0, -2)
