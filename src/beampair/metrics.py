"""Error metrics, spectral efficiency, and overhead accounting."""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .codebook import rx_beam_vector, tx_beam_vector
from .geometry import ArrayConfig


class EmptyInput(ValueError):
    pass


def maee(true_angles, estimates, axis=None):
    """Mean absolute estimation error; inputs and output in degrees. A
    float over all pairs, or an array of means along `axis`."""
    t = np.asarray(true_angles, dtype=float)
    e = np.asarray(estimates, dtype=float)
    if t.size == 0:
        raise EmptyInput("no angle pairs")
    if t.shape != e.shape:
        raise ValueError("paired inputs must have equal length")
    mean = np.mean(np.abs(t - e), axis=axis)
    return float(mean) if axis is None else mean


def ci95(values, axis=None):
    """95% confidence half-width of the mean: a float over all values, or an
    array of half-widths along `axis`; 0 below two values."""
    v = np.asarray(values, dtype=float)
    n = v.size if axis is None else v.shape[axis]
    if n < 2:
        return 0.0 if axis is None else np.zeros(np.delete(v.shape, axis))
    half = 1.96 * v.std(axis=axis, ddof=1) / np.sqrt(n)
    return float(half) if axis is None else half


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


# Values per slice of spectral_efficiency: as many whole trials (the last
# batch axis) as hold SE_VALUES float64 values (0.5 MB) of tap planes, Gram
# entries, their copy in _logdet and coefficient row products, or one trial
# and as many of its subcarriers as hold them. A robustness rate chunk (4
# profiles x 3 schemes a trial) at 3 clusters, 3 streams and N = 256 holds
# some 60,500 values a trial, so it runs trial by trial; norm_se_vs_snr (3
# schemes) takes 3 trials a slice.
SE_VALUES = 2 ** 16


def spectral_efficiency(channel: ChannelRealization, f_rf: np.ndarray, w_rf: np.ndarray,
                        gamma: float, n_s: int) -> float | np.ndarray:
    """Per-subcarrier average of log2 det(I + (gamma/n_s) H_TR H_TR*) with
    H_TR[k] = W* H[k] F = sum_c taps[k, c] P_c over the realization's C
    delay-tap columns (see ChannelRealization.clustered). Leading batch axes
    of f_rf (..., N_t, j) and w_rf (..., M, i) give one rate per batch
    entry, as an array; 2-D beamformers on a realization of one trial give a
    float. A NaN or infinite gamma raises ValueError: the rate has no finite
    value there.

    Every lane's Gram is a fixed mix of per-entry matrices: with Q_cc' =
    P_c P_c'*, H_TR H_TR* = sum_c |taps_c|^2 Q_cc + sum_{c<c'} Re(z) (Q_cc' +
    Q_cc'*) + Im(z) i (Q_cc' - Q_cc'*), z = taps_c conj(taps_c'). So the i^2
    real components of the upper triangle of each lane's I + (gamma/n_s) G
    come from one real matmul of per-entry coefficients (i^2, C^2) with the
    (C^2, N) tap planes, which do not depend on the beamformers. Each
    entry's arithmetic does not depend on its batch or slice."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, not {gamma}")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    p = channel.clustered(w_rf, f_rf)  # (..., C, i, j)
    batch, (n_c, n_r, n_j) = p.shape[:-3], p.shape[-3:]
    p = p if batch else p[None]  # (..., T, C, i, j)
    taps = np.swapaxes(channel.taps, -1, -2)  # (C, N), or (T, C, N) stacked
    if taps.ndim == 2:
        taps = taps[None]  # one tap set for every entry
    n_sub, per = taps.shape[-1], math.prod(p.shape[:-4])  # entries per trial
    # per trial and subcarrier its tap planes, and per entry its Gram entries
    # and their copy in _logdet; per trial the row products of coefficients
    plane, coef_values = n_c * n_c + 2 * per * n_r * n_r, per * n_r * n_r * n_c * n_c * n_j
    step = SE_VALUES // (plane * n_sub + coef_values)
    block = n_sub if step else max(1, (SE_VALUES - coef_values) // plane)
    step = max(1, step)
    logdet = np.empty((*p.shape[:-3], n_sub))
    for t in range(0, p.shape[-4], step):
        coef = _coefficients(p[..., t:t + step, :, :, :])
        coef *= gamma / n_s
        rows = taps[t:t + step] if len(taps) > 1 else taps
        for k in range(0, n_sub, block):
            logdet[..., t:t + step, k:k + block] = _logdet(
                coef @ _tap_planes(rows[..., k:k + block]), n_r)
    rate = np.mean(logdet / np.log(2.0), axis=-1)
    return rate if batch else float(rate[0])


def _coefficients(p: np.ndarray) -> np.ndarray:
    """The coefficients (..., i^2, C^2) of every entry's Gram over the tap
    planes (see _tap_planes), from its cluster products p (..., C, i, j):
    rows the diagonal of the (i, i) Gram, then the real parts of its upper
    triangle, then their imaginary parts (see _upper); columns Q_cc, then
    Q_cc' + Q_c'c and i (Q_cc' - Q_c'c) for c < c' (Q_c'c = Q_cc'*). Each
    entry Q_cc'[r, r'] is one product and sum over j of rows of P_c and P_c',
    with no matmul, so that equal rows (two streams steered alike) give
    equal entries, and so an exactly singular Gram stays singular."""
    n_c, n_r = p.shape[-3:-1]
    rows = p.reshape(*p.shape[:-3], n_c * n_r, -1)  # row c i + r: row r of P_c
    pairs = _upper(n_c)
    blocks = pairs + [(c2, c) for c, c2 in pairs[n_c:]]  # (c, c'): diagonal, upper, lower
    left, right = zip(*[(c * n_r + r, c2 * n_r + r2) for r, r2 in _upper(n_r)
                        for c, c2 in blocks])
    # contiguous operands, so that each product takes numpy's one loop for them
    q = (np.take(rows, left, axis=-2) * np.take(rows, right, axis=-2).conj()).sum(axis=-1)
    q = q.reshape(*q.shape[:-1], -1, len(blocks))  # (..., entries, blocks)
    x, y = q[..., n_c:len(pairs)], q[..., len(pairs):]
    z = np.concatenate([q[..., :n_c], x + y, (x - y) * 1j], axis=-1)
    return np.concatenate([z.real, z[..., n_r:, :].imag], axis=-2)


def _upper(n: int) -> list:
    """The (row, column) pairs of an (n, n) upper triangle: the diagonal,
    then the rest row by row."""
    return [(r, r) for r in range(n)] + [(r, r2) for r in range(n) for r2 in range(r + 1, n)]


def _tap_planes(taps: np.ndarray) -> np.ndarray:
    """The real tap planes (T, C^2, N) of delay-tap rows taps (T, C, N):
    |taps_c|^2, then Re and Im of taps_c conj(taps_c') for c < c', in
    _upper order, one row c at a time."""
    taps = np.ascontiguousarray(taps)
    n_t, n_c, n = taps.shape
    n_pairs = n_c * (n_c - 1) // 2
    out = np.empty((n_t, n_c * n_c, n))
    np.add(np.square(taps.real), np.square(taps.imag), out=out[:, :n_c])
    k = n_c
    for c in range(n_c - 1):
        z = taps[:, c, None] * taps[:, c + 1:].conj()  # row c's pairs (c, c' > c)
        out[:, k:k + z.shape[1]], out[:, n_pairs + k:n_pairs + k + z.shape[1]] = z.real, z.imag
        k += z.shape[1]
    return out


def _logdet(a: np.ndarray, n_r: int) -> np.ndarray:
    """ln det(I + A) of every lane (..., lanes) of positive semidefinite
    matrices A given as the real components a (..., n_r^2, lanes) of their
    upper triangles (see _coefficients), each lane on its own."""
    a = np.moveaxis(a, -2, 0).copy()  # component by component, each contiguous
    n_off = n_r * (n_r - 1) // 2
    d, re, im = a[:n_r], a[n_r:n_r + n_off], a[n_r + n_off:]
    d += 1.0
    # I plus a PSD matrix is Hermitian positive definite: elimination without
    # pivoting meets real pivots >= 1, whose product is the determinant;
    # a[r, r'] -= conj(a[p, r]) a[p, r'] / a[p, p] on the upper triangle,
    # whose row p holds the off-diagonal entries start[p]:start[p + 1]
    start = np.cumsum([0, *range(n_r - 1, -1, -1)])
    logdet = np.zeros(a.shape[1:])
    for p in range(n_r):
        pivot = d[p]
        logdet += np.log(pivot)
        xr, xi = re[start[p]:start[p + 1]], im[start[p]:start[p + 1]]
        yr, yi = xr / pivot, xi / pivot
        d[p + 1:] -= xr * yr + xi * yi
        for u in range(len(xr)):
            for v in range(u + 1, len(xr)):
                k = start[p + 1 + u] + v - u - 1
                re[k] -= xr[u] * yr[v] + xi[u] * yi[v]
                im[k] -= xr[u] * yi[v] - xi[u] * yr[v]
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
