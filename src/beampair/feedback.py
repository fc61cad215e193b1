"""Angle feedback quantization, as array kernels.

Differential scheme: the signed offset of an estimate from its pair center
is quantized on [-delta, +delta] with `bits` bits, so the payload scales
with the pair width instead of the whole sector. The paper's sign bit adds
no resolution to that word, and its published reconstruction
center + sign * offset would mirror an estimate through the pair center.
Direct scheme: plain uniform quantization over the sector, used as the
baseline at equal total bits.

A quantizer takes an estimate or an array of them (centers broadcast) and
returns codeword indices of the same shape, 0-d for a float; the matching
reconstruct call maps them back on the `codewords` grid it searched. An
estimate outside the quantizer's range, or NaN, raises OutOfRange, and so
does an index that is not an integer in [0, 2**bits).
"""

import numpy as np


class OutOfRange(ValueError):
    pass


def codewords(lo: float, hi: float, bits: int) -> np.ndarray:
    """Cell-centered uniform codewords over [lo, hi]."""
    n = 2 ** bits
    step = (hi - lo) / n
    return lo + step * (np.arange(n) + 0.5)


def _nearest(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index of the grid point nearest each value, the lower one on a tie:
    np.argmin over the sorted grid, read from the two neighbours a binary
    search finds, so memory grows with the values and not the grid."""
    i = np.clip(np.searchsorted(grid, values), 1, len(grid) - 1)
    return np.where(np.abs(grid[i] - values) < np.abs(grid[i - 1] - values), i, i - 1)


def _require(inside, mu: np.ndarray, where: str) -> None:
    inside = np.asarray(inside)
    if not inside.all():
        bad = np.broadcast_to(mu, inside.shape)[~inside][0]
        raise OutOfRange(f"estimate {bad} outside {where}")


def quantize_differential(mu_hat, center_mu, delta: float, bits: int) -> np.ndarray:
    """Codeword index of each offset mu_hat - center_mu on [-delta, delta]."""
    mu = np.asarray(mu_hat, dtype=float)
    offset = mu - center_mu
    _require(np.abs(offset) <= delta + 1e-12, mu, "pair interval")  # NaN fails too
    return _nearest(offset, codewords(-delta, delta, bits))


def quantize_direct(mu_hat, sector_range: tuple[float, float], bits: int) -> np.ndarray:
    """Codeword index of each estimate on the sector (lo, hi)."""
    lo, hi = sector_range
    mu = np.asarray(mu_hat, dtype=float)
    _require((lo - 1e-12 <= mu) & (mu <= hi + 1e-12), mu, f"sector {sector_range}")
    return _nearest(mu, codewords(lo, hi, bits))


def _codeword(grid: np.ndarray, index):
    """grid[index] for integer indices in [0, len(grid)); any other index
    raises OutOfRange instead of wrapping or failing in the indexing."""
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu" or ((idx < 0) | (idx >= len(grid))).any():
        raise OutOfRange(f"codeword index {index} is not an integer in [0, {len(grid)})")
    return grid[idx]


def reconstruct_differential(index, center_mu, delta: float, bits: int):
    """The fed-back spatial frequency: the pair center plus the offset
    codeword at `index`."""
    return center_mu + _codeword(codewords(-delta, delta, bits), index)


def reconstruct_direct(index, sector_range: tuple[float, float], bits: int):
    """The fed-back spatial frequency: the sector codeword at `index`."""
    return _codeword(codewords(*sector_range, bits), index)


def worst_case_error(half_range: float, bits: int) -> float:
    """Half a codeword cell: (range width)/2^bits/2."""
    return (2.0 * half_range) / (2 ** bits) / 2.0
