"""Angle feedback quantization.

Differential scheme: the offset of an estimate from its pair center is
quantized on [-delta, +delta] together with a sign bit, so the payload
scales with the pair width instead of the whole sector. Direct scheme:
plain uniform quantization over the sector, used as the baseline at equal
total bits.

The sign bit follows the ratio-metric convention: an estimate left of the
pair center gives a positive ratio, recorded as +1. The default
reconstruction applies the sign to the quantized magnitude so round trips
land on the estimate's side; the published formula (center + sign * offset)
is kept behind the paper_literal flag even though it mirrors the estimate
to the wrong side when the sign bit is taken from the ratio.
"""

from dataclasses import dataclass

import numpy as np


class OutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class FeedbackWord:
    scheme: str
    codeword_index: int
    bits: int
    center_mu: float
    half_range: float
    sign_bit: int = 0
    paper_literal: bool = False

    def __post_init__(self):
        if not 0 <= self.codeword_index < 2 ** self.bits:
            raise ValueError("codeword index out of range")


def codewords(lo: float, hi: float, bits: int) -> np.ndarray:
    """Cell-centered uniform codewords over [lo, hi]."""
    n = 2 ** bits
    step = (hi - lo) / n
    return lo + step * (np.arange(n) + 0.5)


def _nearest(value: float, lo: float, hi: float, bits: int) -> int:
    return int(np.argmin(np.abs(codewords(lo, hi, bits) - value)))


def quantize_differential(mu_hat: float, center_mu: float, delta: float,
                          bits: int, paper_literal: bool = False) -> FeedbackWord:
    offset = mu_hat - center_mu
    if abs(offset) > delta + 1e-12:
        raise OutOfRange(f"estimate {mu_hat} outside pair interval")
    sign = 1 if offset <= 0 else -1  # left of center <=> positive ratio
    target = abs(offset) if paper_literal else offset
    idx = _nearest(target, -delta, delta, bits)
    return FeedbackWord(scheme="differential", codeword_index=idx, bits=bits,
                        center_mu=center_mu, half_range=delta, sign_bit=sign,
                        paper_literal=paper_literal)


def quantize_direct(mu_hat: float, sector_range: tuple[float, float],
                    bits: int) -> FeedbackWord:
    lo, hi = sector_range
    if not lo - 1e-12 <= mu_hat <= hi + 1e-12:
        raise OutOfRange(f"estimate {mu_hat} outside sector {sector_range}")
    idx = _nearest(mu_hat, lo, hi, bits)
    center = 0.5 * (lo + hi)
    return FeedbackWord(scheme="direct", codeword_index=idx, bits=bits,
                        center_mu=center, half_range=0.5 * (hi - lo))


def reconstruct(word: FeedbackWord, center_mu: float | None = None) -> float:
    """Recover the fed-back spatial frequency. The pair center may be
    overridden, e.g. when the receiver tracks centers separately."""
    center = word.center_mu if center_mu is None else center_mu
    if word.scheme == "direct":
        lo = center - word.half_range
        hi = center + word.half_range
        return float(codewords(lo, hi, word.bits)[word.codeword_index])
    cw = float(codewords(-word.half_range, word.half_range,
                         word.bits)[word.codeword_index])
    if word.paper_literal:
        return center + word.sign_bit * cw
    return center + cw


def worst_case_error(half_range: float, bits: int) -> float:
    """Half a codeword cell: (range width)/2^bits/2."""
    return (2.0 * half_range) / (2 ** bits) / 2.0
