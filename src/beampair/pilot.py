"""Multi-layer Zadoff-Chu pilots.

A beam-pair id selects the ZC root and the within-pair beam id selects a
frequency circular shift, so the references of one probing form a fixed
(N, n_rf) ZC matrix X and simultaneously probed beams separate by one
zero-lag correlation Y^T X*. Includes the analytic interference bounds used
to sanity-check the separation.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ROOT_POOL = (25, 29, 34)
COPRIME_WITH = ("n", "n_minus_1")  # root-validity modulus: n or n - 1


class InvalidRoot(ValueError):
    pass


class PoolExhausted(ValueError):
    pass


class ShiftConflict(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


def _check_root(root: int, modulus: int) -> None:
    if root < 1:
        raise InvalidRoot(f"root {root} must be positive")
    if math.gcd(root, modulus) != 1:
        raise InvalidRoot(f"root {root} shares a factor with {modulus}")


def _modulus_for(n: int, coprime_with: str) -> int:
    if coprime_with not in COPRIME_WITH:
        raise ValueError("coprime_with must be 'n' or 'n_minus_1'")
    return n if coprime_with == "n" else n - 1


def zc_symbol(root: int, b: int, p: int, n: int, k: int,
              coprime_with: str = "n") -> complex:
    """exp(j*pi*root*(k + p*b)(k + p*b + 1)/n). Integer phase arithmetic is
    reduced mod 2n before the complex exponential to keep precision.
    coprime_with picks the root-validity modulus (n, or the n-1 variant some
    deployments use with a nulled subcarrier); the phase modulus is n under
    either choice (see zc_sequence)."""
    _check_root(root, _modulus_for(n, coprime_with))
    if not 0 <= k < n:
        raise ValueError("subcarrier index out of range")
    kk = k + p * b
    m = (root * kk * (kk + 1)) % (2 * n)
    return complex(np.exp(1j * np.pi * m / n))


def zc_sequence(root, b, p: int, n: int, dc_zero: bool = False,
                coprime_with: str = "n") -> np.ndarray:
    """Length-n pilot sequence; dc_zero nulls the centered DC subcarrier.
    Equal-length 1-D arrays of root and b give an (n, len) matrix with one
    column per (root, b); every root is validated.

    coprime_with only selects the root-validity modulus: the phase modulus
    is n under both 'n' and 'n_minus_1'. A root validated only against n-1,
    such as 34 at n = 512, therefore does not give ZC's flat distinct-root
    cross level: at n = 512, p = 6 and 'n_minus_1', roots 29 (b=0) and
    34 (b=1) correlate against root 25 (b=1) at 0.0884 and 0.0197 of n.
    The flat level 1/sqrt(L) of the normalized correlation needs an odd
    length L and a root difference coprime with L (at L = 511 both entries
    are 1/sqrt(511) = 0.044237)."""
    modulus = _modulus_for(n, coprime_with)
    roots = np.asarray(root)
    for r in roots.flat:
        _check_root(int(r), modulus)
    k = np.arange(n, dtype=np.int64)
    kk = (k[:, None] if roots.ndim else k) + p * np.asarray(b)
    m = (roots * kk * (kk + 1)) % (2 * n)
    seq = np.exp(1j * np.pi * m / n)
    if dc_zero:
        seq[n // 2] = 0.0
    return seq


@dataclass
class PilotAssignment:
    """Roots keyed by beam-pair id; both beams of a pair share the root and
    differ only in the shift id b. Every reference is built once, on
    construction: column 2k + b of `refs` (n, 2 * pairs) is shift b of the
    k-th pair id of `roots`."""

    n: int
    p: int
    roots: dict[int, int]
    coprime_with: str = "n"
    dc_zero: bool = False
    refs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._column = {a: 2 * k for k, a in enumerate(self.roots)}
        self.refs = zc_sequence(np.repeat(list(self.roots.values()), 2),
                                np.tile([0, 1], len(self.roots)), self.p,
                                self.n, self.dc_zero, self.coprime_with)

    def references(self, tags) -> np.ndarray:
        """(n, len(tags)) reference matrix, one column per (pair id,
        within-pair id b) tag."""
        if any(b not in (0, 1) for _, b in tags):
            raise ValueError("paired-beam id must be 0 or 1")
        return np.take(self.refs, [self._column[a] + b for a, b in tags], axis=1)


def _shift_ok(p: int, roots: list[int], n: int) -> bool:
    """The two shifts of a root cancel at zero lag unless root * p = 0 mod n."""
    return all((root * p) % n != 0 for root in roots)


def _extend_pool(base: tuple[int, ...], count: int, modulus: int) -> list[int]:
    pool = [r for r in base if math.gcd(r, modulus) == 1]
    cand = max(base) + 1 if base else 2
    while len(pool) < count:
        if math.gcd(cand, modulus) == 1 and cand not in pool:
            pool.append(cand)
        cand += 1
    return pool


def assign_pilots(abps, n: int, root_pool=None, p: int | None = None,
                  coprime_with: str = "n", dc_zero: bool = False) -> PilotAssignment:
    """Give each beam pair a distinct root and pick (or verify) the circular
    shift spacing p so same-root different-shift correlations cancel.

    abps may be pair objects with abp_id attributes or plain ids. coprime_with
    selects the root validity modulus: 'n' (the correlation-cancellation
    requirement) or 'n_minus_1' (an alternative convention kept as an option).
    The sequences keep phase modulus n either way, so roots admitted only by
    'n_minus_1' do not get the flat distinct-root cross level (see
    zc_sequence).
    """
    modulus = _modulus_for(n, coprime_with)
    ids = [a if isinstance(a, int) else a.abp_id for a in abps]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate beam-pair ids")

    if root_pool is None:
        pool = _extend_pool(DEFAULT_ROOT_POOL, len(ids), modulus)
    else:
        pool = list(root_pool)
        for root in pool:
            _check_root(root, modulus)
        if len(pool) < len(ids):
            raise PoolExhausted(f"{len(ids)} pairs need {len(ids)} roots, pool has {len(pool)}")
    roots = {abp_id: pool[i] for i, abp_id in enumerate(sorted(ids))}
    used = list(roots.values())

    p_max = n // 2  # two shifts per root
    if p is not None:
        if not 1 <= p <= p_max:
            raise ShiftConflict(f"p={p} outside 1..{p_max}")
        if not _shift_ok(p, used, n):
            raise ShiftConflict(f"p={p} makes a same-root correlation non-zero")
        chosen = p
    else:
        chosen = next((q for q in range(1, p_max + 1) if _shift_ok(q, used, n)), None)
        if chosen is None:
            raise ShiftConflict(f"no shift spacing in 1..{p_max} separates roots {used}")
    return PilotAssignment(n=n, p=chosen, roots=roots, coprime_with=coprime_with,
                           dc_zero=dc_zero)


def correlate_zero_lag(received: np.ndarray, refs: np.ndarray,
                       normalized: bool = False):
    """Zero-lag correlation y^T x*: a vector against a vector gives a scalar,
    (N, i) received branches against (N, j) references give (i, j).
    normalized divides each reference column by its count of nonzero
    entries: n, less one where zc_sequence's dc_zero nulled the DC
    subcarrier n // 2, the only entry of a ZC reference that can be zero."""
    y, x = np.asarray(received), np.asarray(refs)
    n = x.shape[0]
    if y.shape[0] != n:
        raise LengthMismatch(f"expected {n} subcarriers, got {y.shape[0]}")
    vals = y.T @ x.conj()
    return vals / (n - (x[n // 2] == 0)) if normalized else vals


@dataclass(frozen=True)
class FlatGains:
    """Frequency-flat effective gains for the analytic bound formulas:
    sum over paths of rho * h for the co-pol and cross-pol blocks."""

    chi: float
    sum_rho_h_vv: complex
    sum_rho_h_vh: complex
    n_rf: int


def interference_bounds(assignment: PilotAssignment, gains: FlatGains) -> dict[str, float]:
    """Upper bounds on the matched term and the three interference terms of
    the zero-lag correlator under flat gains: same pair and shift (i0), same
    root different shift (i1, zero when the shift spacing is valid), other
    roots same polarization (i2), other polarization (i3).

    Each distinct-root product is bounded by sqrt(n*g), g the largest
    gcd(r_i - r_j, n) over the assigned roots (a quadratic Gauss sum): g = 1,
    the flat sqrt(n), at an odd n with root differences coprime with n, and
    g >= 2 at even n (roots 25/29 at n = 512 cross at exactly 2*sqrt(n))."""
    n = assignment.n
    roots = list(assignment.roots.values())
    g = max((math.gcd(a - b, n) for a, b in itertools.combinations(roots, 2)),
            default=1)
    q = np.sqrt(1.0 / (1.0 + gains.chi))
    avv = abs(gains.sum_rho_h_vv)
    avh = abs(gains.sum_rho_h_vh)
    zero_ok = _shift_ok(assignment.p, roots, n)
    n_e = max(gains.n_rf // 2 - 1, 0)
    return {
        "i0": n * q * avv,
        "i1": 0.0 if zero_ok else n * q * avv,
        "i2": q * avv * n_e * np.sqrt(n * g),
        "i3": q * avh * (gains.n_rf / 2.0) * np.sqrt(n * g),
    }

