"""Beam-pair angle estimation.

Received-power evaluation, the difference/sum ratio metric and its
closed-form inversion, the single-path sweep estimator, the multi-path
pilot-probing estimator, and the grid-of-beams baseline used for
comparison. Beam strengths are 1-D arrays per axis indexed by beam, the
column of the axis's AxisBook.matrix. Every flow reads the codebook's fixed
matrices and pair tables (AxisBook); no trial rebuilds a beam, a grid or a
pair list.
Per-domain strengths in the sweep estimator are marginal sums of probe
powers over the other probe axes, which keeps the ratio exact for a single
path (common factors cancel) and averages down noise. Every flow turns
strengths into an estimate the same way: winner, stronger neighbour, ratio,
closed-form inversion (_pair_and_invert).
The sweep estimators are array kernels over a leading trial axis: the
public single-realization calls are their one-trial case, and the
experiments run them on a stacked realization of a chunk of trials.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, DimensionMismatch, _precoded
from .codebook import (AXES, AxisBook, CodebookSet, InfeasibleCoverage, ProbingPlan,
                       _axis_book, random_probing_plan)
from .codebook import tx_beam_vector  # noqa: F401  (perfbench's tracer test)
from .geometry import _angles, aoa_from_nu
from .pilot import PilotAssignment, assign_pilots


class BothZero(ValueError):
    pass


class NoSignal(RuntimeError):
    pass


class InsufficientNeighbors(RuntimeError):
    pass


@dataclass
class PathEstimate:
    """One path's estimate, as EstimationReport.paths builds it: pairs[axis]
    and zetas[axis] as there, an axis with no pair having neither."""

    mu_x: float
    mu_y: float
    nu: float
    theta: float
    phi: float
    psi: float
    pairs: dict
    zetas: dict


@dataclass
class EstimationReport:
    """P paths' estimates as arrays: est (P, 6), rows (mu_x, mu_y, nu, theta,
    phi, psi); per axis of AXES, pairs[axis] (P,), the id of the pair whose
    ratio gave that axis's estimate, -1 where the axis formed no pair, and
    zetas[axis] (P,), that ratio, NaN where there is no pair. A report of
    stacked trials holds their paths trial-major."""

    est: np.ndarray
    pairs: dict
    zetas: dict
    iterations: int
    scheme: str

    @property
    def paths(self) -> list[PathEstimate]:
        """The estimates as PathEstimate objects, built on each read."""
        ks = {axis: k.tolist() for axis, k in self.pairs.items()}
        zs = {axis: z.tolist() for axis, z in self.zetas.items()}
        return [PathEstimate(*row, pairs={a: k[i] for a, k in ks.items() if k[i] >= 0},
                             zetas={a: zs[a][i] for a, k in ks.items() if k[i] >= 0})
                for i, row in enumerate(self.est.tolist())]

    @property
    def best(self) -> PathEstimate:
        return self.paths[0]


def received_symbol(w, h_k: np.ndarray, f, s: complex = 1.0,
                    noise_sigma: float = 0.0,
                    rng: np.random.Generator | None = None) -> complex:
    """w* H f s + w* n for one probe on one subcarrier, beam vectors w and f;
    noise is drawn fresh with covariance noise_sigma^2 I."""
    wv, fv, h = np.asarray(w), np.asarray(f), np.asarray(h_k)
    if h.ndim != 2 or wv.shape != (h.shape[0],) or fv.shape != (h.shape[1],):
        raise DimensionMismatch(
            f"w {wv.shape}, H {h.shape}, f {fv.shape} do not line up")
    y = complex(wv.conj() @ h @ fv) * s
    if noise_sigma > 0:
        rng = np.random.default_rng() if rng is None else rng
        y += complex(wv.conj() @ _noise_like(h.shape[0], noise_sigma, rng))
    return y


def ratio_metric(power_delta, power_sigma):
    """Difference-over-sum ratio of a pair's two powers, clipped to [-1, 1];
    arrays give an array, one ratio per entry, floats a float."""
    p_d, p_s = np.asarray(power_delta), np.asarray(power_sigma)
    if (np.fmin(p_d, p_s) < 0).any():  # fmin: a NaN hides no negative power
        raise ValueError("powers must be nonnegative")
    total = p_d + p_s
    if not total.all():
        raise BothZero("both pair powers are zero")
    with np.errstate(invalid="ignore"):  # inf / inf is NaN, as for floats
        zeta = np.minimum(np.maximum((p_d - p_s) / total, -1.0), 1.0)
    return float(zeta) if zeta.ndim == 0 else zeta


def ratio_closed_form(mu: float, center: float, delta: float) -> float:
    """Noiseless single-path ratio as a function of the offset from the pair
    center; strictly decreasing over (center - delta, center + delta)."""
    v = mu - center
    return -np.sin(v) * np.sin(delta) / (1.0 - np.cos(v) * np.cos(delta))


def invert_ratio(zeta, center_mu, delta: float):
    """Closed-form inverse of the ratio metric; output clamped to the pair
    interval [center - delta, center + delta]. The formula is exact for
    |zeta| <= 1 (the endpoints give center -+ delta), so clamping zeta to
    [-1, 1] only absorbs floating-point overshoot. Arrays of zeta and
    center_mu give an array, floats a float."""
    if not 0 < delta < np.pi / 2:
        raise ValueError("delta must lie in (0, pi/2)")
    z = np.minimum(np.maximum(zeta, -1.0), 1.0)
    sd, cd = np.sin(delta), np.cos(delta)
    zz = z * z
    denom = sd * sd + zz * cd * cd
    arg = (z * sd - z * np.sqrt(1.0 - zz) * sd * cd) / denom
    mu = center_mu - np.arcsin(np.minimum(np.maximum(arg, -1.0), 1.0))
    mu = np.minimum(np.maximum(mu, center_mu - delta), center_mu + delta)
    return float(mu) if mu.ndim == 0 else mu


def _noise_like(shape, sigma: float, rng: np.random.Generator,
                batch: tuple = ()) -> np.ndarray:
    """Circular complex Gaussian noise of variance sigma^2 and `shape` (an
    int or a tuple), real parts drawn before imaginary parts. A `batch`
    shape makes that many such draws in one generator call, each equal to
    what a separate call would give, stacked as batch + shape."""
    dims = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    z = rng.standard_normal((math.prod(batch), 2, *dims))
    return _complex_noise(z[:, 0], z[:, 1], sigma).reshape(*batch, *dims)


def _complex_noise(re: np.ndarray, im: np.ndarray, sigma: float) -> np.ndarray:
    """sigma * (re + 1j im) / sqrt 2 from standard normals re and im."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    out *= sigma  # the bits of sigma * (re + 1j im) / sqrt 2: numpy divides
    out *= 1 / np.sqrt(2)  # a complex by a real as a product with the reciprocal
    return out


def _sigma_from_gamma(gamma: float | None) -> float:
    """The noise amplitude at linear SNR gamma: 0 at None or infinity, the
    noiseless case; a NaN or nonpositive gamma raises ValueError."""
    if gamma is None or gamma == math.inf:
        return 0.0
    if math.isnan(gamma):
        raise ValueError("SNR is NaN")
    if gamma <= 0:
        raise ValueError("SNR must be positive (linear scale)")
    return float(np.sqrt(1.0 / gamma))


def _sweep_normals(n: int, codebooks: CodebookSet, gamma: float | None,
                   rng: np.random.Generator | None, batch: tuple = ()):
    """The standard normals of a sweep's receiver noise over n subcarriers
    at linear SNR gamma, (*batch, 2, n, receive beams, grid columns), real
    parts before imaginary parts; None at infinite SNR, which draws
    nothing."""
    if _sigma_from_gamma(gamma) == 0:
        return None
    rng = np.random.default_rng() if rng is None else rng
    return rng.standard_normal(
        (*batch, 2, n, len(codebooks.books["receive"].pols), codebooks.grid.shape[1]))


def _sweep(channel: ChannelRealization, codebooks: CodebookSet, normals=None,
           gamma: float | None = None):
    """TDM probe of every (receive beam, elevation x azimuth transmit grid)
    combination per polarization, plus receiver noise at linear SNR gamma
    made from `normals` (see _sweep_normals) when given. The noise
    broadcasts against the (..., N, receive beams, grid columns) outputs,
    so a leading axis of the normals makes one sweep per draw. Returns the
    marginal strengths per axis, (..., beams) over the sweeps' leading axes
    (a stacked realization's trial axis, the normals'), and the probe count
    per sweep."""
    y = channel.beamformed(codebooks.books["receive"].matrix, codebooks.grid)
    if normals is not None:
        y = y + _complex_noise(normals[..., 0, :, :, :], normals[..., 1, :, :, :],
                               _sigma_from_gamma(gamma))
    powers = np.mean(np.abs(y) ** 2, axis=-3)  # (..., n_rx, n_grid)
    *lead, n_rx, n_grid = powers.shape
    per_grid = powers.sum(axis=-2).reshape(-1, n_grid)
    strengths = {"receive": powers.sum(axis=-1)}
    for axis, idx in (("elevation", codebooks.grid_el), ("azimuth", codebooks.grid_az)):
        size = len(codebooks.books[axis].pols)
        strengths[axis] = _binned(idx, per_grid, size).reshape(*lead, size)
    return strengths, n_rx * n_grid


def _binned(idx: np.ndarray, weights: np.ndarray, size: int, lead: int = 1) -> np.ndarray:
    """Per row of weights (*rows, ...), whose first `lead` axes index the
    rows, its weights summed into `size` bins by idx, which broadcasts
    against weights: (*rows, size). One bincount for all rows, row t's bins
    offset by t * size, the rows counted in C order."""
    rows = weights.shape[:lead]
    row = np.arange(math.prod(rows)).reshape(*rows, *(1,) * (weights.ndim - lead))
    bins = np.broadcast_to(idx + size * row, weights.shape)
    return np.bincount(bins.ravel(), weights=weights.ravel(),
                       minlength=row.size * size).reshape(*rows, size)


def _winner(s: np.ndarray, among=None) -> np.ndarray:
    """Index of the strongest beam in each row of s (..., beams), optionally
    among the given indices of each row (..., k); the lowest index wins a
    tie."""
    idx = np.broadcast_to(np.arange(s.shape[-1]), s.shape) if among is None \
        else np.sort(among, axis=-1)
    cand = np.take_along_axis(s, idx, axis=-1)
    if (cand.max(axis=-1) <= 0).any():
        raise NoSignal("no probe produced power")
    return np.take_along_axis(idx, np.argmax(cand, axis=-1)[..., None], -1)[..., 0]


def _pair_and_invert(s: np.ndarray, win, book: AxisBook):
    """Pair each winner with its stronger angular neighbour (the lower index
    on a tie) and invert the pair's ratio metric. The strengths s are
    (rows, beams), the winners win (rows, ...) of each row; returns the
    spatial frequencies, the pair ids (rows of book's pair table) and the
    zetas, each shaped like win. The candidates are the pairs below and
    above the winner in the pair table: an edge beam has one, a single-beam
    codebook none."""
    below, above = book.members[win, 1], book.members[win, 0]
    top = np.maximum(below, above)  # -1 where the winner belongs to no pair
    if (top < 0).any():
        raise InsufficientNeighbors(f"beam {win[top < 0][0]} has no neighbor for pairing")
    rows = np.arange(len(s)).reshape(-1, *(1,) * (win.ndim - 1))  # s[rows, i]: beam i per row
    # negative indices wrap, so both neighbour picks are beams; they are
    # read only where the winner has both neighbours
    up = (below < 0) | ((above >= 0) & (s[rows, win + 1 - s.shape[-1]] > s[rows, win - 1]))
    k = np.where(up, above, below)
    lo = book.pairs[k, 0]  # pair k is beams (lo, lo + 1)
    zeta = ratio_metric(s[rows, lo], s[rows, lo + 1])
    return invert_ratio(zeta, book.centers[k], book.delta), k, zeta


def _fill_angles(mus: np.ndarray, arrays) -> np.ndarray:
    """Rows (mu_x, mu_y, nu, theta, phi, psi) of spatial-frequency rows
    (..., 3). A transmit direction at (0, 0), where DegenerateDirection
    leaves the azimuth undefined, gets (theta, phi) = (0, 0)."""
    rows = np.empty(mus.shape[:-1] + (6,))
    rows[..., :3] = mus
    rows[..., 3], rows[..., 4], rad = _angles(mus[..., 0], mus[..., 1], arrays)
    rows[rad == 0, 4] = 0.0  # theta is 0 there already
    rows[..., 5] = aoa_from_nu(mus[..., 2], arrays)
    return rows


def _abp_rows(strengths: dict, codebooks: CodebookSet):
    """Single-path ABP estimates of sweeps' strengths (sweeps, beams) per
    axis: angle rows (sweeps, 6) as in _fill_angles, plus each axis's pair
    ids and zetas (sweeps,)."""
    est = {axis: _pair_and_invert(s, _winner(s), codebooks.books[axis])
           for axis, s in strengths.items()}
    mus = np.stack([est[axis][0] for axis in AXES], axis=-1)
    return (_fill_angles(mus, codebooks.config.arrays),
            {axis: e[1] for axis, e in est.items()}, {axis: e[2] for axis, e in est.items()})


def _gob_rows(strengths: dict, codebooks: CodebookSet) -> np.ndarray:
    """Grid-of-beams estimates of sweeps' strengths (sweeps, beams) per axis:
    per axis the strongest beam's boresight; angle rows (sweeps, 6) as in
    _fill_angles."""
    mus = np.stack([codebooks.books[axis].boresights[_winner(strengths[axis])]
                    for axis in AXES], axis=-1)
    return _fill_angles(mus, codebooks.config.arrays)


def estimate_single_path(channel: ChannelRealization, codebooks: CodebookSet,
                         gamma: float | None = None,
                         rng: np.random.Generator | None = None) -> EstimationReport:
    """Single-path estimation from a full TDM sweep: pick per-domain winners
    by marginal strength, pair each with its stronger neighbor, invert the
    ratio, and map spatial frequencies back to physical angles."""
    strengths, probes = _sweep(
        channel, codebooks, _sweep_normals(channel.shape[0], codebooks, gamma, rng), gamma)
    return EstimationReport(*_abp_rows({a: s[None] for a, s in strengths.items()}, codebooks),
                            iterations=probes, scheme="abp")


def gob_estimate(channel: ChannelRealization, codebooks: CodebookSet,
                 gamma: float | None = None,
                 rng: np.random.Generator | None = None,
                 n_rf: int = 1, m_rf: int = 1) -> EstimationReport:
    """Grid-of-beams baseline over the same sweep: the estimate per domain is
    the strongest beam's boresight. The iteration count follows the
    exhaustive-search complexity (tx count)^n_rf * (rx count)^m_rf."""
    strengths, _ = _sweep(
        channel, codebooks, _sweep_normals(channel.shape[0], codebooks, gamma, rng), gamma)
    iters = (codebooks.grid.shape[1] ** n_rf) \
        * (len(codebooks.books["receive"].pols) ** m_rf)
    return EstimationReport(_gob_rows({a: s[None] for a, s in strengths.items()}, codebooks),
                            {axis: np.full(1, -1) for axis in AXES},
                            {axis: np.full(1, math.nan) for axis in AXES}, iters, "gob")


def tag_probing(idx, members: np.ndarray) -> list[tuple[int, int]]:
    """Assign a (pair id, within-pair id) pilot tag to every column of one
    probing, given the columns' beam indices and the axis's membership table
    (AxisBook.members). Columns that are the two members of the same pair
    share its id; remaining columns take an id not yet used in this probing."""
    # per column, (pair id, b) in pair-id order: the pair below the beam
    # (where it is member 1) comes before the pair above it (member 0)
    opts = [[(row[b], b) for b in (1, 0) if row[b] >= 0]
            for row in members[np.asarray(idx)].tolist()]
    tags: list[tuple[int, int] | None] = [None] * len(opts)
    used: set[int] = set()
    by_pair: dict[int, list[tuple[int, int]]] = {}
    for i, col in enumerate(opts):
        for abp_id, b in col:
            by_pair.setdefault(abp_id, []).append((i, b))
    # complete pairs first
    for abp_id, hits in by_pair.items():
        if len(hits) == 2 and {b for _, b in hits} == {0, 1} and abp_id not in used:
            if all(tags[i] is None for i, _ in hits):
                for i, b in hits:
                    tags[i] = (abp_id, b)
                used.add(abp_id)
    for i, col in enumerate(opts):
        if tags[i] is not None:
            continue
        if not col:
            raise InsufficientNeighbors(f"beam {idx[i]} belongs to no pair")
        pick = next(((a, b) for a, b in col if a not in used), col[0])
        tags[i] = pick
        used.add(pick[0])
    return tags  # type: ignore[return-value]


def _slot_noise(rx_idx: np.ndarray, n_t: int, rx_book: AxisBook, n: int, sigma: float,
                rng: np.random.Generator, out: np.ndarray | None = None):
    """Element noise of every (tx probing, rx probing) slot of one trial's
    plan, in one draw, projected by the slot's combiner: (n_t, m_t, N,
    m_rf) for receive plan rx_idx (m_t, m_rf), written into `out` when
    given; None when sigma is 0, which draws nothing."""
    if sigma == 0:
        return None
    w_conj = np.ascontiguousarray(
        np.take(rx_book.matrix, rx_idx, axis=1).transpose(1, 0, 2).conj())
    return np.matmul(_noise_like((n, len(rx_book.matrix)), sigma, rng, batch=(n_t, len(rx_idx))),
                     w_conj, out=out)


# One stage's (tx probing, rx probing) slots of R rows (trials, or the
# elevation stage's (trial, path) rows), as far as neither the receive
# factors u nor the steering of the transmit beams reaches them: plans tx_idx
# (R, n_t, n_rf) and rx_idx (R, m_t, m_rf), the gathered combiners'
# conjugate transposes wh (R, m_t m_rf, M), each tx probing's tap-weighted
# pilot Grams gram (R, n_t, C, n_rf, n_rf), one per cluster and shared by
# its subpaths, Q_c[j, j'] = sum_k taps[k, c] x[k, j] x*[k, j'] over the
# probing's references x, and the correlations of the projected slot noise
# n with them, sum_k n[k, r] x*[k, j'], as noise (R, n_t, m_t, m_rf, n_rf),
# or None.
_Slots = namedtuple("_Slots", "tx_idx rx_idx wh gram noise")


def _slots(tx_idx: np.ndarray, rx_idx: np.ndarray, pilots: PilotAssignment,
           tx_book: AxisBook, rx_book: AxisBook, taps: np.ndarray,
           noise: np.ndarray | None) -> _Slots:
    """The _Slots of plans tx_idx and rx_idx, tagged from tx_book's pair
    membership table, under the clusters' delay taps (N, C), or per trial
    (T, N, C) with R a multiple of T (the rows trial-major), and with every
    row's slot noise (see _slot_noise), (R, n_t, m_t, N, m_rf), when given.
    The gathers keep picks C-ordered, so each row's combiner is laid out as
    alone."""
    n_rows, n_t, n_rf = tx_idx.shape
    if taps.shape[-2] != pilots.n:
        raise DimensionMismatch("pilot length must equal the subcarrier count")
    x = pilots.references([tag for t_idx in tx_idx.reshape(-1, n_rf)
                           for tag in tag_probing(t_idx, tx_book.members)])
    w = np.take(rx_book.matrix, rx_idx.reshape(n_rows, -1), axis=1).transpose(1, 2, 0)
    return _Slots(tx_idx, rx_idx, np.ascontiguousarray(w).conj(),
                  *_grams(taps, x.reshape(pilots.n, n_rows, n_t, n_rf), noise))


def _grams(taps: np.ndarray, x: np.ndarray, noise: np.ndarray | None) -> tuple:
    """The pilot Grams and noise correlations of _Slots from the clusters'
    taps, the references x (N, R, n_t, n_rf) of every row's tx probings
    and the rows' noise, or None. Made one tx probing of every row at a
    time, so that only its (N, n_rf^2) pilot products and m_t N-row noise
    blocks per row are held; each product keeps the operand layout of a
    one-row, one-probing product, so batching moves no bit."""
    n, n_rows, n_t, n_rf = x.shape
    n_taps = len(taps) if taps.ndim == 3 else 1
    per = n_rows // n_taps  # consecutive rows that share a tap set
    # (tap set, probing of its rows, n_rf, N): each probing's references as
    # rows, so that the pilot products run along N
    x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).reshape(n_taps, per * n_t, n_rf, n)
    gram = np.empty((n_taps, per * n_t, taps.shape[-1], n_rf * n_rf), dtype=complex)
    corr = None if noise is None else \
        np.empty((n_taps, per * n_t, len(noise[0][0]), noise[0].shape[-1], n_rf), dtype=complex)
    for p in range(per * n_t):
        xc = x[:, p].conj()
        gram[:, p] = (  # sum_k x[k, j] x*[k, j'] taps[k, c], as (tap set, c, j j')
            (x[:, p, :, None] * xc[:, None]).reshape(n_taps, -1, n) @ taps).swapaxes(-1, -2)
        if noise is not None:  # probing t of row `row` of every tap set
            row, t = divmod(p, n_t)
            z = np.stack([noise[g * per + row][t] for g in range(n_taps)])
            corr[:, p] = z.swapaxes(-1, -2) @ xc[:, None].swapaxes(-1, -2)
    return (gram.reshape(n_rows, n_t, -1, n_rf, n_rf),
            None if corr is None else corr.reshape(n_rows, n_t, *corr.shape[2:]))


def _precoders(tx_book: AxisBook, tx_idx: np.ndarray) -> np.ndarray:
    """The transmit beams of plans tx_idx (R, n_t, n_rf), (..., R, n_t, N_t,
    n_rf), from a book of one matrix, or of one per row and batch entry,
    (..., R, N_t, beams) (see AxisBook); each row's precoders (N_t, n_t,
    n_rf) are laid out as alone."""
    n_rows, n_t, n_rf = tx_idx.shape
    book = tx_book.matrix if tx_book.matrix.ndim > 2 else tx_book.matrix[None]
    f = np.take_along_axis(book, tx_idx.reshape(*(1,) * (book.ndim - 3), n_rows, 1, -1), axis=-1)
    return f.reshape(*f.shape[:-1], n_t, n_rf).swapaxes(-3, -2)


def _vfq(v: np.ndarray, f: np.ndarray, gram: np.ndarray, q: int) -> np.ndarray:
    """(I_q kron v_l)^H F Q_c per row, tx probing and path l of cluster c,
    (..., R, n_t, L q, n_rf) with the paths' q rows path-major, of transmit
    steering v (R, L, N_t), precoders f (..., R, n_t, q N_t, n_rf) (see
    _precoders and channel._precoded) and the C clusters' pilot Grams gram
    (see _Slots): a cluster's S subpaths' S q rows in one product. Batch
    axes of f share v and gram."""
    vf = _precoded(v[:, None], f, q)  # (..., R, n_t, L, q, n_rf)
    lead, n_rf = vf.shape[:-3], vf.shape[-1]
    return (vf.reshape(*lead, gram.shape[2], -1, n_rf) @ gram).reshape(*lead, -1, n_rf)


def _probe(ul: np.ndarray, slots: _Slots, vfq: np.ndarray, tx_book: AxisBook,
           rx_book: AxisBook):
    """Run every slot of R rows in the path domain: receive branch r's
    correlation with reference j' is sum_l (W^H u_l)(V_l^H F Q_l)[r, j']
    plus the slots' noise correlation, from the receive factors ul (..., T,
    M, L q) of the rows' T trials (u's paths side by side, path-major; each
    trial's R / T rows consecutive) and vfq (see _vfq), (R, ...) or (...,
    R, ...). Batch axes of ul share the slots. Sums |corr|^2 per transmit
    beam and receive beam (indexed by book column) and per receive probing,
    in slot order: (..., R, beams), (..., R, beams), (..., R, m_t). Nothing
    per subcarrier is built."""
    (n_rows, n_t, n_rf), (_, m_t, m_rf) = slots.tx_idx.shape, slots.rx_idx.shape
    *lead, n_trials, _, n_lq = ul.shape
    wh = slots.wh.reshape(n_trials, -1, *slots.wh.shape[1:])  # (T, R / T, m_t m_rf, M)
    wu = (wh @ ul[..., None, :, :]).reshape(*lead, n_rows, 1, -1, n_lq)
    corr = (wu @ vfq).reshape(*lead, n_rows, n_t, m_t, m_rf, n_rf)
    if slots.noise is not None:
        corr += slots.noise
    s = np.abs(corr) ** 2
    rows = len(lead) + 1
    return (_binned(slots.tx_idx[:, :, None], s.sum(axis=-2), len(tx_book.pols), rows),
            _binned(slots.rx_idx[:, None], s.sum(axis=-1), len(rx_book.pols), rows),
            _binned(np.arange(m_t), s.reshape(*s.shape[:-2], -1).sum(axis=-1), m_t, rows))


def _require_coverage(idx: np.ndarray, book: AxisBook) -> None:
    """Every trial's plan idx (T, probings, slots) probes every beam."""
    n = len(book.pols)
    trial, missing = np.nonzero(~(idx.reshape(len(idx), -1, 1) == np.arange(n)).any(axis=1))
    if missing.size:
        where = f" in trial {trial[0]}" if len(idx) > 1 else ""
        raise InfeasibleCoverage(
            f"probing plan leaves {book.axis} beams "
            f"{missing[trial == trial[0]].tolist()} unprobed{where}")


# estimate_multipath's draws of T trials (see _multipath_draws): the
# azimuth stage's slot noise (T, n_t, m_t, N, m_rf), None at sigma 0; and,
# when the elevation stage runs, each selected path's plan el_plan, a
# ProbingPlan of (T, P, n_el_t, n_rf) and (T, P, m_t, m_rf), and its slot
# noise el_noise (T, P, n_el_t, m_t, N, m_rf), None at sigma 0; both None
# when the stage is skipped.
MultipathDraws = namedtuple("MultipathDraws", "noise el_plan el_noise")


def _multipath_draws(codebooks: CodebookSet, plan: ProbingPlan, n: int, sigma: float,
                     n_select: int, rngs) -> MultipathDraws:
    """The MultipathDraws of a plan stacked over T trials, trial t's from
    rngs[t] and every draw of trial t before trial t + 1's, in
    estimate_multipath's order: the azimuth stage's slot noise (see
    _slot_noise), then, when the elevation stage runs (every polarization
    has more than one elevation beam), per selected path the seed of its
    elevation plan and that plan's slot noise. Which beam indices a plan
    picks does not depend on where the elevation beams point, so the plans
    come from `codebooks` itself. The plan must probe every azimuth and
    receive beam (InfeasibleCoverage otherwise), checked before any draw."""
    rx_book = codebooks.books["receive"]
    _require_coverage(plan.tx_idx, codebooks.books["azimuth"])
    _require_coverage(plan.rx_idx, rx_book)
    (n_trials, n_t, n_rf), (_, m_t, m_rf) = plan.tx_idx.shape, plan.rx_idx.shape
    m = (m_t, n, m_rf)
    noise = None if sigma == 0 else np.empty((n_trials, n_t, *m), dtype=complex)
    el_beams = codebooks.books["elevation"].by_pol
    el_plan = el_noise = None
    if all(len(idx) > 1 for idx in el_beams.values()):
        cross = codebooks.config.arrays.polarization_mode == "cross"
        slots = max(n_rf // 2 if cross else n_rf, 1)
        n_el_t = max(1, math.ceil(max(map(len, el_beams.values())) / slots))
        layout = "split-half" if cross and n_rf % 2 == 0 else "free"
        paths = min(n_select, len(codebooks.books["azimuth"].pols))
        el_plan = ProbingPlan(np.empty((n_trials, paths, n_el_t, n_rf), dtype=int),
                              np.empty((n_trials, paths, m_t, m_rf), dtype=int))
        el_noise = None if sigma == 0 else np.empty((n_trials, paths, n_el_t, *m), dtype=complex)
    for t, rng in enumerate(rngs):
        _slot_noise(plan.rx_idx[t], n_t, rx_book, n, sigma, rng,
                    None if noise is None else noise[t])
        for p in range(0 if el_plan is None else el_plan.tx_idx.shape[1]):
            one = random_probing_plan(codebooks, n_el_t, m_t, n_rf, m_rf,
                                      int(rng.integers(2 ** 31)), layout=layout,
                                      tx_axis="elevation")
            el_plan.tx_idx[t, p], el_plan.rx_idx[t, p] = one.tx_idx, one.rx_idx
            _slot_noise(one.rx_idx, n_el_t, rx_book, n, sigma, rng,
                        None if el_noise is None else el_noise[t, p])
    return MultipathDraws(noise, el_plan, el_noise)


# estimate_multipath's probing of T trials as far as it holds across
# realizations that share their delay taps and transmit factors v (the
# profiles of a sweep, which change only the receive factors u): the
# azimuth stage's slots and their V^H F Q (see _vfq), and the elevation
# stage's slots, None where that stage is skipped; its beams are steered at
# each row's azimuth estimate, so only their steered book and V^H F are
# left per profile. Its arrays have the trial axis and no profile axis; a
# realization whose u stacks the profiles ahead of the trial axis reads
# them broadcast. Made by _multipath_probing.
MultipathProbing = namedtuple("MultipathProbing", "azimuth vfq elevation")


def _multipath_probing(channel, plan: ProbingPlan, pilots: PilotAssignment,
                       codebooks: CodebookSet, draws: MultipathDraws) -> MultipathProbing:
    """The MultipathProbing of a plan stacked over T trials, (T, n_t, n_rf)
    and (T, m_t, m_rf), on `channel`, a stacked realization or anything else
    with its clusters' delay taps (N, C) or (T, N, C), read as stored (one
    pilot Gram per cluster), and transmit steering v (T, L, N_t)
    (channel.SteeredPaths), from the trials' draws (see _multipath_draws,
    which checks the plan's coverage). The codebooks' polarizations set q,
    the transmit factors' I_q. The elevation plans get the pilots of the
    elevation pair table, which does not depend on where the beams are
    steered."""
    az_book, rx_book = codebooks.books["azimuth"], codebooks.books["receive"]
    azimuth = _slots(plan.tx_idx, plan.rx_idx, pilots, az_book, rx_book, channel.taps,
                     draws.noise)
    elevation = None
    if draws.el_plan is not None:
        el_book = codebooks.books["elevation"]
        el_pilots = assign_pilots(range(len(el_book.pairs)), pilots.n, p=pilots.p,
                                  coprime_with=pilots.coprime_with, dc_zero=pilots.dc_zero)
        rows = [a if a is None else a.reshape(-1, *a.shape[2:])  # (trial, path) rows
                for a in (draws.el_plan.tx_idx, draws.el_plan.rx_idx, draws.el_noise)]
        elevation = _slots(rows[0], rows[1], el_pilots, el_book, rx_book, channel.taps, rows[2])
    q = len(codebooks.config.arrays.pols)
    return MultipathProbing(
        azimuth, _vfq(channel.v, _precoders(az_book, plan.tx_idx), azimuth.gram, q), elevation)


def estimate_multipath(channel: ChannelRealization, probing_plan: ProbingPlan,
                       pilots: PilotAssignment, gamma: float | None,
                       n_select: int, rng: np.random.Generator | None = None,
                       *, codebooks: CodebookSet, draws=None) -> EstimationReport:
    """Multi-path estimation with simultaneous pilot-tagged probing.

    Azimuth stage: pick the receive probing with the largest summed strength,
    take the n_select strongest transmit beams, pair each with its stronger
    neighbor, and invert the per-pair ratio. Receive pairs form around the
    best receive beam of the winning probing. When every polarization has
    more than one elevation beam, each selected path then gets an elevation
    sweep steered at its azimuth estimate, all (trial, path) rows in one
    pass. A path keeps the elevation range center, and no elevation pair,
    when the stage is skipped; a sweep that collects no energy raises
    NoSignal, as in the azimuth stage. The plan must probe every azimuth
    and receive beam of `codebooks` (InfeasibleCoverage otherwise).

    A realization stacked over T trials, with a plan whose index arrays
    carry the same leading trial axis, (T, n_t, n_rf) and (T, m_t, m_rf),
    is estimated in one pass: the report holds the T x n_select estimates,
    trial-major, and its iterations the trials' total. Axes of u before the
    trial axis, u (..., T, L, M, q), are batch axes (the rate step stacks a
    sweep's profiles on one): each batch entry is estimated on the same
    plan, draws and probing, and the report holds its rows batch-major,
    each entry's as alone. `draws` is None, for noise and elevation plans
    drawn from rng at gamma trial by trial (see _multipath_draws), or the
    MultipathProbing that _multipath_probing made of pre-drawn ones, for
    realizations with this one's taps and v. A one-trial realization and
    plan are the T = 1 case.
    """
    if n_select < 1:
        raise ValueError("n_select must be >= 1")
    if probing_plan.tx_idx.ndim == 2:  # one trial: a stack of one
        channel = ChannelRealization(channel.taps, channel.u[..., None, :, :, :], channel.v[None],
                                     ())
        probing_plan = ProbingPlan(probing_plan.tx_idx[None], probing_plan.rx_idx[None])
    if draws is None:
        rng = np.random.default_rng() if rng is None else rng
        draws = _multipath_probing(channel, probing_plan, pilots, codebooks, _multipath_draws(
            codebooks, probing_plan, channel.taps.shape[-2], _sigma_from_gamma(gamma),
            n_select, [rng] * len(probing_plan.tx_idx)))
    az_book, rx_book = codebooks.books["azimuth"], codebooks.books["receive"]
    (n_trials, n_t, n_rf), (_, m_t, m_rf) = probing_plan.tx_idx.shape, probing_plan.rx_idx.shape

    # u's paths side by side, (..., T, M, L q), for every slot's W^H u
    ul = channel.u.swapaxes(-3, -2).reshape(*channel.u.shape[:-3], channel.u.shape[-2], -1)
    tx_s, rx_s, totals = _probe(ul, draws.azimuth, draws.vfq, az_book, rx_book)
    if (totals.sum(axis=-1) <= 0).any():
        raise NoSignal("no correlated energy in any probing")

    best_mt = np.argmax(totals, axis=-1)
    rx_winner = _winner(rx_s, probing_plan.rx_idx[np.arange(n_trials), best_mt])
    # from here on (batch entry, trial) rows, batch-major
    nu, rx_k, rx_zeta = _pair_and_invert(rx_s.reshape(-1, rx_s.shape[-1]), rx_winner.ravel(),
                                         rx_book)
    tx_s = tx_s.reshape(-1, tx_s.shape[-1])
    mu_y, az_k, az_zeta = _pair_and_invert(
        tx_s, np.argsort(-tx_s, kind="stable")[:, :n_select], az_book)
    n_rows, n_paths = mu_y.shape
    mus = np.empty((n_rows, n_paths, 3))  # (mu_x, mu_y, nu) per path
    # mu_x is the elevation range center unless the elevation stage runs
    mus[..., 0] = 0.5 * sum(codebooks.config.el_range)
    mus[..., 1], mus[..., 2] = mu_y, nu[:, None]
    pairs = {"azimuth": az_k.ravel(), "receive": np.repeat(rx_k, n_paths),
             "elevation": np.full(n_rows * n_paths, -1)}
    zetas = {"azimuth": az_zeta.ravel(), "receive": np.repeat(rx_zeta, n_paths),
             "elevation": np.full(n_rows * n_paths, math.nan)}

    el = draws.elevation
    if el is not None:
        # one elevation sweep per (trial, path) row of each batch entry, its
        # beams steered at the row's azimuth estimate; the pair ids, and so
        # the pilots, stay the same
        el_book = _axis_book(codebooks.config, "elevation",
                             mu_y.reshape(*channel.u.shape[:-4], n_trials * n_paths))
        trial = np.repeat(np.arange(n_trials), n_paths)
        el_tx = _probe(
            ul, el,
            _vfq(channel.v[trial], _precoders(el_book, el.tx_idx), el.gram, channel.u.shape[-1]),
            el_book, rx_book)[0].reshape(n_rows * n_paths, -1)
        # a row whose sweep collects no energy has no winner: NoSignal
        mus.reshape(-1, 3)[:, 0], pairs["elevation"], zetas["elevation"] = _pair_and_invert(
            el_tx, _winner(el_tx), el_book)

    probings = n_t + (0 if el is None else n_paths * el.tx_idx.shape[1])  # per row
    iters = n_rf * n_rows * probings * m_rf * m_t
    return EstimationReport(_fill_angles(mus, codebooks.config.arrays).reshape(-1, 6),
                            pairs, zetas, iters, "abp")
