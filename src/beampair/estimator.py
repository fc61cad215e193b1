"""Beam-pair angle estimation.

Received-power evaluation, the difference/sum ratio metric and its
closed-form inversion, the single-path sweep estimator, the multi-path
pilot-probing estimator, and the grid-of-beams baseline used for
comparison. Beam strengths are 1-D arrays per axis indexed by Beam.index.
Every flow reads the codebook's fixed matrices and pair tables (AxisBook);
no trial rebuilds a beam, a grid or a pair list.
Per-domain strengths in the sweep estimator are marginal sums of probe
powers over the other probe axes, which keeps the ratio exact for a single
path (common factors cancel) and averages down noise. Every flow turns
strengths into an estimate the same way: winner, stronger neighbour, ratio,
closed-form inversion (_pair_and_invert).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, DimensionMismatch
from .codebook import (AuxiliaryBeamPair, AxisBook, Beam, CodebookSet,
                       InfeasibleCoverage, ProbingPlan, random_probing_plan)
from .codebook import tx_beam_vector  # noqa: F401  (perfbench's tracer test)
from .geometry import (DegenerateDirection, angles_from_spatial_frequencies,
                       aoa_from_nu)
from .pilot import PilotAssignment, assign_pilots, correlate_zero_lag

# PathEstimate field holding each axis's spatial-frequency estimate
_MU_KEYS = (("elevation", "mu_x"), ("azimuth", "mu_y"), ("receive", "nu"))


class BothZero(ValueError):
    pass


class NoSignal(RuntimeError):
    pass


class InsufficientNeighbors(RuntimeError):
    pass


@dataclass
class PathEstimate:
    mu_x: float = math.nan
    mu_y: float = math.nan
    nu: float = math.nan
    theta: float = math.nan
    phi: float = math.nan
    psi: float = math.nan
    pairs: dict = field(default_factory=dict)
    zetas: dict = field(default_factory=dict)


@dataclass
class EstimationReport:
    paths: list[PathEstimate]
    iterations: int
    scheme: str

    @property
    def best(self) -> PathEstimate:
        return self.paths[0]


def received_symbol(w, h_k: np.ndarray, f, s: complex = 1.0,
                    noise_sigma: float = 0.0,
                    rng: np.random.Generator | None = None) -> complex:
    """w* H f s + w* n for one probe on one subcarrier; noise is drawn fresh
    with covariance noise_sigma^2 I."""
    wv = w.vector if isinstance(w, Beam) else np.asarray(w)
    fv = f.vector if isinstance(f, Beam) else np.asarray(f)
    h = np.asarray(h_k)
    if h.ndim != 2 or wv.shape != (h.shape[0],) or fv.shape != (h.shape[1],):
        raise DimensionMismatch(
            f"w {wv.shape}, H {h.shape}, f {fv.shape} do not line up")
    y = complex(wv.conj() @ h @ fv) * s
    if noise_sigma > 0:
        rng = np.random.default_rng() if rng is None else rng
        y += complex(wv.conj() @ _noise_like(h.shape[0], noise_sigma, rng))
    return y


def ratio_metric(power_delta: float, power_sigma: float) -> float:
    """Difference-over-sum ratio of a pair's two powers, clipped to [-1, 1]."""
    if power_delta < 0 or power_sigma < 0:
        raise ValueError("powers must be nonnegative")
    total = power_delta + power_sigma
    if total == 0:
        raise BothZero("both pair powers are zero")
    return float(min(max((power_delta - power_sigma) / total, -1.0), 1.0))


def ratio_closed_form(mu: float, center: float, delta: float) -> float:
    """Noiseless single-path ratio as a function of the offset from the pair
    center; strictly decreasing over (center - delta, center + delta)."""
    v = mu - center
    return -np.sin(v) * np.sin(delta) / (1.0 - np.cos(v) * np.cos(delta))


def invert_ratio(zeta: float, center_mu: float, delta: float) -> float:
    """Closed-form inverse of the ratio metric; output clamped to the pair
    interval [center - delta, center + delta]. The formula is exact for
    |zeta| <= 1 (the endpoints give center -+ delta), so clamping zeta to
    [-1, 1] only absorbs floating-point overshoot."""
    if not 0 < delta < np.pi / 2:
        raise ValueError("delta must lie in (0, pi/2)")
    z = float(min(max(zeta, -1.0), 1.0))
    sd, cd = np.sin(delta), np.cos(delta)
    denom = sd * sd + z * z * cd * cd
    arg = (z * sd - z * np.sqrt(1.0 - z * z) * sd * cd) / denom
    mu = center_mu - np.arcsin(min(max(arg, -1.0), 1.0))
    return float(min(max(mu, center_mu - delta), center_mu + delta))


def _noise_like(shape, sigma: float, rng: np.random.Generator,
                batch: tuple = ()) -> np.ndarray:
    """Circular complex Gaussian noise of variance sigma^2 and `shape` (an
    int or a tuple), real parts drawn before imaginary parts. A `batch`
    shape makes that many such draws in one generator call, each equal to
    what a separate call would give, stacked as batch + shape."""
    dims = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    z = rng.standard_normal((math.prod(batch), 2, *dims))
    return (sigma * (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)).reshape(*batch, *dims)


def _sigma_from_gamma(gamma: float | None) -> float:
    if gamma is None or gamma == math.inf:
        return 0.0
    if gamma <= 0:
        raise ValueError("SNR must be positive (linear scale)")
    return float(np.sqrt(1.0 / gamma))


def _sweep(channel: ChannelRealization, codebooks: CodebookSet, sigma: float,
           rng: np.random.Generator | None):
    """TDM probe of every (receive beam, elevation x azimuth transmit grid)
    combination per polarization; returns marginal strengths per axis and the
    probe count."""
    y = channel.beamformed(codebooks.books["receive"].matrix, codebooks.grid)
    if sigma > 0:
        rng = np.random.default_rng() if rng is None else rng
        y = y + _noise_like(y.shape, sigma, rng)
    powers = np.mean(np.abs(y) ** 2, axis=0)  # (n_rx, n_grid)

    per_grid = powers.sum(axis=0)
    strengths = {"receive": powers.sum(axis=1),
                 "elevation": np.bincount(codebooks.grid_el, weights=per_grid),
                 "azimuth": np.bincount(codebooks.grid_az, weights=per_grid)}
    return strengths, powers.size


def _winner(s: np.ndarray, among: list[int] | None = None) -> int:
    """Index of the strongest beam, optionally among the given indices; the
    lowest index wins a tie."""
    idx = np.arange(len(s)) if among is None else np.sort(among)
    win = int(idx[np.argmax(s[idx])])
    if s[win] <= 0:
        raise NoSignal("no probe produced power")
    return win


def _pair_and_invert(s: np.ndarray, win: int, book: AxisBook
                     ) -> tuple[float, AuxiliaryBeamPair, float]:
    """Pair beam `win` with its stronger angular neighbour (the lower index on
    a tie) and invert the pair's ratio metric; returns (spatial frequency,
    pair, zeta). The candidates are the pairs below and above `win` in the
    pair table: an edge beam has one, a single-beam codebook none."""
    below, above = book.members[win, 1], book.members[win, 0]
    if below < 0 and above < 0:
        raise InsufficientNeighbors(f"beam {win} has no neighbor for pairing")
    k = above if below < 0 or (above >= 0 and s[win + 1] > s[win - 1]) else below
    pair = book.pair(int(k))
    zeta = ratio_metric(s[pair.beams[0].index], s[pair.beams[1].index])
    return invert_ratio(zeta, pair.center_mu, pair.delta), pair, zeta


def _fill_angles(est: PathEstimate, arrays) -> None:
    try:
        est.theta, est.phi = angles_from_spatial_frequencies(est.mu_x, est.mu_y,
                                                             arrays)
    except DegenerateDirection:
        est.theta, est.phi = 0.0, 0.0
    if not math.isnan(est.nu):
        est.psi = aoa_from_nu(est.nu, arrays)


def estimate_single_path(channel: ChannelRealization, codebooks: CodebookSet,
                         gamma: float | None = None,
                         rng: np.random.Generator | None = None) -> EstimationReport:
    """Single-path estimation from a full TDM sweep: pick per-domain winners
    by marginal strength, pair each with its stronger neighbor, invert the
    ratio, and map spatial frequencies back to physical angles."""
    sigma = _sigma_from_gamma(gamma)
    strengths, probes = _sweep(channel, codebooks, sigma, rng)
    est = PathEstimate()
    for axis, key in _MU_KEYS:
        s = strengths[axis]
        mu, est.pairs[axis], est.zetas[axis] = _pair_and_invert(
            s, _winner(s), codebooks.books[axis])
        setattr(est, key, mu)
    _fill_angles(est, codebooks.config.arrays)
    return EstimationReport(paths=[est], iterations=probes, scheme="abp")


def gob_estimate(channel: ChannelRealization, codebooks: CodebookSet,
                 gamma: float | None = None,
                 rng: np.random.Generator | None = None,
                 n_rf: int = 1, m_rf: int = 1) -> EstimationReport:
    """Grid-of-beams baseline over the same sweep: the estimate per domain is
    the strongest beam's boresight. The iteration count follows the
    exhaustive-search complexity (tx count)^n_rf * (rx count)^m_rf."""
    sigma = _sigma_from_gamma(gamma)
    strengths, _ = _sweep(channel, codebooks, sigma, rng)
    est = PathEstimate()
    for axis, key in _MU_KEYS:
        winner = codebooks.books[axis].beams[_winner(strengths[axis])]
        setattr(est, key, winner.boresight_mu)
    _fill_angles(est, codebooks.config.arrays)
    iters = (codebooks.grid.shape[1] ** n_rf) \
        * (len(codebooks.books["receive"].beams) ** m_rf)
    return EstimationReport(paths=[est], iterations=iters, scheme="gob")


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


def _probe_and_correlate(channel: ChannelRealization, plan: ProbingPlan,
                         pilots: PilotAssignment, tx_book: AxisBook,
                         rx_book: AxisBook, sigma: float,
                         rng: np.random.Generator | None):
    """Run every (tx probing, rx probing) slot, correlate each receive branch
    against the probing's pilot references, and accumulate |corr|^2 strengths
    per transmit beam and per receive beam (arrays indexed by Beam.index) and
    per receive probing. Probing matrices are columns of the beam matrices."""
    n, m, _ = channel.shape
    if n != pilots.n:
        raise DimensionMismatch("pilot length must equal the subcarrier count")
    rng = np.random.default_rng() if rng is None else rng

    tx_idx = [[b.index for b in beams] for beams in plan.tx_beams]
    rx_idx = [[b.index for b in beams] for beams in plan.rx_beams]
    tx_strength = np.zeros(len(tx_book.beams))
    rx_strength = np.zeros(len(rx_book.beams))
    probing_totals = np.zeros(plan.m_t)
    # every receive probing at once: columns of w_all, split back per probing;
    # np.take keeps column picks C-ordered (m[:, idx] is F-ordered) for BLAS
    w_all = np.take(rx_book.matrix, np.concatenate(rx_idx), axis=1)
    splits = np.cumsum([len(r_idx) for r_idx in rx_idx])[:-1]
    if sigma > 0:  # element noise of every (tx, rx) probing, in loop order
        noise = _noise_like((n, m), sigma, rng, batch=(len(tx_idx), len(rx_idx)))

    for nt, t_idx in enumerate(tx_idx):
        f_mat = np.take(tx_book.matrix, t_idx, axis=1)
        x = pilots.references(tag_probing(t_idx, tx_book.members))  # (N, n_rf)
        y_all = np.einsum("kij,kj->ki", channel.beamformed(w_all, f_mat), x)
        for mt, (r_idx, y) in enumerate(zip(rx_idx, np.split(y_all, splits, axis=1))):
            if sigma > 0:
                w_mat = np.take(rx_book.matrix, r_idx, axis=1)
                y = y + noise[nt, mt] @ w_mat.conj()
            s = np.abs(correlate_zero_lag(y, x)) ** 2  # (m_rf, n_rf)
            probing_totals[mt] += float(s.sum())
            np.add.at(tx_strength, t_idx, s.sum(axis=0))
            np.add.at(rx_strength, r_idx, s.sum(axis=1))
    return tx_strength, rx_strength, probing_totals


def _require_coverage(probings: list[list[Beam]], book: AxisBook) -> None:
    probed = {b.index for probing in probings for b in probing}
    missing = [b.index for b in book.beams if b.index not in probed]
    if missing:
        raise InfeasibleCoverage(
            f"probing plan leaves {book.beams[0].axis} beams {missing} unprobed")


def estimate_multipath(channel: ChannelRealization, probing_plan: ProbingPlan,
                       pilots: PilotAssignment, gamma: float | None,
                       n_select: int, rng: np.random.Generator | None = None,
                       *, codebooks: CodebookSet) -> EstimationReport:
    """Multi-path estimation with simultaneous pilot-tagged probing.

    Azimuth stage: pick the receive probing with the largest summed strength,
    take the n_select strongest transmit beams, pair each with its stronger
    neighbor, and invert the per-pair ratio. Receive pairs form around the
    best receive beam of the winning probing. When every polarization has
    more than one elevation beam, each selected path then gets an elevation
    sweep re-pointed at its azimuth estimate; otherwise its elevation is the
    range center. The plan must probe every azimuth and receive beam of
    `codebooks` (InfeasibleCoverage otherwise).
    """
    if n_select < 1:
        raise ValueError("n_select must be >= 1")
    az_book, rx_book = codebooks.books["azimuth"], codebooks.books["receive"]
    _require_coverage(probing_plan.tx_beams, az_book)
    _require_coverage(probing_plan.rx_beams, rx_book)
    sigma = _sigma_from_gamma(gamma)
    rng = np.random.default_rng() if rng is None else rng

    tx_s, rx_s, totals = _probe_and_correlate(channel, probing_plan, pilots,
                                              az_book, rx_book, sigma, rng)
    if totals.sum() <= 0:
        raise NoSignal("no correlated energy in any probing")

    best_mt = int(np.argmax(totals))
    rx_winner = _winner(rx_s, [b.index for b in probing_plan.rx_beams[best_mt]])
    receive = _pair_and_invert(rx_s, rx_winner, rx_book)

    paths: list[PathEstimate] = []
    for beam in np.argsort(-tx_s, kind="stable")[:n_select]:
        est = PathEstimate()
        est.mu_y, est.pairs["azimuth"], est.zetas["azimuth"] = \
            _pair_and_invert(tx_s, int(beam), az_book)
        est.nu, est.pairs["receive"], est.zetas["receive"] = receive
        paths.append(est)

    extra_tx_probings = 0
    el_beams = codebooks.domain("elevation")
    if all(len(beams) > 1 for beams in el_beams.values()):
        # one elevation sweep per path, its beams re-pointed at the path's
        # azimuth estimate; the pair ids, and so the pilots, stay the same
        cross = codebooks.config.arrays.polarization_mode == "cross"
        slots = max(probing_plan.n_rf // 2 if cross else probing_plan.n_rf, 1)
        n_el_t = max(1, math.ceil(max(map(len, el_beams.values())) / slots))
        layout = "split-half" if cross and probing_plan.n_rf % 2 == 0 else "free"
        el_pilots = assign_pilots(
            range(len(codebooks.books["elevation"].pairs)), pilots.n, p=pilots.p,
            coprime_with=pilots.coprime_with, dc_zero=pilots.dc_zero)
        for est in paths:
            el_cbs = codebooks.repointed(est.mu_y)
            el_plan = random_probing_plan(
                el_cbs, n_el_t, probing_plan.m_t, probing_plan.n_rf,
                probing_plan.m_rf, int(rng.integers(2 ** 31)), layout=layout,
                tx_axis="elevation")
            el_book = el_cbs.books["elevation"]
            el_tx, _, el_totals = _probe_and_correlate(
                channel, el_plan, el_pilots, el_book, el_cbs.books["receive"],
                sigma, rng)
            extra_tx_probings += el_plan.n_t
            if el_totals.sum() <= 0:
                continue
            est.mu_x, est.pairs["elevation"], est.zetas["elevation"] = \
                _pair_and_invert(el_tx, _winner(el_tx), el_book)

    el_center = 0.5 * sum(codebooks.config.el_range)
    for est in paths:
        if math.isnan(est.mu_x):
            est.mu_x = el_center
        _fill_angles(est, codebooks.config.arrays)

    iters = probing_plan.n_rf * (probing_plan.n_t + extra_tx_probings) \
        * probing_plan.m_rf * probing_plan.m_t
    return EstimationReport(paths=paths, iterations=iters, scheme="abp")
