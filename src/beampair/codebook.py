"""Steering codebooks, beam pairs, and randomized probing plans.

Beam grids are uniform in spatial frequency with adjacent boresights spaced
two offsets apart, so every adjacent same-polarization pair straddles a
common center at +-delta. In cross-polarized mode each domain's coverage
range is split in half, vertical beams covering the lower half and
horizontal the upper half, and beam vectors are zero-padded outside their
polarization block.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ArrayConfig, ula_steering, upa_steering


class EmptyRange(ValueError):
    pass


class InfeasibleCoverage(ValueError):
    pass


AXES = ("elevation", "azimuth", "receive")


@dataclass(frozen=True, eq=False)
class Beam:
    """Column `index` of its axis's beam matrix (`vector` is a view of it);
    beams compare by identity."""

    vector: np.ndarray = field(repr=False)
    polarization: str
    axis: str
    boresight_mu: float
    index: int


@dataclass(frozen=True)
class AuxiliaryBeamPair:
    abp_id: int
    beams: tuple[Beam, Beam]
    axis: str
    center_mu: float
    delta: float

    @property
    def polarization(self) -> str:
        return self.beams[0].polarization

    def boresight(self, b: int) -> float:
        return self.beams[b].boresight_mu


@dataclass(frozen=True)
class CodebookConfig:
    """Coverage ranges are spatial-frequency intervals in radians. delta_mode
    'half-power' uses pi/(2*N) per axis; 'commensurate' uses ell*pi/N, the
    offset family for which the ratio-metric inversion is exact (the shifted
    kernel magnitudes of the two pair beams coincide whenever N*delta is a
    multiple of pi, so the power ratio collapses to the closed form)."""

    arrays: ArrayConfig
    el_range: tuple[float, float] = (-np.pi / 4, np.pi / 4)
    az_range: tuple[float, float] = (-np.pi / 3, np.pi / 3)
    rx_range: tuple[float, float] = (-np.pi / 2, np.pi / 2)
    delta_mode: str = "half-power"
    ell: int = 1

    def __post_init__(self):
        if self.delta_mode not in ("half-power", "commensurate"):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        for axis in AXES:
            lo, hi = self.mu_range(axis)
            if not -np.inf < lo < hi < np.inf:  # also rejects NaN bounds
                raise EmptyRange(f"{axis} range must be finite with lo < hi")

    def _n_for(self, axis: str) -> int:
        return {"elevation": self.arrays.n_x, "azimuth": self.arrays.n_y,
                "receive": self.arrays.m_tot}[axis]

    def delta(self, axis: str) -> float:
        n = self._n_for(axis)
        if self.delta_mode == "half-power":
            return np.pi / (2 * n)
        return np.pi * self.ell / n

    def mu_range(self, axis: str) -> tuple[float, float]:
        return {"elevation": self.el_range, "azimuth": self.az_range,
                "receive": self.rx_range}[axis]


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Boresights spaced `step` apart, centered in [lo, hi]; any overhang is
    split equally between the two ends."""
    span = hi - lo
    n = max(1, int(np.ceil(span / step - 1e-9)))
    pad = (span - n * step) / 2.0
    return lo + pad + step * (np.arange(n) + 0.5)


def _pol_block(a: np.ndarray, arrays: ArrayConfig, pol: str) -> np.ndarray:
    """A per-polarization steering vector (or matrix) as is in co-pol mode;
    in cross-pol mode zero-padded into the pol's block of twice its length."""
    if arrays.polarization_mode == "co":
        return a
    n = a.shape[0]
    v = np.zeros((2 * n,) + a.shape[1:], dtype=complex)
    lo = 0 if pol == "v" else n
    v[lo:lo + n] = a
    return v


def tx_beam_vector(arrays: ArrayConfig, pol: str, mu_x, mu_y) -> np.ndarray:
    """Transmit beam steered at (mu_x, mu_y); equal-length 1-D arrays give
    one column per pair (see upa_steering)."""
    return _pol_block(upa_steering(mu_x, mu_y, arrays.n_x, arrays.n_y), arrays, pol)


def rx_beam_vector(arrays: ArrayConfig, pol: str, nu: float) -> np.ndarray:
    return _pol_block(ula_steering(nu, arrays.m_tot), arrays, pol)


def _pols(arrays: ArrayConfig) -> tuple[str, ...]:
    return ("v", "h") if arrays.polarization_mode == "cross" else ("v",)


@dataclass(frozen=True)
class AxisBook:
    """One axis of a codebook set as arrays, built once. Column i of `matrix`
    and boresights[i] belong to beams[i] (vertical beams first, boresights
    increasing per polarization). Pair table row k is the pair with per-axis
    id k: members pairs[k] = (low, low + 1), center centers[k], offset
    `delta`. members[i, b] is the id of the pair with beam i as member b, or
    -1."""

    beams: tuple[Beam, ...]
    matrix: np.ndarray
    boresights: np.ndarray
    pairs: np.ndarray
    centers: np.ndarray
    delta: float
    members: np.ndarray

    def pair(self, k: int, abp_id: int | None = None) -> AuxiliaryBeamPair:
        """Row k of the pair table as a pair object, with id k by default."""
        lo, hi = self.pairs[k].tolist()
        return AuxiliaryBeamPair(abp_id=k if abp_id is None else abp_id,
                                 beams=(self.beams[lo], self.beams[hi]),
                                 axis=self.beams[lo].axis,
                                 center_mu=float(self.centers[k]), delta=self.delta)


def _axis_book(cfg: CodebookConfig, axis: str, other_mu: float | None = None) -> AxisBook:
    """Beam grid of one axis, one steering call per polarization; transmit
    beams hold the other transmit axis at `other_mu`. In cross mode the
    range is split in half, vertical beams below the midpoint."""
    arrays = cfg.arrays
    lo, hi = cfg.mu_range(axis)
    step = 2 * cfg.delta(axis)
    mid = 0.5 * (lo + hi)
    cross = arrays.polarization_mode == "cross"
    halves = {"v": (lo, mid), "h": (mid, hi)} if cross else {"v": (lo, hi)}
    blocks, mus, pols = [], [], []
    for pol, (plo, phi) in halves.items():
        grid = _grid(plo, phi, step)
        if axis == "receive":
            blocks.append(rx_beam_vector(arrays, pol, grid))
        else:
            fixed = np.full(len(grid), other_mu)
            blocks.append(tx_beam_vector(arrays, pol, *(
                (grid, fixed) if axis == "elevation" else (fixed, grid))))
        mus += grid.tolist()
        pols += [pol] * len(grid)
    matrix = np.hstack(blocks)
    beams = tuple(Beam(vector=matrix[:, i], polarization=pol, axis=axis,
                       boresight_mu=mu, index=i)
                  for i, (pol, mu) in enumerate(zip(pols, mus)))
    boresights = np.array(mus)
    low = np.flatnonzero(np.array(pols[1:]) == np.array(pols[:-1]))
    members = np.full((len(pols), 2), -1)
    members[low, 0] = members[low + 1, 1] = np.arange(len(low))
    return AxisBook(beams=beams, matrix=matrix, boresights=boresights,
                    pairs=np.column_stack([low, low + 1]),
                    centers=0.5 * (boresights[low] + boresights[low + 1]),
                    delta=cfg.delta(axis), members=members)


@dataclass(frozen=True)
class CodebookSet:
    """Per-axis beam books plus the sweep's transmit grid: one column per
    same-polarization (elevation, azimuth) beam pair, indices grid_el/grid_az."""

    config: CodebookConfig
    books: dict[str, AxisBook]
    grid: np.ndarray
    grid_el: np.ndarray
    grid_az: np.ndarray

    @property
    def pols(self) -> tuple[str, ...]:
        return _pols(self.config.arrays)

    def domain(self, axis: str) -> dict[str, list[Beam]]:
        return {pol: [b for b in self.books[axis].beams if b.polarization == pol]
                for pol in self.pols}

    def repointed(self, az_mu: float) -> "CodebookSet":
        """The set with its elevation beams steered at azimuth frequency
        az_mu in place of the azimuth range center. Nothing else depends on
        that value (the sweep grid steers both frequencies), so the other
        books and the grid are shared."""
        books = dict(self.books, elevation=_axis_book(self.config, "elevation", az_mu))
        return replace(self, books=books)


def build_codebooks(cfg: CodebookConfig) -> CodebookSet:
    """Build per-domain beam grids. Transmit azimuth beams steer the azimuth
    frequency at the elevation range center and elevation beams the
    elevation frequency at the azimuth range center (`repointed` steers them
    elsewhere). The sweep grid steers both frequencies."""
    books = {"elevation": _axis_book(cfg, "elevation", 0.5 * sum(cfg.az_range)),
             "azimuth": _axis_book(cfg, "azimuth", 0.5 * sum(cfg.el_range)),
             "receive": _axis_book(cfg, "receive")}
    el, az = books["elevation"], books["azimuth"]
    cols, grid_el, grid_az = [], [], []
    for pol in _pols(cfg.arrays):
        e = [b.index for b in el.beams if b.polarization == pol]
        a = [b.index for b in az.beams if b.polarization == pol]
        grid_el.append(np.repeat(e, len(a)))
        grid_az.append(np.tile(a, len(e)))
        cols.append(tx_beam_vector(cfg.arrays, pol, el.boresights[grid_el[-1]],
                                   az.boresights[grid_az[-1]]))
    return CodebookSet(config=cfg, books=books, grid=np.hstack(cols),
                       grid_el=np.concatenate(grid_el),
                       grid_az=np.concatenate(grid_az))


def enumerate_abps(codebooks: CodebookSet, axis: str | None = None) -> list[AuxiliaryBeamPair]:
    """The pair tables as pair objects: adjacent same-polarization beams. Ids
    run over domains in (elevation, azimuth, receive) order, vertical first,
    increasing boresight."""
    pairs: list[AuxiliaryBeamPair] = []
    for ax in AXES if axis is None else (axis,):
        book = codebooks.books[ax]
        pairs += [book.pair(k, len(pairs) + k) for k in range(len(book.pairs))]
    return pairs


@dataclass
class ProbingPlan:
    """Beams of each transmit and receive probing, one per RF chain."""

    tx_beams: list[list[Beam]]
    rx_beams: list[list[Beam]]

    @property
    def n_t(self) -> int:
        return len(self.tx_beams)

    @property
    def m_t(self) -> int:
        return len(self.rx_beams)

    @property
    def n_rf(self) -> int:
        return len(self.tx_beams[0])

    @property
    def m_rf(self) -> int:
        return len(self.rx_beams[0])

    def iterations(self) -> int:
        """Multi-RF complexity accounting: RF chains times probings on each
        side."""
        return self.n_rf * self.n_t * self.m_rf * self.m_t


def _fill_bucket(beams: list[Beam], n_probings: int, slots_per: int,
                 rng: np.random.Generator) -> list[list[Beam]]:
    size = len(beams)
    if slots_per > size:
        raise InfeasibleCoverage(
            f"{slots_per} distinct columns requested from a {size}-beam codebook")
    total = n_probings * slots_per
    if total < size:
        raise InfeasibleCoverage(
            f"{total} slots cannot cover {size} beams; increase probings or RF chains")
    pool: list[Beam] = list(beams)
    while len(pool) < total:
        pool.append(beams[rng.integers(size)])
    pool = [pool[i] for i in rng.permutation(total)]

    out: list[list[Beam]] = []
    for _ in range(n_probings):
        probing: list[Beam] = []
        i = 0
        while len(probing) < slots_per and i < len(pool):
            if pool[i] in probing:
                i += 1
            else:
                probing.append(pool.pop(i))
        # duplicates can strand pool items behind a same-beam pick; top up
        # from the codebook (any stranded item already appears in `probing`,
        # so coverage is not lost)
        for beam in beams:
            if len(probing) == slots_per:
                break
            if beam not in probing:
                probing.append(beam)
        out.append(probing)
    return out


def random_probing_plan(codebooks: CodebookSet, n_t: int, m_t: int, n_rf: int,
                        m_rf: int, seed: int | None = None, *,
                        layout: str = "split-half",
                        tx_axis: str = "azimuth") -> ProbingPlan:
    """Randomized probing matrices with distinct columns per probing and a
    coverage pass that probes every codebook beam at least once; a slot
    budget too small to cover the codebook raises InfeasibleCoverage. layout
    'split-half' puts vertical beams in the first half of the columns and
    horizontal in the second (cross mode); 'free' draws from the merged
    codebook."""
    rng = np.random.default_rng(seed)
    cross = codebooks.config.arrays.polarization_mode == "cross"

    def side(axis: str, probings: int, rf: int) -> list[list[Beam]]:
        if cross and layout == "split-half":
            if rf % 2:
                raise ValueError("split-half layout needs an even RF chain count")
            dom = codebooks.domain(axis)
            v = _fill_bucket(dom["v"], probings, rf // 2, rng)
            h = _fill_bucket(dom["h"], probings, rf // 2, rng)
            return [v[i] + h[i] for i in range(probings)]
        return _fill_bucket(codebooks.books[axis].beams, probings, rf, rng)

    return ProbingPlan(tx_beams=side(tx_axis, n_t, n_rf),
                       rx_beams=side("receive", m_t, m_rf))

