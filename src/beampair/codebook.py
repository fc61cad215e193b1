"""Steering codebooks, beam pairs, and randomized probing plans.

Beam grids are uniform in spatial frequency with adjacent boresights spaced
two offsets apart, so every adjacent same-polarization pair straddles a
common center at +-delta. In cross-polarized mode each domain's coverage
range is split in half, vertical beams covering the lower half and
horizontal the upper half, and beam vectors are zero-padded outside their
polarization block.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import ArrayConfig, ula_steering, upa_steering


class EmptyRange(ValueError):
    pass


class InfeasibleCoverage(ValueError):
    pass


AXES = ("elevation", "azimuth", "receive")


@dataclass(frozen=True)
class Beam:
    vector: np.ndarray
    polarization: str
    axis: str
    boresight_mu: float
    index: int
    fixed_mu: float | None = None

    def __hash__(self):
        return hash((self.polarization, self.axis, self.index))

    def __eq__(self, other):
        if not isinstance(other, Beam):
            return NotImplemented
        return (self.polarization, self.axis, self.index) == \
            (other.polarization, other.axis, other.index)


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
    if span <= 0:
        raise EmptyRange("coverage range must have positive width")
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


@dataclass
class CodebookSet:
    config: CodebookConfig
    tx_el: dict[str, list[Beam]] = field(default_factory=dict)
    tx_az: dict[str, list[Beam]] = field(default_factory=dict)
    rx: dict[str, list[Beam]] = field(default_factory=dict)

    @property
    def pols(self) -> tuple[str, ...]:
        return ("v", "h") if self.config.arrays.polarization_mode == "cross" else ("v",)

    def domain(self, axis: str) -> dict[str, list[Beam]]:
        return {"elevation": self.tx_el, "azimuth": self.tx_az, "receive": self.rx}[axis]

    def all_beams(self, axis: str) -> list[Beam]:
        dom = self.domain(axis)
        return [b for pol in self.pols for b in dom[pol]]


def build_codebooks(cfg: CodebookConfig, fixed_el_mu: float | None = None,
                    fixed_az_mu: float | None = None) -> CodebookSet:
    """Build per-domain beam grids. Transmit azimuth beams steer the azimuth
    frequency at a fixed elevation frequency (range center by default) and
    vice versa; the fixed values can be overridden, e.g. to re-point the
    elevation sweep at an azimuth estimate."""
    arrays = cfg.arrays
    cross = arrays.polarization_mode == "cross"
    el_fix = fixed_el_mu if fixed_el_mu is not None else 0.5 * sum(cfg.el_range)
    az_fix = fixed_az_mu if fixed_az_mu is not None else 0.5 * sum(cfg.az_range)
    out = CodebookSet(config=cfg)

    for axis in AXES:
        lo, hi = cfg.mu_range(axis)
        if hi <= lo:
            raise EmptyRange(f"{axis} range is empty")
        step = 2 * cfg.delta(axis)
        dom = out.domain(axis)
        if cross:
            mid = 0.5 * (lo + hi)
            halves = {"v": (lo, mid), "h": (mid, hi)}
        else:
            halves = {"v": (lo, hi)}
        idx = 0
        for pol, (plo, phi) in halves.items():
            beams = []
            for mu in _grid(plo, phi, step):
                if axis == "receive":
                    vec = rx_beam_vector(arrays, pol, mu)
                    fixed = None
                elif axis == "azimuth":
                    vec = tx_beam_vector(arrays, pol, el_fix, mu)
                    fixed = el_fix
                else:
                    vec = tx_beam_vector(arrays, pol, mu, az_fix)
                    fixed = az_fix
                beams.append(Beam(vector=vec, polarization=pol, axis=axis,
                                  boresight_mu=float(mu), index=idx, fixed_mu=fixed))
                idx += 1
            dom[pol] = beams
    return out


def enumerate_abps(codebooks: CodebookSet, axis: str | None = None) -> list[AuxiliaryBeamPair]:
    """Sliding adjacent-beam pairs within each polarization. Ids run over
    domains in (elevation, azimuth, receive) order, vertical first, increasing
    boresight; pairs never mix polarizations."""
    axes = AXES if axis is None else (axis,)
    pairs: list[AuxiliaryBeamPair] = []
    next_id = 0
    for ax in axes:
        dom = codebooks.domain(ax)
        delta = codebooks.config.delta(ax)
        for pol in codebooks.pols:
            beams = sorted(dom[pol], key=lambda b: b.boresight_mu)
            for lo_beam, hi_beam in zip(beams, beams[1:]):
                center = 0.5 * (lo_beam.boresight_mu + hi_beam.boresight_mu)
                pairs.append(AuxiliaryBeamPair(
                    abp_id=next_id, beams=(lo_beam, hi_beam), axis=ax,
                    center_mu=center, delta=delta))
                next_id += 1
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
    order = rng.permutation(total)
    pool = [pool[i] for i in order]

    out: list[list[Beam]] = []
    for _ in range(n_probings):
        probing: list[Beam] = []
        used: set[Beam] = set()
        i = 0
        while len(probing) < slots_per and i < len(pool):
            if pool[i] in used:
                i += 1
            else:
                beam = pool.pop(i)
                probing.append(beam)
                used.add(beam)
        # duplicates can strand pool items behind a same-beam pick; top up
        # from the codebook (any stranded item already appears in `probing`,
        # so coverage is not lost)
        for beam in beams:
            if len(probing) == slots_per:
                break
            if beam not in used:
                probing.append(beam)
                used.add(beam)
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
    tx_dom = codebooks.domain(tx_axis)
    rx_dom = codebooks.rx

    def side(dom: dict[str, list[Beam]], probings: int, rf: int) -> list[list[Beam]]:
        if cross and layout == "split-half":
            if rf % 2:
                raise ValueError("split-half layout needs an even RF chain count")
            v = _fill_bucket(dom["v"], probings, rf // 2, rng)
            h = _fill_bucket(dom["h"], probings, rf // 2, rng)
            return [v[i] + h[i] for i in range(probings)]
        merged = [b for pol in codebooks.pols for b in dom[pol]]
        return [list(p) for p in _fill_bucket(merged, probings, rf, rng)]

    tx = side(tx_dom, n_t, n_rf)
    rx = side(rx_dom, m_t, m_rf)
    return ProbingPlan(tx_beams=tx, rx_beams=rx)


def dump_codebook_csv(codebooks: CodebookSet, path: str) -> None:
    """Debug dump: one row per beam, boresights in degrees."""
    lines = ["domain,index,polarization,boresight_deg"]
    for axis in AXES:
        for beam in codebooks.all_beams(axis):
            lines.append(f"{axis},{beam.index},{beam.polarization},"
                         f"{np.degrees(beam.boresight_mu):.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
