"""Experiment families: configuration, Monte-Carlo execution, CSV output.

Config files are flat key=value text with dotted section prefixes; unset
keys fall back to the evaluated defaults (half-power offsets, 120/90/180
degree sectors, K = 13.2 dB, chi = 0.2, mismatch 20 degrees, shift spacing
p = 6, roots 25/29/34, 3-bit differential quantizer).

Each family is a setup -> trial -> reduce declaration (Family) run by one
loop, which alone draws the per-trial RNG streams from a counter scheme:
SeedSequence([master_seed, family_id, point_index, trial]).
"""

import csv
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from .channel import (ClusterProfile, OfdmConfig, clustered_channel_generate,
                      rician_narrowband)
from .codebook import (AXES, CodebookConfig, CodebookSet, build_codebooks,
                       enumerate_abps, random_probing_plan)
from .estimator import (_noise_like, estimate_multipath, estimate_single_path,
                        gob_estimate)
from .feedback import (quantize_differential, quantize_direct, reconstruct,
                       worst_case_error)
from .geometry import (AngleSet, ArrayConfig, angles_from_spatial_frequencies,
                       aoa_from_nu, spatial_frequencies)
from .metrics import (OverheadModel, build_rf_beamformers, ci95, maee,
                      normalized_spectral_efficiency, spectral_efficiency)
from .pilot import (COPRIME_WITH, assign_pilots, correlate_zero_lag,
                    zc_sequence)

EXPERIMENTS = ("maee_vs_snr", "maqe_bits", "pilot_correlation", "pilot_vs_tdm",
               "norm_se_vs_snr", "robustness_mismatch", "robustness_xpd")

# Family ids in the per-trial RNG streams. Fixed here, not derived from the
# position in EXPERIMENTS, so adding or reordering families moves no stream.
FAMILY_IDS = {"maee_vs_snr": 0, "maqe_bits": 1, "pilot_correlation": 2,
              "pilot_vs_tdm": 3, "norm_se_vs_snr": 4, "robustness_mismatch": 5,
              "robustness_xpd": 6}

# positional pairing of stream count with the probing totals used in the
# complexity accounting
STREAMS_TO_PROBINGS = {2: (20, 20), 3: (30, 25)}


class ConfigError(ValueError):
    pass


class ParseError(ValueError):
    pass


class IoError(OSError):
    pass


def parse_snr_grid(text: str) -> tuple:
    """'start:step:stop' inclusive, or a comma list, or a single value."""
    text = text.strip()
    if ":" in text:
        parts = text.replace("−", "-").split(":")
        if len(parts) != 3:
            raise ParseError(f"snr grid {text!r} is not start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ParseError("snr grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + step * i for i in range(count))
    if "," in text:
        return tuple(float(p) for p in text.split(","))
    return (float(text),)


def _parse_pair(text: str) -> tuple:
    parts = text.replace("−", "-").split(":")
    if len(parts) != 2:
        raise ParseError(f"range {text!r} is not lo:hi")
    return (float(parts[0]), float(parts[1]))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"{text!r} is not a boolean")


def _parse_ints(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _key(section: str | None, parse, default=None):
    """A config field, read from key '<section>.<field name>' (the bare field
    name when section is None) and parsed from its text by `parse`."""
    return field(default=default, metadata={"section": section, "parse": parse})


@dataclass
class ExperimentConfig:
    experiment: str = _key(None, str, "maee_vs_snr")
    trials: int = _key(None, int, 500)
    seed: int = _key(None, int, 1)
    snr_db: tuple = _key(None, parse_snr_grid, (10.0, 15.0, 20.0))
    n_x: int = _key("arrays", int, 4)
    n_y: int = _key("arrays", int, 8)
    m_tot: int = _key("arrays", int, 4)
    polarization: str | None = _key("arrays", str)  # family default when unset
    k_factor_db: float = _key("channel", float, 13.2)
    n_nlos: int = _key("channel", int, 5)
    bandwidth: str = _key("channel", str, "125mhz")
    n_clusters: int = _key("channel", int, 3)
    subpaths: int = _key("channel", int, 1)
    chi: float = _key("channel", float, 0.2)
    varsigma_deg: float = _key("channel", float, 20.0)
    # coverage in spatial-frequency degrees
    az_range_deg: tuple = _key("codebook", _parse_pair, (-60.0, 60.0))
    el_range_deg: tuple = _key("codebook", _parse_pair, (-45.0, 45.0))
    rx_range_deg: tuple = _key("codebook", _parse_pair, (-90.0, 90.0))
    delta_mode: str = _key("codebook", str, "half-power")
    ell: int = _key("codebook", int, 1)
    p: int = _key("pilot", int, 6)
    roots: tuple | None = _key("pilot", _parse_ints)
    coprime_with: str = _key("pilot", str, "n")
    dc_zero: bool = _key("pilot", _parse_bool, False)
    bits: int = _key("quantizer", int, 3)
    epsilon_t: int = _key("overhead", int, 1000)
    t_tot: int = _key("overhead", int, 200)
    n_bm: int = _key("overhead", int, 10)
    m_bm: int = _key("overhead", int, 4)
    n_s: int = _key("overhead", int, 3)
    n_tx_total: int | None = _key("overhead", int)
    m_rx_total: int | None = _key("overhead", int)
    n_t: int | None = _key("probing", int)
    m_t: int | None = _key("probing", int)
    n_select: int | None = _key("probing", int)
    plots: bool = _key(None, _parse_bool, True)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.snr_db:
            raise ConfigError("snr grid is empty")
        if self.coprime_with not in COPRIME_WITH:
            raise ConfigError(f"pilot.coprime_with must be one of {COPRIME_WITH}")
        if self.n_s < 1:
            raise ConfigError("overhead.n_s must be >= 1")
        if self.bits < 1:
            raise ConfigError("quantizer.bits must be >= 1")
        try:  # the array, codebook and overhead settings validate themselves
            _codebook_config(self, _arrays(self, "co"))
            OverheadModel(epsilon_t=self.epsilon_t, t_tot=self.t_tot)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def validate_config(raw: str) -> ExperimentConfig:
    """Parse the flat key=value text format; empty input yields the default
    configuration."""
    by_key = {".".join(filter(None, (f.metadata["section"], f.name))): f
              for f in fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in by_key:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        try:
            values[by_key[key].name] = by_key[key].metadata["parse"](val)
        except ParseError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return validate_config(fh.read())


@dataclass
class ResultTable:
    name: str
    columns: list
    rows: list = field(default_factory=list)

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError("row width does not match columns")
        self.rows.append(tuple(row))


def emit_outputs(table: ResultTable, out_dir: str) -> str:
    """Write one table as UTF-8 CSV with a header row; returns the path."""
    if not table.rows:
        raise IoError(f"table {table.name} is empty")
    path = os.path.join(out_dir, f"{table.name}.csv")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.columns)
            writer.writerows(table.rows)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return path


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _trial_rng(cfg: ExperimentConfig, point: int, trial: int) -> np.random.Generator:
    fam = FAMILY_IDS[cfg.experiment]
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, fam, point, trial]))


def _arrays(cfg: ExperimentConfig, default_pol: str) -> ArrayConfig:
    return ArrayConfig(n_x=cfg.n_x, n_y=cfg.n_y, m_tot=cfg.m_tot,
                       polarization_mode=cfg.polarization or default_pol)


def _codebook_config(cfg: ExperimentConfig, arrays: ArrayConfig) -> CodebookConfig:
    rad = np.radians
    return CodebookConfig(
        arrays=arrays,
        el_range=(rad(cfg.el_range_deg[0]), rad(cfg.el_range_deg[1])),
        az_range=(rad(cfg.az_range_deg[0]), rad(cfg.az_range_deg[1])),
        rx_range=(rad(cfg.rx_range_deg[0]), rad(cfg.rx_range_deg[1])),
        delta_mode=cfg.delta_mode, ell=cfg.ell)


def _codebooks(cfg: ExperimentConfig, arrays: ArrayConfig,
               paired=()) -> CodebookSet:
    """The family's codebook set. Every beam of a `paired` axis, one on which
    the trials pair a beam with a neighbour, must belong to a pair."""
    cbs = build_codebooks(_codebook_config(cfg, arrays))
    for axis in paired:
        lone = np.flatnonzero((cbs.books[axis].members < 0).all(axis=1))
        if lone.size:
            raise ConfigError(f"{axis} beams {lone.tolist()} belong to no pair")
    return cbs


def _draw_in_spans(rng, spans) -> float:
    widths = np.array([hi - lo for lo, hi in spans])
    i = rng.choice(len(spans), p=widths / widths.sum()) if len(spans) > 1 else 0
    return float(rng.uniform(*spans[i]))


def _span(codebooks, axis: str) -> tuple:
    """Lowest to highest boresight of one axis, across polarizations."""
    mus = codebooks.books[axis].boresights
    return (float(mus.min()), float(mus.max()))


def _cluster_profile(cfg: ExperimentConfig, codebooks, n_clusters: int) -> ClusterProfile:
    """Clustered-channel profile whose path directions span the codebooks'
    coverage."""
    return ClusterProfile(
        n_clusters=n_clusters, subpaths_per_cluster=cfg.subpaths,
        mu_y_range=_span(codebooks, "azimuth"),
        mu_x_range=_span(codebooks, "elevation"),
        nu_range=_span(codebooks, "receive"),
        chi=cfg.chi, varsigma=math.radians(cfg.varsigma_deg))


# ---------------------------------------------------------------------------
# families: setup(cfg) -> trial(setup, point, rng) -> reduce(setup, results)

_DOMAINS = ("elevation", "azimuth", "receive", "theta", "phi", "psi")


def _maee_setup(cfg: ExperimentConfig):
    arrays = _arrays(cfg, "co")
    if arrays.polarization_mode != "co":  # the Rician channel is co-polarized
        raise ConfigError("maee_vs_snr needs co-polarized arrays")
    cbs = _codebooks(cfg, arrays, paired=AXES)
    return SimpleNamespace(
        cfg=cfg, points=cfg.snr_db, arrays=arrays, cbs=cbs,
        # every beam pairs, so each polarization spans an interval of its own
        cov={ax: [(beams[0].boresight_mu, beams[-1].boresight_mu)
                  for beams in cbs.domain(ax).values()] for ax in AXES},
        nlos_ranges={"mu_x": _span(cbs, "elevation"), "mu_y": _span(cbs, "azimuth"),
                     "nu": _span(cbs, "receive")})


def _maee_trial(s, snr: float, rng) -> list:
    """True, ABP-estimated and GoB-estimated directions in _DOMAINS order."""
    mu_x = _draw_in_spans(rng, s.cov["elevation"])
    mu_y = _draw_in_spans(rng, s.cov["azimuth"])
    nu = _draw_in_spans(rng, s.cov["receive"])
    while mu_x == 0.0 and mu_y == 0.0:
        mu_x = _draw_in_spans(rng, s.cov["elevation"])
    truth = AngleSet(*angles_from_spatial_frequencies(mu_x, mu_y, s.arrays),
                     aoa_from_nu(nu, s.arrays))
    chan = rician_narrowband(s.arrays, truth, s.cfg.k_factor_db, s.cfg.n_nlos,
                             rng, s.nlos_ranges)
    out = [(mu_x, mu_y, nu, truth.theta, truth.phi, truth.psi)]
    for est_fn in (estimate_single_path, gob_estimate):
        est = est_fn(chan, s.cbs, 10.0 ** (snr / 10.0), rng).best
        out.append((est.mu_x, est.mu_y, est.nu, est.theta, est.phi, est.psi))
    return out


def _maee_reduce(s, results):
    table = ResultTable("maee_vs_snr",
                        ["snr_db", "scheme", "domain", "maee_deg", "ci95"])
    for snr, trials in zip(s.points, results):
        deg = np.degrees(np.array(trials))  # (trial, truth/abp/gob, domain)
        for i, sch in enumerate(("abp", "gob"), start=1):
            for d, dom in enumerate(_DOMAINS):
                t_arr, e_arr = deg[:, 0, d], deg[:, i, d]
                table.add(_fmt(snr), sch, dom, _fmt(maee(t_arr, e_arr)),
                          _fmt(ci95(np.abs(e_arr - t_arr))))
    return {"maee_vs_snr": table}


_MAQE_N_Y = (8, 16)


def _maqe_setup(cfg: ExperimentConfig):
    """One point per transmit array width: its azimuth book."""
    books = [_codebooks(cfg, ArrayConfig(n_x=cfg.n_x, n_y=n_y, m_tot=cfg.m_tot),
                        paired=("azimuth",)).books["azimuth"]
             for n_y in _MAQE_N_Y]
    return SimpleNamespace(
        cfg=cfg, points=books,
        sector=(math.radians(cfg.az_range_deg[0]), math.radians(cfg.az_range_deg[1])))


def _maqe_trial(s, book, rng) -> tuple:
    """Differential and direct quantization errors of one draw."""
    center = float(book.centers[rng.integers(len(book.centers))])
    mu = center + rng.uniform(-book.delta, book.delta)
    word = quantize_differential(mu, center, book.delta, s.cfg.bits)
    word_d = quantize_direct(mu, s.sector, s.cfg.bits + 1)
    return abs(reconstruct(word) - mu), abs(reconstruct(word_d) - mu)


def _maqe_reduce(s, results):
    bits = s.cfg.bits
    deg = np.degrees
    table = ResultTable("maqe_bits",
                        ["n_y", "scheme", "bits_total", "metric", "value_deg"])
    for n_y, book, trials in zip(_MAQE_N_Y, s.points, results):
        diff_errs, direct_errs = zip(*trials)
        table.add(n_y, "differential", bits + 1, "maqe_deg",
                  _fmt(float(deg(np.mean(diff_errs)))))
        table.add(n_y, "direct", bits + 1, "maqe_deg",
                  _fmt(float(deg(np.mean(direct_errs)))))
        # dense worst-case sweep across one pair interval
        offs = np.linspace(-book.delta, book.delta, (2 ** bits) * 512 + 1)
        center = float(book.centers[0])
        worst = max(abs(reconstruct(quantize_differential(center + o, center,
                                                          book.delta, bits))
                        - (center + o)) for o in offs)
        table.add(n_y, "differential", bits + 1, "worst_case_deg",
                  _fmt(float(deg(worst))))
        table.add(n_y, "differential", bits + 1, "worst_case_bound_deg",
                  _fmt(float(deg(worst_case_error(book.delta, bits)))))
    return {"maqe_bits": table}


def fig_pilot_tags(pairs):
    """The four-beam tagging: one complete vertical pair plus one member each
    of two different horizontal pairs."""
    v_pairs = [p for p in pairs if p.polarization == "v"]
    h_pairs = [p for p in pairs if p.polarization == "h"]
    if not v_pairs or len(h_pairs) < 2:
        raise ConfigError("need at least one vertical and two horizontal pairs")
    picks = [(v_pairs[0], 0), (v_pairs[0], 1), (h_pairs[0], 0), (h_pairs[-1], 1)]
    return [p.beams[b] for p, b in picks], [(p.abp_id, b) for p, b in picks]


def _correlation_setup(cfg: ExperimentConfig):
    """Four-beam reference configuration: roots 25/25/29/34, shifts 0/1/0/1,
    correlated against the {25, b=1} reference. Reported for both the even
    block length 512 (root 34 needs the n_minus_1 validity variant there) and
    the odd analytic length 511 where distinct-root crosses sit at 1/sqrt(n).
    No trials: the setup builds the table."""
    table = ResultTable("pilot_correlation",
                        ["n", "beam", "root", "b", "abs_corr"])
    for n, variant in ((512, "n_minus_1"), (511, "n")):
        ref = zc_sequence(25, 1, cfg.p, n, coprime_with=variant)
        for i, (root, b) in enumerate(((25, 0), (25, 1), (29, 0), (34, 1)), start=1):
            seq = zc_sequence(root, b, cfg.p, n, coprime_with=variant)
            val = abs(np.sum(seq * ref.conj())) / n
            table.add(n, i, root, b, _fmt(float(val)))
    return SimpleNamespace(points=[], tables={"pilot_correlation": table})


def _tdm_setup(cfg: ExperimentConfig):
    arrays = _arrays(cfg, "cross")
    if arrays.polarization_mode != "cross":
        raise ConfigError("pilot_vs_tdm needs cross-polarized arrays")
    ofdm = OfdmConfig.profile(cfg.bandwidth)
    cbs = _codebooks(cfg, arrays)
    beams, tags = fig_pilot_tags(enumerate_abps(cbs, "azimuth"))
    pilots = assign_pilots(sorted({a for a, _ in tags}), ofdm.n_subcarriers,
                           root_pool=cfg.roots, p=cfg.p,
                           coprime_with=cfg.coprime_with, dc_zero=cfg.dc_zero)
    # single-RF combiner spanning both polarization element groups so the
    # horizontally polarized probing beams are not leakage-suppressed
    mid_v, mid_h = (b[len(b) // 2].vector for b in cbs.domain("receive").values())
    return SimpleNamespace(
        cfg=cfg, points=[cfg.snr_db[0]], arrays=arrays, ofdm=ofdm, tags=tags,
        roots=[pilots.roots[a] for a, _ in tags],
        x=pilots.references(tags),  # (N, beam)
        f=np.column_stack([b.vector for b in beams]),
        w=(mid_v + mid_h) / np.sqrt(2),
        profile=_cluster_profile(cfg, cbs, cfg.n_clusters))


def _tdm_trial(s, snr: float, rng) -> tuple:
    """Per-beam correlation amplitudes of the pilot and the TDM scheme."""
    sigma = math.sqrt(1.0 / 10.0 ** (snr / 10.0))
    n = s.ofdm.n_subcarriers
    chan = clustered_channel_generate(s.profile, rng, s.arrays, s.ofdm)
    # w* H[k] f x[k] per beam: the noiseless TDM slots, summed for the pilot
    y_beam = chan.beamformed(s.w[:, None], s.f)[:, 0, :] * s.x
    noise = _noise_like(n, sigma, rng, batch=(1 + len(s.tags),))  # pilot, then slots
    y_pilot = y_beam.sum(axis=1) + noise[0]
    y_tdm = y_beam + noise[1:].T
    return (np.abs(correlate_zero_lag(y_pilot, s.x, normalized=True)),
            np.abs(np.diag(correlate_zero_lag(y_tdm, s.x, normalized=True))))


def _tdm_reduce(s, results):
    [trials] = results
    pilot, tdm = (sum(amps, np.zeros(len(s.tags))) for amps in zip(*trials))
    table = ResultTable("pilot_vs_tdm",
                        ["beam", "root", "b", "scheme", "mean_amplitude",
                         "rel_diff"])
    for i, (root, (_, b)) in enumerate(zip(s.roots, s.tags)):
        s_p = float(pilot[i] / len(trials))
        s_t = float(tdm[i] / len(trials))
        rel = abs(s_p - s_t) / s_t if s_t > 0 else math.inf
        table.add(i + 1, root, b, "pilot", _fmt(s_p), _fmt(rel))
        table.add(i + 1, root, b, "tdm", _fmt(s_t), _fmt(rel))
    return {"pilot_vs_tdm": table}


def _rate_setup(cfg: ExperimentConfig):
    """What the rate families' trials share: codebooks whose azimuth and
    receive beams all pair, pilots, the cluster profile and probing sizes."""
    arrays = _arrays(cfg, "cross")
    # rate families run at desk scale (N=256) in place of the 125mhz default
    ofdm = OfdmConfig(256, 64) if cfg.bandwidth in ("desk", "125mhz") else \
        OfdmConfig.profile(cfg.bandwidth)
    cbs = _codebooks(cfg, arrays, paired=("azimuth", "receive"))
    pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)),
                           ofdm.n_subcarriers, root_pool=cfg.roots,
                           p=None if cfg.p >= ofdm.n_subcarriers // 2 else cfg.p,
                           coprime_with=cfg.coprime_with, dc_zero=cfg.dc_zero)
    merged_az = len(cbs.books["azimuth"].beams)
    merged_rx = len(cbs.books["receive"].beams)
    n_rf, m_rf = min(cfg.n_s, merged_az), min(cfg.n_s, merged_rx)
    n_t = cfg.n_t or max(2, math.ceil(merged_az / n_rf))
    m_t = cfg.m_t or max(2, math.ceil(merged_rx / m_rf))
    # every trial's probing plan must probe every azimuth and receive beam
    for side, slots, beams in (("n_t", n_t * n_rf, merged_az), ("m_t", m_t * m_rf, merged_rx)):
        if slots < beams:
            raise ConfigError(f"probing.{side} gives {slots} slots for {beams} beams")
    return SimpleNamespace(
        cfg=cfg, arrays=arrays, ofdm=ofdm, cbs=cbs, pilots=pilots,
        profile=_cluster_profile(cfg, cbs, max(cfg.n_clusters, cfg.n_s)),
        n_rf=n_rf, m_rf=m_rf, n_t=n_t, m_t=m_t)


def _gob_triples(report, cbs):
    """Boresight-only estimates from the same measurements: the stronger pair
    member per domain, or the elevation range center for a path that formed
    no elevation pair."""
    el_center = 0.5 * sum(cbs.config.el_range)

    def stronger(path, axis: str) -> float:
        if axis not in path.pairs:
            return el_center
        return path.pairs[axis].boresight(0 if path.zetas[axis] >= 0 else 1)

    return [tuple(stronger(path, axis) for axis in AXES) for path in report.paths]


def _rates(s, profile: ClusterProfile, snr: float, rng) -> dict:
    """Spectral efficiency of one channel draw steered at the true dominant
    directions ("perfect"), at the ABP estimates and at the GoB estimates."""
    cfg, gamma = s.cfg, 10.0 ** (snr / 10.0)
    chan = clustered_channel_generate(profile, rng, s.arrays, s.ofdm)
    plan = random_probing_plan(s.cbs, s.n_t, s.m_t, s.n_rf, s.m_rf,
                               int(rng.integers(2 ** 31)), layout="free")
    rep = estimate_multipath(chan, plan, s.pilots, gamma,
                             cfg.n_select or cfg.n_s, rng, codebooks=s.cbs)
    perfect = [spatial_frequencies(ang, s.arrays)
               for ang in chan.dominant_angles[: cfg.n_s]]
    triples = {"perfect": [(sf.mu_x, sf.mu_y, sf.nu) for sf in perfect],
               "abp": [(p.mu_x, p.mu_y, p.nu) for p in rep.paths],
               "gob": _gob_triples(rep, s.cbs)}
    return {name: spectral_efficiency(
        chan, *build_rf_beamformers(dirs, s.arrays, cfg.n_s), gamma, cfg.n_s)
        for name, dirs in triples.items()}


_RATE_COLUMNS = ["experiment", "snr_db", "scheme", "metric", "value", "ci95"]


def _norm_se_setup(cfg: ExperimentConfig):
    s = _rate_setup(cfg)
    if cfg.n_tx_total is not None and cfg.m_rx_total is not None:
        n_tx, m_rx = cfg.n_tx_total, cfg.m_rx_total
    elif cfg.n_s in STREAMS_TO_PROBINGS:
        n_tx, m_rx = STREAMS_TO_PROBINGS[cfg.n_s]
    else:
        raise ConfigError(
            f"no probing totals known for n_s={cfg.n_s}; set overhead.n_tx_total "
            "and overhead.m_rx_total")
    s.iters = {"perfect": 0,
               "abp": OverheadModel.abp_complexity(cfg.n_s, n_tx, cfg.n_s, m_rx),
               "gob": OverheadModel.gob_complexity(cfg.n_bm, cfg.m_bm, cfg.n_s, cfg.n_s)}
    s.points = cfg.snr_db
    s.overhead = OverheadModel(epsilon_t=cfg.epsilon_t, t_tot=cfg.t_tot)
    return s


def _norm_se_reduce(s, results):
    name = s.cfg.experiment
    table = ResultTable("norm_se_vs_snr", _RATE_COLUMNS)
    for snr, trials in zip(s.points, results):
        for sch, iters in s.iters.items():
            vals = np.array([rates[sch] for rates in trials])
            norm = np.array([normalized_spectral_efficiency(v, iters, s.overhead)
                             for v in vals])
            table.add(name, _fmt(snr), sch, "se", _fmt(float(vals.mean())),
                      _fmt(ci95(vals)))
            table.add(name, _fmt(snr), sch, "norm_se",
                      _fmt(float(norm.mean())), _fmt(ci95(norm)))
    for sch in ("abp", "gob"):
        table.add(name, "", sch, "t_est", _fmt(s.overhead.t_est(s.iters[sch])), "0")
    return {"norm_se_vs_snr": table}


# robustness sweeps: the swept cluster-profile field, its values as written in
# the row tags, their conversion to the profile's units, and the config field
# that the sweep replaces
_SWEEPS = {"robustness_mismatch": ("varsigma", (0.0, 10.0, 20.0, 30.0), math.radians,
                                   "varsigma_deg"),
           "robustness_xpd": ("chi", (0.0, 0.1, 0.2, 0.4), float, "chi")}


def _robustness_setup(cfg: ExperimentConfig):
    """One point per sweep value: the cluster profile with that value. The
    swept parameters reach nothing else, so codebooks and pilots are shared.
    The sweep sets the swept field, so a config that sets it too is
    rejected."""
    param, values, to_profile, key = _SWEEPS[cfg.experiment]
    if getattr(cfg, key) != {f.name: f.default for f in fields(ExperimentConfig)}[key]:
        raise ConfigError(f"{cfg.experiment} sweeps channel.{key} over "
                          f"{', '.join(f'{v:g}' for v in values)}; leave it unset")
    s = _rate_setup(cfg)
    s.points = [replace(s.profile, **{param: to_profile(v)}) for v in values]
    return s


def _robustness_reduce(s, results):
    name, snr = s.cfg.experiment, s.cfg.snr_db[0]
    param, values, *_ = _SWEEPS[name]
    table = ResultTable(name, _RATE_COLUMNS)
    for value, trials in zip(values, results):
        gaps = [(r["perfect"] - r["abp"]) / r["perfect"]
                for r in trials if r["perfect"] > 0]
        table.add(name, _fmt(snr), f"{param}_{value:g}", "se_gap_frac",
                  _fmt(float(np.mean(gaps))), _fmt(ci95(gaps)))
    return {name: table}


# An experiment family. setup(cfg) builds once everything the trials share,
# plus `points`, the sweep; trial(setup, point, rng) runs one Monte-Carlo
# trial and returns plain numbers; reduce(setup, results), results[i] being
# point i's trial results in trial order, builds the tables. same_streams:
# every point replays point 0's trial streams, so the points' channels
# differ only in the swept parameter.
Family = namedtuple("Family", "setup trial reduce same_streams", defaults=(False,))
_ROBUSTNESS = Family(
    _robustness_setup, lambda s, profile, rng: _rates(s, profile, s.cfg.snr_db[0], rng),
    _robustness_reduce, same_streams=True)
FAMILIES = {
    "maee_vs_snr": Family(_maee_setup, _maee_trial, _maee_reduce),
    "maqe_bits": Family(_maqe_setup, _maqe_trial, _maqe_reduce),
    "pilot_correlation": Family(_correlation_setup, None, lambda s, _: s.tables),
    "pilot_vs_tdm": Family(_tdm_setup, _tdm_trial, _tdm_reduce),
    "norm_se_vs_snr": Family(
        _norm_se_setup, lambda s, snr, rng: _rates(s, s.profile, snr, rng),
        _norm_se_reduce),
    "robustness_mismatch": _ROBUSTNESS,
    "robustness_xpd": _ROBUSTNESS,
}


def setup_experiment(cfg: ExperimentConfig) -> SimpleNamespace:
    """Run the family's setup and no trial; a value that its constructors or
    its pair check reject raises ConfigError."""
    try:
        return FAMILIES[cfg.experiment].setup(cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _plot_tables(tables: dict, out_dir: str) -> list:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return []
    paths = []
    for name, table in tables.items():
        fig, ax = plt.subplots(figsize=(6, 4))
        try:
            _plot_one(ax, name, table)
        except Exception:
            plt.close(fig)
            continue
        ax.set_title(name)
        fig.tight_layout()
        path = os.path.join(out_dir, f"{name}.png")
        fig.savefig(path)
        plt.close(fig)
        paths.append(path)
    return paths


def _plot_one(ax, name: str, table: ResultTable) -> None:
    cols = {c: i for i, c in enumerate(table.columns)}
    if name == "maee_vs_snr":
        for sch in ("abp", "gob"):
            pts = [(float(r[cols["snr_db"]]), float(r[cols["maee_deg"]]))
                   for r in table.rows
                   if r[cols["scheme"]] == sch and r[cols["domain"]] == "azimuth"]
            ax.plot(*zip(*sorted(pts)), marker="o", label=sch)
        ax.set_xlabel("SNR (dB)")
        ax.set_ylabel("azimuth MAEE (deg)")
        ax.legend()
    elif name in ("norm_se_vs_snr",):
        for sch in ("perfect", "abp", "gob"):
            pts = [(float(r[cols["snr_db"]]), float(r[cols["value"]]))
                   for r in table.rows
                   if r[cols["scheme"]] == sch and r[cols["metric"]] == "norm_se"]
            ax.plot(*zip(*sorted(pts)), marker="o", label=sch)
        ax.set_xlabel("SNR (dB)")
        ax.set_ylabel("normalized SE (bit/s/Hz)")
        ax.legend()
    else:
        labels = [" ".join(str(v) for v in r[:-1]) for r in table.rows]
        vals = []
        for r in table.rows:
            try:
                vals.append(float(r[-1]))
            except ValueError:
                vals.append(0.0)
        ax.bar(range(len(vals)), vals)
        ax.set_xticks(range(len(vals)))
        ax.set_xticklabels(labels, rotation=90, fontsize=5)


def run_experiment(cfg: ExperimentConfig, out_dir: str = ".") -> dict:
    """Run one experiment family: its setup (ConfigError before any output
    directory is made), every trial, then its tables; writes one CSV per
    result table (plus plots when cfg.plots) and returns
    {'tables': ..., 'files': ...}."""
    family = FAMILIES[cfg.experiment]
    s = setup_experiment(cfg)
    os.makedirs(out_dir, exist_ok=True)
    results = [[family.trial(s, point, _trial_rng(cfg, 0 if family.same_streams
                                                  else pi, t))
                for t in range(cfg.trials)]
               for pi, point in enumerate(s.points)]
    tables = family.reduce(s, results)
    files = [emit_outputs(t, out_dir) for t in tables.values()]
    if cfg.plots:
        files += _plot_tables(tables, out_dir)
    return {"tables": tables, "files": files}
