"""Experiment families: configuration, Monte-Carlo execution, CSV output.

Config files are flat key=value text with dotted section prefixes; unset
keys fall back to the evaluated defaults (half-power offsets, 120/90/180
degree sectors, K = 13.2 dB, chi = 0.2, mismatch 20 degrees, shift spacing
p = 6, roots 25/29/34, 3-bit differential quantizer). Per-trial RNG streams
come from a counter scheme: SeedSequence([master_seed, family_id,
point_index, trial]).
"""

import csv
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (ClusterProfile, OfdmConfig, clustered_channel_generate,
                      rician_narrowband)
from .codebook import (AXES, CodebookConfig, build_codebooks, enumerate_abps,
                       random_probing_plan)
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


@dataclass
class ExperimentConfig:
    experiment: str = "maee_vs_snr"
    trials: int = 500
    seed: int = 1
    snr_db: tuple = (10.0, 15.0, 20.0)
    # arrays
    n_x: int = 4
    n_y: int = 8
    m_tot: int = 4
    polarization: str | None = None  # family default when unset
    # channel
    k_factor_db: float = 13.2
    n_nlos: int = 5
    bandwidth: str = "125mhz"
    n_clusters: int = 3
    subpaths: int = 1
    chi: float = 0.2
    varsigma_deg: float = 20.0
    # codebook, coverage in spatial-frequency degrees
    az_range_deg: tuple = (-60.0, 60.0)
    el_range_deg: tuple = (-45.0, 45.0)
    rx_range_deg: tuple = (-90.0, 90.0)
    delta_mode: str = "half-power"
    ell: int = 1
    # pilot
    p: int = 6
    roots: tuple | None = None
    coprime_with: str = "n"
    dc_zero: bool = False
    # quantizer
    bits: int = 3
    # overhead
    epsilon_t: int = 1000
    t_tot: int = 200
    n_bm: int = 10
    m_bm: int = 4
    n_s: int = 3
    n_tx_total: int | None = None
    m_rx_total: int | None = None
    # probing
    n_t: int | None = None
    m_t: int | None = None
    n_select: int | None = None
    plots: bool = True

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
        try:  # the array, codebook and overhead settings validate themselves
            _codebook_config(self, _arrays(self, "co"))
            OverheadModel(epsilon_t=self.epsilon_t, t_tot=self.t_tot)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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


_KEYS = {
    "experiment": ("experiment", str),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "snr_db": ("snr_db", parse_snr_grid),
    "arrays.n_x": ("n_x", int),
    "arrays.n_y": ("n_y", int),
    "arrays.m_tot": ("m_tot", int),
    "arrays.polarization": ("polarization", str),
    "channel.k_factor_db": ("k_factor_db", float),
    "channel.n_nlos": ("n_nlos", int),
    "channel.bandwidth": ("bandwidth", str),
    "channel.n_clusters": ("n_clusters", int),
    "channel.subpaths": ("subpaths", int),
    "channel.chi": ("chi", float),
    "channel.varsigma_deg": ("varsigma_deg", float),
    "codebook.az_range_deg": ("az_range_deg", _parse_pair),
    "codebook.el_range_deg": ("el_range_deg", _parse_pair),
    "codebook.rx_range_deg": ("rx_range_deg", _parse_pair),
    "codebook.delta_mode": ("delta_mode", str),
    "codebook.ell": ("ell", int),
    "pilot.p": ("p", int),
    "pilot.roots": ("roots", _parse_ints),
    "pilot.coprime_with": ("coprime_with", str),
    "pilot.dc_zero": ("dc_zero", _parse_bool),
    "quantizer.bits": ("bits", int),
    "overhead.epsilon_t": ("epsilon_t", int),
    "overhead.t_tot": ("t_tot", int),
    "overhead.n_bm": ("n_bm", int),
    "overhead.m_bm": ("m_bm", int),
    "overhead.n_s": ("n_s", int),
    "overhead.n_tx_total": ("n_tx_total", int),
    "overhead.m_rx_total": ("m_rx_total", int),
    "probing.n_t": ("n_t", int),
    "probing.m_t": ("m_t", int),
    "probing.n_select": ("n_select", int),
    "plots": ("plots", _parse_bool),
}


def validate_config(raw: str) -> ExperimentConfig:
    """Parse the flat key=value text format; empty input yields the default
    configuration."""
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
        if key not in _KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        attr, caster = _KEYS[key]
        try:
            values[attr] = caster(val)
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


def read_table_csv(path: str) -> ResultTable:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [tuple(r) for r in reader]
    return ResultTable(name=os.path.splitext(os.path.basename(path))[0],
                       columns=header, rows=rows)


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


def _pair_coverage(codebooks, axis: str) -> tuple:
    """Interval covered by the pair set: first to last boresight (per
    polarization in cross mode, returned as a list of intervals)."""
    spans = [(beams[0].boresight_mu, beams[-1].boresight_mu)
             for beams in codebooks.domain(axis).values() if len(beams) >= 2]
    mus = codebooks.books[axis].boresights
    return spans or [(float(mus.min()), float(mus.max()))]


def _draw_in_spans(rng, spans) -> float:
    widths = np.array([hi - lo for lo, hi in spans])
    if widths.sum() <= 0:
        return float(spans[0][0])
    i = rng.choice(len(spans), p=widths / widths.sum()) if len(spans) > 1 else 0
    return float(rng.uniform(*spans[i]))


def _span(codebooks, axis: str) -> tuple:
    """First to last boresight of the pair coverage of one axis, across
    polarizations."""
    spans = _pair_coverage(codebooks, axis)
    return (spans[0][0], spans[-1][1])


def _cluster_profile(cfg: ExperimentConfig, codebooks, n_clusters: int,
                     subpaths: int) -> ClusterProfile:
    """Clustered-channel profile whose path directions span the codebooks'
    pair coverage."""
    return ClusterProfile(
        n_clusters=n_clusters, subpaths_per_cluster=subpaths,
        mu_y_range=_span(codebooks, "azimuth"),
        mu_x_range=_span(codebooks, "elevation"),
        nu_range=_span(codebooks, "receive"),
        chi=cfg.chi, varsigma=math.radians(cfg.varsigma_deg))


# ---------------------------------------------------------------------------
# families

def _run_maee(cfg: ExperimentConfig):
    arrays = _arrays(cfg, "co")
    cbs = build_codebooks(_codebook_config(cfg, arrays))
    cov = {ax: _pair_coverage(cbs, ax) for ax in AXES}
    nlos_ranges = {"mu_x": _span(cbs, "elevation"), "mu_y": _span(cbs, "azimuth"),
                   "nu": _span(cbs, "receive")}
    domains = ("elevation", "azimuth", "receive", "theta", "phi", "psi")
    truths = {(s, sch, d): [] for s in cfg.snr_db for sch in ("abp", "gob")
              for d in domains}
    ests = {key: [] for key in truths}
    for pi, snr in enumerate(cfg.snr_db):
        gamma = 10.0 ** (snr / 10.0)
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, pi, t)
            mu_x = _draw_in_spans(rng, cov["elevation"])
            mu_y = _draw_in_spans(rng, cov["azimuth"])
            nu = _draw_in_spans(rng, cov["receive"])
            while mu_x == 0.0 and mu_y == 0.0:
                mu_x = _draw_in_spans(rng, cov["elevation"])
            truth = AngleSet(*angles_from_spatial_frequencies(mu_x, mu_y, arrays),
                             aoa_from_nu(nu, arrays))
            chan = rician_narrowband(arrays, truth, cfg.k_factor_db, cfg.n_nlos,
                                     rng, nlos_ranges)
            true_vals = {"elevation": mu_x, "azimuth": mu_y, "receive": nu,
                         "theta": truth.theta, "phi": truth.phi, "psi": truth.psi}
            for sch, est_fn in (("abp", estimate_single_path), ("gob", gob_estimate)):
                rep = est_fn(chan, cbs, gamma, rng)
                est = rep.best
                est_vals = {"elevation": est.mu_x, "azimuth": est.mu_y,
                            "receive": est.nu, "theta": est.theta,
                            "phi": est.phi, "psi": est.psi}
                for dom in domains:
                    truths[(snr, sch, dom)].append(np.degrees(true_vals[dom]))
                    ests[(snr, sch, dom)].append(np.degrees(est_vals[dom]))
    table = ResultTable("maee_vs_snr",
                        ["snr_db", "scheme", "domain", "maee_deg", "ci95"])
    for snr in cfg.snr_db:
        for sch in ("abp", "gob"):
            for dom in domains:
                key = (snr, sch, dom)
                t_arr = np.array(truths[key])
                e_arr = np.array(ests[key])
                table.add(_fmt(snr), sch, dom, _fmt(maee(t_arr, e_arr)),
                          _fmt(ci95(np.abs(e_arr - t_arr))))
    return {"maee_vs_snr": table}


def _run_maqe(cfg: ExperimentConfig):
    table = ResultTable("maqe_bits",
                        ["n_y", "scheme", "bits_total", "metric", "value_deg"])
    sector = (math.radians(cfg.az_range_deg[0]), math.radians(cfg.az_range_deg[1]))
    for gi, n_y in enumerate((8, 16)):
        arrays = ArrayConfig(n_x=cfg.n_x, n_y=n_y, m_tot=cfg.m_tot)
        cbs = build_codebooks(_codebook_config(cfg, arrays))
        pairs = enumerate_abps(cbs, "azimuth")
        delta = cbs.config.delta("azimuth")
        diff_errs, direct_errs = [], []
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, gi, t)
            pair = pairs[rng.integers(len(pairs))]
            mu = pair.center_mu + rng.uniform(-delta, delta)
            word = quantize_differential(mu, pair.center_mu, delta, cfg.bits)
            diff_errs.append(abs(reconstruct(word) - mu))
            word_d = quantize_direct(mu, sector, cfg.bits + 1)
            direct_errs.append(abs(reconstruct(word_d) - mu))
        deg = np.degrees
        table.add(n_y, "differential", cfg.bits + 1, "maqe_deg",
                  _fmt(float(deg(np.mean(diff_errs)))))
        table.add(n_y, "direct", cfg.bits + 1, "maqe_deg",
                  _fmt(float(deg(np.mean(direct_errs)))))
        # dense worst-case sweep across one pair interval
        offs = np.linspace(-delta, delta, (2 ** cfg.bits) * 512 + 1)
        center = pairs[0].center_mu
        worst = max(abs(reconstruct(quantize_differential(center + o, center,
                                                          delta, cfg.bits))
                        - (center + o)) for o in offs)
        table.add(n_y, "differential", cfg.bits + 1, "worst_case_deg",
                  _fmt(float(deg(worst))))
        table.add(n_y, "differential", cfg.bits + 1, "worst_case_bound_deg",
                  _fmt(float(deg(worst_case_error(delta, cfg.bits)))))
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


def _run_pilot_correlation(cfg: ExperimentConfig):
    """Four-beam reference configuration: roots 25/25/29/34, shifts 0/1/0/1,
    correlated against the {25, b=1} reference. Reported for both the even
    block length 512 (root 34 needs the n_minus_1 validity variant there) and
    the odd analytic length 511 where distinct-root crosses sit at 1/sqrt(n)."""
    tags = [(25, 0), (25, 1), (29, 0), (34, 1)]
    table = ResultTable("pilot_correlation",
                        ["n", "beam", "root", "b", "abs_corr"])
    for n, variant in ((512, "n_minus_1"), (511, "n")):
        ref = zc_sequence(25, 1, cfg.p, n, coprime_with=variant)
        for i, (root, b) in enumerate(tags, start=1):
            seq = zc_sequence(root, b, cfg.p, n, coprime_with=variant)
            val = abs(np.sum(seq * ref.conj())) / n
            table.add(n, i, root, b, _fmt(float(val)))
    return {"pilot_correlation": table}


def _run_pilot_vs_tdm(cfg: ExperimentConfig):
    arrays = _arrays(cfg, "cross")
    if arrays.polarization_mode != "cross":
        raise ConfigError("pilot_vs_tdm needs cross-polarized arrays")
    ofdm = OfdmConfig.profile(cfg.bandwidth)
    cbs = build_codebooks(_codebook_config(cfg, arrays))
    pairs = enumerate_abps(cbs, "azimuth")
    beams, tags = fig_pilot_tags(pairs)
    pilots = assign_pilots(sorted({a for a, _ in tags}), ofdm.n_subcarriers,
                           root_pool=cfg.roots, p=cfg.p,
                           coprime_with=cfg.coprime_with, dc_zero=cfg.dc_zero)
    x = pilots.references(tags)  # (N, beam)
    f_mat = np.column_stack([b.vector for b in beams])
    # single-RF combiner spanning both polarization element groups so the
    # horizontally polarized probing beams are not leakage-suppressed
    mid_v, mid_h = (beams[len(beams) // 2].vector for beams in cbs.rx.values())
    w = (mid_v + mid_h) / np.sqrt(2)
    profile = _cluster_profile(cfg, cbs, cfg.n_clusters, max(cfg.subpaths, 1))
    gamma = 10.0 ** (cfg.snr_db[0] / 10.0)
    sigma = math.sqrt(1.0 / gamma)
    n = ofdm.n_subcarriers
    sums = {"pilot": np.zeros(len(tags)), "tdm": np.zeros(len(tags))}
    for t in range(cfg.trials):
        rng = _trial_rng(cfg, 0, t)
        chan = clustered_channel_generate(profile, rng, arrays, ofdm)
        # w* H[k] f x[k] per beam: the noiseless TDM slots, summed for the pilot
        y_beam = chan.beamformed(w[:, None], f_mat)[:, 0, :] * x
        y_pilot = y_beam.sum(axis=1) + _noise_like(n, sigma, rng)
        y_tdm = y_beam + np.column_stack([_noise_like(n, sigma, rng)
                                          for _ in tags])
        sums["pilot"] += np.abs(correlate_zero_lag(y_pilot, x, normalized=True))
        sums["tdm"] += np.abs(np.diag(correlate_zero_lag(y_tdm, x,
                                                         normalized=True)))
    table = ResultTable("pilot_vs_tdm",
                        ["beam", "root", "b", "scheme", "mean_amplitude",
                         "rel_diff"])
    for i, (a, b) in enumerate(tags):
        s_p = float(sums["pilot"][i] / cfg.trials)
        s_t = float(sums["tdm"][i] / cfg.trials)
        rel = abs(s_p - s_t) / s_t if s_t > 0 else math.inf
        table.add(i + 1, pilots.roots[a], b, "pilot", _fmt(s_p), _fmt(rel))
        table.add(i + 1, pilots.roots[a], b, "tdm", _fmt(s_t), _fmt(rel))
    return {"pilot_vs_tdm": table}


def _se_complexities(cfg: ExperimentConfig) -> tuple[int, int]:
    if cfg.n_tx_total is not None and cfg.m_rx_total is not None:
        n_tx, m_rx = cfg.n_tx_total, cfg.m_rx_total
    elif cfg.n_s in STREAMS_TO_PROBINGS:
        n_tx, m_rx = STREAMS_TO_PROBINGS[cfg.n_s]
    else:
        raise ConfigError(
            f"no probing totals known for n_s={cfg.n_s}; set overhead.n_tx_total "
            "and overhead.m_rx_total")
    e_abp = OverheadModel.abp_complexity(cfg.n_s, n_tx, cfg.n_s, m_rx)
    e_gob = OverheadModel.gob_complexity(cfg.n_bm, cfg.m_bm, cfg.n_s, cfg.n_s)
    return e_abp, e_gob


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


def _se_trial(cfg: ExperimentConfig, arrays, ofdm, cbs, pilots, profile,
              gamma: float, rng) -> dict | None:
    chan = clustered_channel_generate(profile, rng, arrays, ofdm)
    merged_az = len(cbs.all_beams("azimuth"))
    merged_rx = len(cbs.all_beams("receive"))
    n_rf = min(cfg.n_s, merged_az)
    m_rf = min(cfg.n_s, merged_rx)
    layout = "free"
    n_t = cfg.n_t or max(2, math.ceil(merged_az / n_rf))
    m_t = cfg.m_t or max(2, math.ceil(merged_rx / m_rf))
    plan = random_probing_plan(cbs, n_t, m_t, n_rf, m_rf,
                               int(rng.integers(2 ** 31)), layout=layout)
    rep = estimate_multipath(chan, plan, pilots, gamma,
                             cfg.n_select or cfg.n_s, rng, codebooks=cbs)
    abp = [(p.mu_x, p.mu_y, p.nu) for p in rep.paths]
    gob = _gob_triples(rep, cbs)
    perfect = []
    for ang in chan.dominant_angles[: cfg.n_s]:
        sf = spatial_frequencies(ang, arrays)
        perfect.append((sf.mu_x, sf.mu_y, sf.nu))
    out = {}
    for name, triples in (("perfect", perfect), ("abp", abp), ("gob", gob)):
        f_rf, w_rf = build_rf_beamformers(triples, arrays, cfg.n_s)
        out[name] = spectral_efficiency(chan, f_rf, w_rf, gamma, cfg.n_s)
    return out


def _se_setup(cfg: ExperimentConfig):
    arrays = _arrays(cfg, "cross")
    # rate families run at desk scale (N=256) in place of the 125mhz default
    ofdm = OfdmConfig(256, 64) if cfg.bandwidth in ("desk", "125mhz") else \
        OfdmConfig.profile(cfg.bandwidth)
    cbs = build_codebooks(_codebook_config(cfg, arrays))
    pairs = enumerate_abps(cbs, "azimuth")
    pilots = assign_pilots(pairs, ofdm.n_subcarriers, root_pool=cfg.roots,
                           p=None if cfg.p >= ofdm.n_subcarriers // 2 else cfg.p,
                           coprime_with=cfg.coprime_with, dc_zero=cfg.dc_zero)
    profile = _cluster_profile(cfg, cbs, max(cfg.n_clusters, cfg.n_s),
                               cfg.subpaths)
    return arrays, ofdm, cbs, pilots, profile


def _run_norm_se(cfg: ExperimentConfig):
    arrays, ofdm, cbs, pilots, profile = _se_setup(cfg)
    e_abp, e_gob = _se_complexities(cfg)
    overhead = OverheadModel(epsilon_t=cfg.epsilon_t, t_tot=cfg.t_tot)
    table = ResultTable("norm_se_vs_snr",
                        ["experiment", "snr_db", "scheme", "metric", "value",
                         "ci95"])
    iters = {"perfect": 0, "abp": e_abp, "gob": e_gob}
    for pi, snr in enumerate(cfg.snr_db):
        gamma = 10.0 ** (snr / 10.0)
        per_scheme = {s: [] for s in ("perfect", "abp", "gob")}
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, pi, t)
            rates = _se_trial(cfg, arrays, ofdm, cbs, pilots, profile, gamma, rng)
            for s, r in rates.items():
                per_scheme[s].append(r)
        for s in ("perfect", "abp", "gob"):
            vals = np.array(per_scheme[s])
            norm = np.array([normalized_spectral_efficiency(v, iters[s], overhead)
                             for v in vals])
            table.add(cfg.experiment, _fmt(snr), s, "se", _fmt(float(vals.mean())),
                      _fmt(ci95(vals)))
            table.add(cfg.experiment, _fmt(snr), s, "norm_se",
                      _fmt(float(norm.mean())), _fmt(ci95(norm)))
    table.add(cfg.experiment, "", "abp", "t_est", _fmt(overhead.t_est(e_abp)), "0")
    table.add(cfg.experiment, "", "gob", "t_est", _fmt(overhead.t_est(e_gob)), "0")
    return {"norm_se_vs_snr": table}


def _run_robustness(cfg: ExperimentConfig):
    if cfg.experiment == "robustness_mismatch":
        sweep = [("varsigma_deg", v) for v in (0.0, 10.0, 20.0, 30.0)]
    else:
        sweep = [("chi", v) for v in (0.0, 0.1, 0.2, 0.4)]
    snr = cfg.snr_db[0]
    gamma = 10.0 ** (snr / 10.0)
    table = ResultTable(cfg.experiment,
                        ["experiment", "snr_db", "scheme", "metric", "value",
                         "ci95"])
    for param, value in sweep:
        sub = replace(cfg, **{param: value})
        arrays, ofdm, cbs, pilots, profile = _se_setup(sub)
        gaps = []
        for t in range(cfg.trials):
            # same trial stream at every sweep value: channels differ only in
            # the swept parameter, so the gap spread isolates its effect
            rng = _trial_rng(cfg, 0, t)
            rates = _se_trial(sub, arrays, ofdm, cbs, pilots, profile, gamma, rng)
            if rates["perfect"] > 0:
                gaps.append((rates["perfect"] - rates["abp"]) / rates["perfect"])
        tag = f"{param.removesuffix('_deg')}_{value:g}"
        table.add(cfg.experiment, _fmt(snr), tag, "se_gap_frac",
                  _fmt(float(np.mean(gaps))), _fmt(ci95(gaps)))
    return {cfg.experiment: table}


_RUNNERS = {
    "maee_vs_snr": _run_maee,
    "maqe_bits": _run_maqe,
    "pilot_correlation": _run_pilot_correlation,
    "pilot_vs_tdm": _run_pilot_vs_tdm,
    "norm_se_vs_snr": _run_norm_se,
    "robustness_mismatch": _run_robustness,
    "robustness_xpd": _run_robustness,
}


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


def run_experiment(cfg: ExperimentConfig, out_dir: str = ".",
                   plots: bool | None = None) -> dict:
    """Run one experiment family; writes one CSV per result table (plus
    optional plots) and returns {'tables': ..., 'files': ...}."""
    os.makedirs(out_dir, exist_ok=True)
    runner = _RUNNERS[cfg.experiment]
    tables = runner(cfg)
    files = [emit_outputs(t, out_dir) for t in tables.values()]
    want_plots = cfg.plots if plots is None else plots
    if want_plots:
        files += _plot_tables(tables, out_dir)
    return {"tables": tables, "files": files}
