"""Experiment driver tests: config parsing, CSV round trips, small
deterministic runs of each family, and the command-line interface."""

import csv
import dataclasses
import functools
import math
import os
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from beampair import channel, estimator, experiments
from beampair.channel import SteeredPaths, clustered_channel_generate, rician_narrowband
from beampair.cli import main
from beampair.codebook import AXES, CodebookConfig, build_codebooks, random_probing_plan
from beampair.estimator import (BothZero, InsufficientNeighbors, NoSignal, _noise_like,
                                estimate_multipath, estimate_single_path, gob_estimate)
from beampair.geometry import (AngleSet, ArrayConfig, angles_from_spatial_frequencies,
                               aoa_from_nu, spatial_frequencies)
from beampair.metrics import EmptyInput, build_rf_beamformers, spectral_efficiency
from beampair.pilot import correlate_zero_lag
from beampair.experiments import (EXPERIMENTS, ConfigError, ExperimentConfig,
                                  IoError, ParseError, ResultTable,
                                  emit_outputs, load_config, parse_snr_grid,
                                  run_experiment, validate_config)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# ---------------------------------------------------------------------------
# SNR grid parsing

class TestParseSnrGrid:
    def test_colon_form_inclusive(self):
        assert parse_snr_grid("-10:5:20") == (-10.0, -5.0, 0.0, 5.0, 10.0,
                                              15.0, 20.0)
        assert parse_snr_grid("0:2.5:5") == (0.0, 2.5, 5.0)

    def test_unicode_minus(self):
        """A U+2212 minus reads as '-' in every form of the grid, and in
        every other value."""
        assert validate_config("snr_db = −10:5:0").snr_db == (-10.0, -5.0, 0.0)
        assert validate_config("snr_db = −10,0").snr_db == (-10.0, 0.0)
        assert validate_config("snr_db = −5").snr_db == (-5.0,)
        assert validate_config("channel.k_factor_db = −3").k_factor_db == -3.0
        assert validate_config("codebook.el_range_deg = −90:90").el_range_deg == (-90.0, 90.0)

    def test_comma_and_single(self):
        assert parse_snr_grid("0, 5, 12.5") == (0.0, 5.0, 12.5)
        assert parse_snr_grid(" 7 ") == (7.0,)

    def test_errors(self):
        with pytest.raises(ParseError, match="start:step:stop"):
            parse_snr_grid("1:2")
        with pytest.raises(ParseError, match="positive"):
            parse_snr_grid("0:-1:10")


# ---------------------------------------------------------------------------
# config text format

GOOD_CONFIG = """
# comment line
experiment = maqe_bits
trials = 12
seed = 7
snr_db = 0:10:20
arrays.n_y = 16
codebook.az_range_deg = −60:60
pilot.roots = 25,29,34
pilot.dc_zero = yes
quantizer.bits = 4
plots = off
"""


class TestValidateConfig:
    def test_empty_gives_defaults(self):
        cfg = validate_config("")
        assert cfg.experiment == "maee_vs_snr"
        assert cfg.trials == 500 and cfg.seed == 1
        assert cfg.bits == 3 and cfg.p == 6
        assert cfg.snr_db is None and experiments.snr_grid(cfg) == (10.0, 15.0, 20.0)

    def test_full_parse(self):
        cfg = validate_config(GOOD_CONFIG)
        assert cfg.experiment == "maqe_bits"
        assert cfg.trials == 12 and cfg.seed == 7
        assert cfg.snr_db == (0.0, 10.0, 20.0)
        assert cfg.n_y == 16
        assert cfg.az_range_deg == (-60.0, 60.0)
        assert cfg.roots == (25, 29, 34)
        assert cfg.dc_zero is True
        assert cfg.bits == 4
        assert cfg.plots is False

    def test_errors_name_the_line(self):
        with pytest.raises(ParseError, match="line 2: unknown key"):
            validate_config("trials = 5\nspacing = 3\n")
        with pytest.raises(ParseError, match="line 1: expected key = value"):
            validate_config("just some text")
        with pytest.raises(ParseError, match="line 1: bad value for 'trials'"):
            validate_config("trials = many")

    def test_config_errors(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config("experiment = beam_search")
        with pytest.raises(ConfigError, match="trials"):
            validate_config("trials = 0")
        for grid in ("nan", "-inf", "10,nan", "0,-inf"):
            with pytest.raises(ConfigError, match="snr_db"):
                validate_config(f"snr_db = {grid}")
        # infinite SNR (noise sigma 0) stays valid
        assert validate_config("snr_db = inf").snr_db == (math.inf,)

    def test_snr_outside_the_float_range(self):
        """A finite SNR whose linear value 10^(snr/10) or noise amplitude
        sqrt(1/SNR) is no finite positive float is a config error; it ended
        in an OverflowError or a ZeroDivisionError traceback."""
        for grid in ("3083", "-3083", "-4000", "10,3083", "-1e9"):
            with pytest.raises(ConfigError, match="snr_db = .* dB is outside the float range"):
                validate_config(f"snr_db = {grid}")
        for snr in (3082.0, -3082.0):
            assert validate_config(f"snr_db = {snr:g}").snr_db == (snr,)

    @pytest.mark.parametrize("family,line", [
        ("maee_vs_snr", "channel.k_factor_db = nan"), ("maee_vs_snr", "channel.k_factor_db = inf"),
        ("norm_se_vs_snr", "channel.chi = nan"), ("pilot_vs_tdm", "channel.chi = inf"),
        ("robustness_xpd", "channel.varsigma_deg = inf")])
    def test_non_finite_channel_settings(self, family, line):
        """A NaN or infinite K-factor, chi or mismatch rotation is a config
        error; each ran to a CSV of nothing but nan."""
        with pytest.raises(ConfigError, match=f"{line.split(' =')[0]} must be finite"):
            validate_config(f"experiment = {family}\n{line}\n")

    # every config key: the field it sets, its parser, and a value to parse
    KEYS = {
        "experiment": ("experiment", str, "maqe_bits"),
        "trials": ("trials", int, "2"), "seed": ("seed", int, "2"),
        "snr_db": ("snr_db", parse_snr_grid, "0:5:10"),
        "arrays.n_x": ("n_x", int, "2"), "arrays.n_y": ("n_y", int, "2"),
        "arrays.m_tot": ("m_tot", int, "2"),
        "arrays.polarization": ("polarization", str, "cross"),
        "channel.k_factor_db": ("k_factor_db", float, "2.5"),
        "channel.n_nlos": ("n_nlos", int, "2"),
        "channel.bandwidth": ("bandwidth", str, "250mhz"),
        "channel.n_clusters": ("n_clusters", int, "2"),
        "channel.subpaths": ("subpaths", int, "2"),
        "channel.chi": ("chi", float, "2.5"),
        "channel.varsigma_deg": ("varsigma_deg", float, "2.5"),
        "codebook.az_range_deg": ("az_range_deg", experiments._parse_pair, "-30:30"),
        "codebook.el_range_deg": ("el_range_deg", experiments._parse_pair, "-20:20"),
        "codebook.rx_range_deg": ("rx_range_deg", experiments._parse_pair, "-80:80"),
        "codebook.delta_mode": ("delta_mode", str, "commensurate"),
        "codebook.ell": ("ell", int, "2"), "pilot.p": ("p", int, "2"),
        "pilot.roots": ("roots", experiments._parse_ints, "25,29"),
        "pilot.coprime_with": ("coprime_with", str, "n_minus_1"),
        "pilot.dc_zero": ("dc_zero", experiments._parse_bool, "yes"),
        "quantizer.bits": ("bits", int, "2"),
        "overhead.epsilon_t": ("epsilon_t", int, "2"),
        "overhead.t_tot": ("t_tot", int, "2"), "overhead.n_bm": ("n_bm", int, "2"),
        "overhead.m_bm": ("m_bm", int, "2"), "overhead.n_s": ("n_s", int, "2"),
        "overhead.n_tx_total": ("n_tx_total", int, "2"),
        "overhead.m_rx_total": ("m_rx_total", int, "2"),
        "probing.n_t": ("n_t", int, "2"), "probing.m_t": ("m_t", int, "2"),
        "probing.n_select": ("n_select", int, "2"),
        "plots": ("plots", experiments._parse_bool, "off"),
    }

    @pytest.mark.parametrize("key", KEYS)
    def test_key_sets_its_field(self, key):
        attr, parse, text = self.KEYS[key]
        got = getattr(validate_config(f"{key} = {text}\n"), attr)
        assert got == parse(text) and type(got) is type(parse(text))
        assert [f.metadata["parse"] for f in fields(ExperimentConfig)
                if f.name == attr] == [parse]

    def test_one_key_per_field(self):
        assert sorted(f.name for f in fields(ExperimentConfig)) \
            == sorted(attr for attr, _, _ in self.KEYS.values())

    def test_load_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG, encoding="utf-8")
        assert load_config(str(path)).experiment == "maqe_bits"


# ---------------------------------------------------------------------------
# tables and CSV

class TestResultTable:
    def test_row_width_guard(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError, match="row width"):
            table.add(1)

    def test_csv_round_trip(self, tmp_path):
        table = ResultTable("demo", ["snr_db", "value"])
        table.add("10", "0.123456789")
        table.add("15", "0.5")
        path = emit_outputs(table, str(tmp_path))
        assert os.path.basename(path) == "demo.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["snr_db", "value"], ["10", "0.123456789"], ["15", "0.5"]]

    def test_empty_table_refused(self, tmp_path):
        with pytest.raises(IoError, match="empty"):
            emit_outputs(ResultTable("t", ["a"]), str(tmp_path))

    def test_unwritable_target(self):
        table = ResultTable("t", ["a"])
        table.add(1)
        with pytest.raises((IoError, OSError)):
            emit_outputs(table, "/nonexistent-dir-for-sure/xyz")


# ---------------------------------------------------------------------------
# experiment families, kept tiny for speed

class TestFamilies:
    def test_fig_pilot_tags_read_the_pair_table(self):
        """Eight azimuth beams, 4 + 4 over polarizations, give vertical pairs
        0-2 and horizontal pairs 3-5. The four-beam tagging takes both
        members of pair 0, member 0 of pair 3 and member 1 of pair 5, and
        each beam index is that member of its tagged pair."""
        arrays = ArrayConfig(n_x=4, n_y=8, m_tot=4, polarization_mode="cross")
        book = build_codebooks(CodebookConfig(arrays, az_range=(-np.pi / 2, np.pi / 2)))\
            .books["azimuth"]
        beams, tags = experiments.fig_pilot_tags(book)
        assert tags == [(0, 0), (0, 1), (3, 0), (5, 1)]
        assert beams == [book.pairs[k, b] for k, b in tags] == [0, 1, 4, 7]
        assert book.pols[beams].tolist() == ["v", "v", "h", "h"]
        co = build_codebooks(CodebookConfig(ArrayConfig(n_x=4, n_y=8, m_tot=4)))
        with pytest.raises(ConfigError, match="horizontal"):
            experiments.fig_pilot_tags(co.books["azimuth"])

    def test_maee_schema_and_determinism(self, tmp_path):
        cfg = validate_config("trials = 3\nsnr_db = 10\nplots = false\n")
        out_a = run_experiment(cfg, str(tmp_path / "a"))
        out_b = run_experiment(cfg, str(tmp_path / "b"))
        table = out_a["tables"]["maee_vs_snr"]
        assert table.columns == ["snr_db", "scheme", "domain", "maee_deg", "ci95"]
        assert len(table.rows) == 2 * 6  # schemes x domains
        schemes = {r[1] for r in table.rows}
        assert schemes == {"abp", "gob"}
        for row in table.rows:
            assert float(row[3]) >= 0.0
        with open(out_a["files"][0], "rb") as fa, open(out_b["files"][0], "rb") as fb:
            assert fa.read() == fb.read()

    def test_maqe_bits_rows(self, tmp_path):
        cfg = validate_config(
            "experiment = maqe_bits\ntrials = 50\nplots = false\n")
        table = run_experiment(cfg, str(tmp_path))["tables"]["maqe_bits"]
        assert len(table.rows) == 8  # two array sizes x four records
        by_key = {(str(r[0]), r[1], r[3]): float(r[4]) for r in table.rows}
        for n_y in ("8", "16"):
            assert by_key[(n_y, "differential", "maqe_deg")] \
                < by_key[(n_y, "direct", "maqe_deg")]
            worst = by_key[(n_y, "differential", "worst_case_deg")]
            bound = by_key[(n_y, "differential", "worst_case_bound_deg")]
            assert worst == pytest.approx(bound, rel=1e-6)

    def test_pilot_correlation_values(self, tmp_path):
        cfg = validate_config(
            "experiment = pilot_correlation\ntrials = 1\nplots = false\n")
        table = run_experiment(cfg, str(tmp_path))["tables"]["pilot_correlation"]
        assert len(table.rows) == 8  # two block lengths x four beams
        vals = {(str(r[0]), str(r[1])): float(r[4]) for r in table.rows}
        assert vals[("512", "2")] == pytest.approx(1.0, abs=1e-12)
        assert vals[("512", "1")] == pytest.approx(0.0, abs=1e-9)
        ref = 1.0 / np.sqrt(511.0)
        assert vals[("511", "3")] == pytest.approx(ref, abs=5e-5)
        assert vals[("511", "4")] == pytest.approx(ref, abs=5e-5)

    def test_norm_se_schema(self, tmp_path):
        cfg = validate_config("experiment = norm_se_vs_snr\ntrials = 2\n"
                              "snr_db = 10\nplots = false\n")
        table = run_experiment(cfg, str(tmp_path))["tables"]["norm_se_vs_snr"]
        t_est = {r[2]: float(r[4]) for r in table.rows if r[3] == "t_est"}
        assert t_est == {"abp": 7.0, "gob": 64.0}
        per = {(r[2], r[3]): float(r[4]) for r in table.rows if r[1]}
        for scheme in ("perfect", "abp", "gob"):
            assert per[(scheme, "norm_se")] <= per[(scheme, "se")] + 1e-12
        # zero estimation overhead: the perfect-CSI rate is not scaled down
        assert per[("perfect", "norm_se")] == pytest.approx(
            per[("perfect", "se")], rel=1e-9)

    def test_robustness_rows(self, tmp_path):
        cfg = validate_config("experiment = robustness_mismatch\ntrials = 2\n"
                              "snr_db = 15\nplots = false\n")
        table = run_experiment(cfg, str(tmp_path))["tables"]["robustness_mismatch"]
        assert len(table.rows) == 4
        tags = [r[2] for r in table.rows]
        assert tags == ["varsigma_0", "varsigma_10", "varsigma_20", "varsigma_30"]
        for row in table.rows:
            assert np.isfinite(float(row[4]))

    def test_robustness_point_without_a_positive_rate_is_an_error(self):
        """A sweep point none of whose trials has a positive perfect rate
        raises EmptyInput naming the point, instead of writing a nan."""
        s = experiments.setup_experiment(ExperimentConfig(
            experiment="robustness_xpd", trials=2, plots=False))
        good = np.tile([2.0, 1.5, 1.0], (2, 4, 1))  # (trial, profile, scheme)
        table = experiments._robustness_reduce(s, [good])["robustness_xpd"]
        assert [float(r[4]) for r in table.rows] == [0.25] * 4
        dropped = good.copy()
        dropped[:, 2] = 0.0
        with pytest.raises(EmptyInput, match="robustness_xpd at chi_0.2: 2 of 2 trials"):
            experiments._robustness_reduce(s, [dropped])

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
    def test_robustness_trial_without_a_positive_rate_is_an_error(self, rate):
        """One trial whose perfect rate is not positive fails the point with
        EmptyInput; it was dropped from the mean without a word."""
        s = experiments.setup_experiment(ExperimentConfig(
            experiment="robustness_mismatch", trials=3, plots=False))
        trials = np.tile([2.0, 1.5, 1.0], (3, 4, 1))  # (trial, profile, scheme)
        trials[1, 3, 0] = rate
        with pytest.raises(EmptyInput, match="robustness_mismatch at varsigma_30: 1 of 3 "
                                             "trials have no positive perfect rate"):
            experiments._robustness_reduce(s, [trials])

    @pytest.mark.parametrize("family,owner,name,trials", [
        ("norm_se_vs_snr", SteeredPaths, "realization", 3),
        ("pilot_vs_tdm", experiments, "_clustered_realization", 3)],
        ids=["norm_se_vs_snr", "pilot_vs_tdm"])
    def test_trials_never_build_the_dense_tensor(self, family, owner, name, trials, tmp_path,
                                                 monkeypatch):
        """Estimation, rate and pilot correlation work from the path factors:
        neither the stacked realization of a rate chunk (estimate + three
        rates) nor that of a pilot_vs_tdm chunk (all 3 trials each) reads its
        dense h."""
        made = []
        maker = getattr(owner, name)

        def recording(*args, **kwargs):
            made.append(maker(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(owner, name, recording)
        cfg = validate_config(f"experiment = {family}\ntrials = {trials}\n"
                              "snr_db = 10\nplots = false\n")
        run_experiment(cfg, str(tmp_path))
        assert len(made) == 1
        assert made[0].u.shape[:-3] == (trials,)
        assert "h" not in made[0].__dict__

    def test_plot_emitted(self, tmp_path):
        pytest.importorskip("matplotlib")
        cfg = validate_config("trials = 2\nsnr_db = 10,20\n")
        files = run_experiment(cfg, str(tmp_path))["files"]
        pngs = [f for f in files if f.endswith(".png")]
        assert len(pngs) == 1
        assert os.path.getsize(pngs[0]) > 0

    @pytest.mark.parametrize("plots", [True, False], ids=["plots", "no-plots"])
    def test_missing_matplotlib_is_said(self, plots, tmp_path, monkeypatch, capsys):
        """With matplotlib not importable, a run with plots on writes its
        CSVs, no PNG, and says so in one stderr line; with plots off it
        says nothing."""
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
        cfg = ExperimentConfig(experiment="maqe_bits", trials=2, plots=plots)
        files = run_experiment(cfg, str(tmp_path))["files"]
        assert [os.path.splitext(f)[1] for f in files] == [".csv"]
        err = capsys.readouterr().err
        assert err == ("plots not written: matplotlib is not installed\n" if plots else "")

    @pytest.mark.parametrize("family", EXPERIMENTS)
    def test_plot_reads_every_golden_table(self, family):
        """_plot_one draws each family's pinned table without raising, on a
        stub axis that records its calls (matplotlib is optional), and a
        bar chart gets the table's last column as numbers."""
        calls = []

        class StubAxis:
            def __getattr__(self, name):
                return lambda *args, **kwargs: calls.append((name, args))

        with open(os.path.join(GOLDEN_DIR, f"{family}.csv"), newline="",
                  encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        experiments._plot_one(StubAxis(), family, ResultTable(family, header, rows))
        assert calls
        bars = [args for name, args in calls if name == "bar"]
        for _, vals in bars:
            assert vals == [float(r[-1]) for r in rows]


# ---------------------------------------------------------------------------
# trials in chunks: per-trial draws, one compute step per chunk

def _maee_trial(s, snr: float, rng) -> list:
    """The per-trial maee_vs_snr flow that the chunked draw and compute
    steps replace, kept as their reference: true, ABP-estimated and
    GoB-estimated directions in _DOMAINS order."""
    mu_x = rng.uniform(*s.cov["elevation"])
    mu_y = rng.uniform(*s.cov["azimuth"])
    nu = rng.uniform(*s.cov["receive"])
    while mu_x == 0.0 and mu_y == 0.0:
        mu_x = rng.uniform(*s.cov["elevation"])
    truth = AngleSet(*angles_from_spatial_frequencies(mu_x, mu_y, s.arrays),
                     aoa_from_nu(nu, s.arrays))
    chan = rician_narrowband(s.arrays, truth, s.cfg.k_factor_db, s.cfg.n_nlos,
                             rng, s.nlos_ranges)
    out = [(mu_x, mu_y, nu, truth.theta, truth.phi, truth.psi)]
    for est_fn in (estimate_single_path, gob_estimate):
        est = est_fn(chan, s.cbs, 10.0 ** (snr / 10.0), rng).best
        out.append((est.mu_x, est.mu_y, est.nu, est.theta, est.phi, est.psi))
    return out


def _chunk_against_reference(cfg: ExperimentConfig, snr: float, trials: int):
    """One chunk of `trials` maee_vs_snr trials at point 0, drawn and
    computed, and the reference per-trial flow on the same streams (see
    _draws_against_reference): (chunk rows (T, 3, 6), reference rows)."""
    s, draws, want = _draws_against_reference(cfg, experiments._maee_draw, _maee_trial,
                                              snr, trials)
    return experiments._maee_compute(s, snr, draws), want


def _tdm_trial(s, snr: float, rng) -> np.ndarray:
    """The per-trial pilot_vs_tdm flow that the chunked draw and compute
    steps replace, kept as their reference: per-beam correlation amplitudes
    of the pilot and the TDM scheme, (scheme, beam)."""
    sigma = math.sqrt(1.0 / 10.0 ** (snr / 10.0))
    n = s.ofdm.n_subcarriers
    chan = clustered_channel_generate(s.profile, rng, s.arrays, s.ofdm)
    y_beam = chan.beamformed(s.w[:, None], s.f)[:, 0, :] * s.x
    noise = _noise_like(n, sigma, rng, batch=(1 + len(s.tags),))  # pilot, then slots
    y_pilot = y_beam.sum(axis=1) + noise[0]
    y_tdm = y_beam + noise[1:].T
    return np.array([np.abs(correlate_zero_lag(y_pilot, s.x, normalized=True)),
                     np.abs(np.diag(correlate_zero_lag(y_tdm, s.x, normalized=True)))])


def _gob_triples(report, cbs):
    """Boresight-only estimates from the same measurements: the stronger pair
    member per domain, or the elevation range center for a path that formed
    no elevation pair."""
    el_center = 0.5 * sum(cbs.config.el_range)

    def stronger(path, axis: str) -> float:
        if axis not in path.pairs:
            return el_center
        book = cbs.books[axis]
        return book.boresights[book.pairs[path.pairs[axis], 0 if path.zetas[axis] >= 0 else 1]]

    return [tuple(stronger(path, axis) for axis in AXES) for path in report.paths]


def _rates(s, profile, snr: float, rng) -> dict:
    """The per-trial rate flow that the chunked draw and compute steps
    replace, kept as their reference: spectral efficiency of one channel
    draw steered at the true dominant directions ("perfect"), at the ABP
    estimates and at the GoB estimates."""
    cfg, gamma = s.cfg, 10.0 ** (snr / 10.0)
    chan = clustered_channel_generate(profile, rng, s.arrays, s.ofdm)
    plan = random_probing_plan(s.cbs, s.n_t, s.m_t, s.n_rf, s.m_rf,
                               int(rng.integers(2 ** 31)), layout="free")
    rep = estimate_multipath(chan, plan, s.pilots, gamma, s.n_select, rng,
                             codebooks=s.cbs)
    perfect = spatial_frequencies([a[: cfg.n_s] for a in chan.dominant_angles], s.arrays)
    estimates = {"abp": [(p.mu_x, p.mu_y, p.nu) for p in rep.paths],
                 "gob": _gob_triples(rep, s.cbs)}
    # stream j steers at path j mod P, for P below, at and above n_s
    dirs = {"perfect": np.column_stack([perfect.mu_x, perfect.mu_y, perfect.nu]),
            **{k: [rows[j % len(rows)] for j in range(cfg.n_s)] for k, rows in estimates.items()}}
    f, w = build_rf_beamformers(np.array(list(dirs.values())), s.arrays)
    return dict(zip(dirs, spectral_efficiency(chan, f, w, gamma, cfg.n_s).tolist()))


def _draw_bytes(draws) -> list:
    """The arrays of a draw step's output, in order, as bytes: through
    tuples, lists and dataclasses (a ProbingPlan); any other value as it
    is."""
    if isinstance(draws, np.ndarray):
        return [draws.tobytes()]
    if dataclasses.is_dataclass(draws):
        return _draw_bytes([getattr(draws, f.name) for f in fields(draws)])
    if isinstance(draws, (tuple, list)):
        return [b for d in draws for b in _draw_bytes(d)]
    return [draws]


def _draws_against_reference(cfg: ExperimentConfig, draw, trial, point, trials: int):
    """`trials` draw steps at point 0 and the reference per-trial flow on
    the same streams; asserts that each draw step leaves its generator where
    the reference leaves it and returns (setup, draws, reference results)."""
    s = experiments.setup_experiment(cfg)
    draws, want = [], []
    rngs, ref_rngs = (experiments._trial_rngs(cfg, 0, range(trials)) for _ in range(2))
    for t, rng, ref_rng in zip(range(trials), rngs, ref_rngs):
        draws.append(draw(s, point, rng))
        want.append(trial(s, point, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state, f"trial {t}"
    return s, draws, np.array(want, dtype=float)


class TestChunks:
    @pytest.mark.parametrize("snr", [10.0, -5.0, math.inf])
    @pytest.mark.parametrize("overrides", [{}, {"n_nlos": 0}, {"k_factor_db": 0.0}])
    def test_chunk_equals_per_trial_flow(self, snr, overrides):
        """The chunk's rows are the per-trial flow's, byte for byte; at
        infinite SNR neither draws sweep noise."""
        cfg = ExperimentConfig(trials=24, plots=False, **overrides)
        got, want = _chunk_against_reference(cfg, snr, 24)
        assert got.shape == (24, 3, 6)
        assert got.tobytes() == want.tobytes()

    def test_boresight_estimate_inside_a_chunk(self):
        """With 3 elevation and 5 azimuth beams the middle GoB beams sit at
        spatial frequency 0, so some GoB estimates land on boresight (0, 0),
        where the azimuth is undefined: those rows get (theta, phi) = (0, 0)
        and the other rows of the chunk are untouched."""
        cfg = ExperimentConfig(trials=64, seed=2, n_x=6, n_y=7, plots=False)
        got, want = _chunk_against_reference(cfg, 10.0, 64)
        gob = got[:, 2]
        at_boresight = (gob[:, 0] == 0.0) & (gob[:, 1] == 0.0)
        assert 0 < at_boresight.sum() < len(gob)
        assert np.all(gob[at_boresight, 3:5] == 0.0)
        assert np.all(gob[~at_boresight, 3] > 0.0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("snr", [10.0, -10.0])
    @pytest.mark.parametrize("overrides", [
        {}, {"dc_zero": True}, {"bandwidth": "250mhz"}, {"subpaths": 4}])
    def test_tdm_chunk_equals_per_trial_flow(self, snr, overrides):
        """A pilot_vs_tdm chunk's amplitudes (T, scheme, beam) are the
        per-trial flow's, byte for byte, and each draw step leaves its
        generator where the flow leaves it."""
        cfg = ExperimentConfig(experiment="pilot_vs_tdm", trials=9, plots=False, **overrides)
        s, draws, want = _draws_against_reference(cfg, experiments._tdm_draw, _tdm_trial,
                                                  snr, 9)
        got = experiments._tdm_compute(s, snr, draws)
        assert got.shape == want.shape == (9, 2, 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("snr", [10.0, -10.0])
    @pytest.mark.parametrize("overrides", [
        {}, {"el_range_deg": (-90.0, 90.0)}, {"n_s": 2}, {"subpaths": 4}, {"n_select": 1},
        {"n_select": 5}],
        ids=["default", "el90", "n_s2", "subpaths4", "n_select1", "n_select5"])
    @pytest.mark.parametrize("family", ["norm_se_vs_snr", "robustness_xpd",
                                        "robustness_mismatch"])
    def test_rate_chunk_equals_per_trial_flow(self, family, overrides, snr):
        """A rate chunk's rates (T, profile, scheme) are the per-trial
        flow's, byte for byte, and each draw step leaves its generator where
        the flow leaves it. A robustness family's chunk is drawn once, at
        its one SNR point, and each profile's column is checked against the
        per-trial flow under that profile. With probing.n_select at 1 and 5
        the estimating schemes have fewer and more paths P than the n_s = 3
        streams, which the flow steers stream by stream at path j mod P."""
        cfg = ExperimentConfig(experiment=family, trials=6, snr_db=(snr,), plots=False,
                               **overrides)

        def reference(s, snr, rng, profile=0):
            return list(_rates(s, s.profiles[profile], snr, rng).values())

        s, draws, want = _draws_against_reference(cfg, experiments._rate_draw, reference,
                                                  snr, 6)
        assert s.points == (snr,)
        assert len(s.profiles) == (1 if family == "norm_se_vs_snr" else 4)
        got = experiments._rate_compute(s, snr, draws)
        assert got.shape == (6, len(s.profiles), 3)
        for i in range(len(s.profiles)):
            if i:
                want = np.array([reference(s, snr, rng, i)
                                 for rng in experiments._trial_rngs(cfg, 0, range(6))])
            assert want.shape == (6, 3)
            assert got[:, i].tobytes() == want.tobytes(), f"profile {i}"

    @pytest.mark.parametrize("overrides", [{}, {"el_range_deg": (-90.0, 90.0)}],
                             ids=["default", "el90"])
    @pytest.mark.parametrize("family", ["robustness_xpd", "robustness_mismatch"])
    def test_each_profile_column_is_a_compute_over_that_profile(self, family, overrides):
        """The profiles of one rate compute step share the chunk's paths,
        plan, probing and true directions, and none changes them for the
        next: each profile's column equals, byte for byte, a compute step
        over that profile alone."""
        cfg = ExperimentConfig(experiment=family, trials=4, plots=False, **overrides)
        s = experiments.setup_experiment(cfg)
        draws = [experiments._rate_draw(s, 10.0, rng)
                 for rng in experiments._trial_rngs(cfg, 0, range(4))]
        got = experiments._rate_compute(s, 10.0, draws)
        for i, profile in enumerate(s.profiles):
            alone = SimpleNamespace(**{**vars(s), "profiles": [profile]})
            assert got[:, i].tobytes() == \
                experiments._rate_compute(alone, 10.0, draws)[:, 0].tobytes(), f"profile {i}"

    @pytest.mark.parametrize("family,overrides", [
        ("maee_vs_snr", {}), ("maqe_bits", {}), ("pilot_vs_tdm", {}), ("norm_se_vs_snr", {}),
        ("norm_se_vs_snr", {"el_range_deg": (-90.0, 90.0)}), ("robustness_xpd", {}),
        ("robustness_xpd", {"el_range_deg": (-90.0, 90.0)}), ("robustness_mismatch", {})],
        ids=["maee_vs_snr", "maqe_bits", "pilot_vs_tdm", "norm_se_vs_snr",
             "norm_se_vs_snr-el90", "robustness_xpd", "robustness_xpd-el90",
             "robustness_mismatch"])
    def test_compute_leaves_the_draws_as_they_were(self, family, overrides):
        """The Family contract: a chunk's draws are byte for byte what they
        were before the compute step ran, which for a robustness family
        evaluates them under all four profiles."""
        cfg = ExperimentConfig(experiment=family, trials=4, plots=False, **overrides)
        s = experiments.setup_experiment(cfg)
        steps = experiments.FAMILIES[family]
        draws = [steps.draw(s, s.points[0], rng)
                 for rng in experiments._trial_rngs(cfg, 0, range(4))]
        before = _draw_bytes(draws)
        steps.compute(s, s.points[0], draws)
        assert _draw_bytes(draws) == before

    def test_sweep_invariant_work_runs_once_per_chunk(self, tmp_path, monkeypatch):
        """An 8-trial robustness_xpd run is 1 chunk x 4 points: the path
        parameters, delay taps, pilot tags, and the azimuth stage's pilot
        Grams and noise correlations are made per chunk (1 path, tap and
        Gram call, 8 trials x 2 tx probings = 16 tags), the estimate per
        point (4 calls)."""
        counts = {}

        def counting(owner, name):
            fn = getattr(owner, name)

            def count(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, count)

        for owner, name in ((channel, "_clustered_paths"), (channel, "pulse_coefficients"),
                            (estimator, "tag_probing"), (estimator, "_grams"),
                            (experiments, "estimate_multipath")):
            counting(owner, name)
        cfg = ExperimentConfig(experiment="robustness_xpd", trials=8, plots=False)
        assert experiments._chunk_trials(experiments.setup_experiment(cfg)) == 8
        run_experiment(cfg, str(tmp_path))
        assert counts == {"_clustered_paths": 1, "pulse_coefficients": 1, "tag_probing": 16,
                          "_grams": 1, "estimate_multipath": 4}

    def test_rate_steps_build_no_path_objects(self, tmp_path, monkeypatch):
        """An 8-trial robustness_xpd run reads its estimates as arrays from
        the estimator to the rate step: it constructs no PathEstimate (per
        path objects numbered 8 trials x 4 points x 3 paths = 96). Reading a
        report's paths still builds one per path."""
        built = []
        init = estimator.PathEstimate.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(estimator.PathEstimate, "__init__", counted)
        run_experiment(ExperimentConfig(experiment="robustness_xpd", trials=8, plots=False),
                       str(tmp_path))
        assert built == []
        unpaired = {axis: np.full(2, -1) for axis in AXES}
        report = estimator.EstimationReport(np.zeros((2, 6)), unpaired,
                                            {axis: np.full(2, math.nan) for axis in AXES},
                                            0, "abp")
        assert len(report.paths) == len(built) == 2

    @pytest.mark.parametrize("overrides", [{}, {"el_range_deg": (-90.0, 90.0)}],
                             ids=["default", "el90"])
    @pytest.mark.parametrize("family", ["robustness_xpd", "robustness_mismatch"])
    def test_sweep_profiles_share_the_draws(self, family, overrides, tmp_path, monkeypatch):
        """A robustness family's draw step under any swept profile gives the
        cluster profile's draws byte for byte and leaves the generator in
        the same state: no draw reads the swept field. A run makes each
        trial's draws once, at its one SNR point, for every profile."""
        cfg = ExperimentConfig(experiment=family, trials=6, plots=False, **overrides)
        s = experiments.setup_experiment(cfg)
        steps = experiments.FAMILIES[family]
        assert s.points == (10.0,) and len(s.profiles) == 4
        swept = [SimpleNamespace(**{**vars(s), "profile": p}) for p in s.profiles]
        for t in range(3):
            rngs = [experiments._trial_rngs(cfg, 0, [t])[0] for _ in range(5)]
            draws = [_draw_bytes(steps.draw(setup, 10.0, rng))
                     for setup, rng in zip([s, *swept], rngs)]
            assert all(d == draws[0] for d in draws[1:])
            assert all(r.bit_generator.state == rngs[0].bit_generator.state for r in rngs[1:])
        drawn = []

        def draw(s, point, rng):
            drawn.append(point)
            return steps.draw(s, point, rng)

        monkeypatch.setitem(experiments.FAMILIES, family, steps._replace(draw=draw))
        run_experiment(cfg, str(tmp_path))
        assert drawn == [10.0] * 6

    @pytest.mark.parametrize("family,trials", [
        ("maee_vs_snr", 20), ("maqe_bits", 20), ("pilot_vs_tdm", 20), ("norm_se_vs_snr", 3),
        ("robustness_xpd", 9), ("robustness_mismatch", 9)])
    def test_chunk_size_moves_no_byte(self, family, trials, tmp_path, monkeypatch):
        """TRIAL_CHUNK 1, 7 and the trial count give the same CSV bytes (the
        subcarrier bound lifted, so TRIAL_CHUNK alone sets the chunk), at an
        SNR grid of 0 dB (and 10 dB where a family sweeps the SNR) in the
        families that read one."""
        grid = (0.0,) if family in experiments.ONE_SNR_FAMILIES else (0.0, 10.0)
        snr = {"snr_db": grid} if "snr_db" in experiments.FAMILIES[family].reads else {}
        cfg = ExperimentConfig(experiment=family, trials=trials, plots=False, **snr)
        monkeypatch.setattr(experiments, "CHUNK_SUBCARRIERS", trials * 1024)
        texts = []
        for chunk in (1, 7, trials):
            monkeypatch.setattr(experiments, "TRIAL_CHUNK", chunk)
            [path] = run_experiment(cfg, str(tmp_path / str(chunk)))["files"]
            with open(path, "rb") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1] == texts[2]

    def test_run_walks_trials_in_chunks(self, tmp_path, monkeypatch):
        """The trials reach the compute step in chunks of TRIAL_CHUNK, the
        last one partial: chunks in the outer loop, each at every point."""
        chunks = []

        def compute(s, point, draws):
            chunks.append(len(draws))
            return draws

        family = experiments.FAMILIES["maqe_bits"]
        monkeypatch.setattr(experiments, "TRIAL_CHUNK", 4)
        monkeypatch.setitem(experiments.FAMILIES, "maqe_bits",
                            family._replace(compute=compute))
        run_experiment(ExperimentConfig(experiment="maqe_bits", trials=10,
                                        plots=False), str(tmp_path))
        assert chunks == [4, 4, 4, 4, 2, 2]  # two points (array widths) per chunk

    @pytest.mark.parametrize("family,line,size", [
        ("pilot_vs_tdm", "", 8), ("pilot_vs_tdm", "channel.bandwidth = 250mhz", 4),
        ("norm_se_vs_snr", "", 8), ("robustness_xpd", "", 8),
        ("norm_se_vs_snr", "overhead.n_s = 2", 8), ("maee_vs_snr", "", 64),
        ("maqe_bits", "", 64)])
    def test_chunk_holds_at_most_chunk_subcarriers(self, family, line, size, tmp_path,
                                                   monkeypatch):
        """A chunk holds TRIAL_CHUNK trials, or CHUNK_SUBCARRIERS // the
        subcarrier rows of a trial when that is fewer: a pilot_vs_tdm trial
        holds N rows (8 trials at N = 512, 4 at N = 1,024), a rate trial one
        N-row block per rx probing (2 at N = 256 give 8 trials, also at
        n_s = 2, whose 3 tx probings are correlated one at a time); the
        narrowband families keep TRIAL_CHUNK."""
        cfg = validate_config(f"experiment = {family}\n{line}\n")
        assert experiments._chunk_trials(experiments.setup_experiment(cfg)) == size
        if family != "pilot_vs_tdm":
            return
        chunks = []
        family_steps = experiments.FAMILIES[family]

        def compute(s, point, draws):
            chunks.append(len(draws))
            return family_steps.compute(s, point, draws)

        monkeypatch.setitem(experiments.FAMILIES, family, family_steps._replace(compute=compute))
        run_experiment(validate_config(f"experiment = {family}\ntrials = 10\n{line}\n"
                                       "plots = false\n"), str(tmp_path))
        assert chunks == [size] * (10 // size) + [10 % size]

    @pytest.mark.parametrize("overrides,budget", [({}, 2.0e6),
                                                  ({"el_range_deg": (-90.0, 90.0)}, 2.7e6)],
                             ids=["default", "el90"])
    def test_rate_chunk_peak_memory(self, overrides, budget):
        """One robustness_xpd compute step at the chunk size that
        _chunk_trials picks (8 trials) allocates at most 2.0 MB at its peak
        (tracemalloc; 1.61 MB measured), and at most 2.7 MB where the
        elevation stage runs (2.26 MB), so that a larger chunk cannot undo
        the lean kernels: the probing builds its pilot Grams and noise
        correlations one tx probing at a time (every elevation probing at
        once peaks at 4.07 MB) and per profile builds nothing per
        subcarrier, and the rate copies one slice of H_TR at a time (all of
        it: 3.58 and 3.63 MB)."""
        cfg = ExperimentConfig(experiment="robustness_xpd", trials=8, plots=False, **overrides)
        s = experiments.setup_experiment(cfg)
        chunk = experiments._chunk_trials(s)
        assert chunk == 8
        draws = [experiments._rate_draw(s, s.points[0], rng)
                 for rng in experiments._trial_rngs(cfg, 0, range(chunk))]
        experiments._rate_compute(s, s.points[0], draws)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            experiments._rate_compute(s, s.points[0], draws)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_tdm_reduce_names_a_beam_without_tdm_amplitude(self):
        """A beam whose mean TDM amplitude is 0 has no relative difference:
        the reduce step raises EmptyInput naming the beam, instead of
        writing inf."""
        s = experiments.setup_experiment(ExperimentConfig(experiment="pilot_vs_tdm"))
        amps = np.array([[[0.1, 0.2, 0.3, 0.4], [0.1, 0.25, 0.3, 0.5]]] * 3)
        table = experiments._tdm_reduce(s, [amps])["pilot_vs_tdm"]
        assert [float(r[5]) for r in table.rows[2:4]] == [0.2] * 2
        amps[:, 1, 1] = 0.0
        with pytest.raises(EmptyInput, match="pilot_vs_tdm beam 2: mean TDM amplitude is 0"):
            experiments._tdm_reduce(s, [amps])


# ---------------------------------------------------------------------------
# per-trial streams

def _seed_sequence_rng(cfg: ExperimentConfig, point: int, trial: int) -> np.random.Generator:
    """The stream of one trial as the counter scheme defines it."""
    key = [cfg.seed, experiments.FAMILY_IDS[cfg.experiment], point, trial]
    return np.random.default_rng(np.random.SeedSequence(key))


class TestStreams:
    TRIALS = [0, 1, 63, 64, 2 ** 32 - 1]

    @pytest.mark.parametrize("family", EXPERIMENTS)
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32 + 1, 2 ** 63],
                             ids=["0", "1", "2^32-1", "2^32+1", "2^63"])
    def test_chunk_seeding_is_seed_sequence(self, seed, family):
        """Every generator of a chunk is default_rng(SeedSequence([seed,
        family, point, trial])) state for state, the first trial, a chunk
        edge and the largest trial included, for a seed of one word and of
        two; and it draws the same numbers."""
        cfg = ExperimentConfig(experiment=family, seed=seed)
        for point in range(4):
            rngs = experiments._trial_rngs(cfg, point, self.TRIALS)
            for trial, rng in zip(self.TRIALS, rngs, strict=True):
                want = _seed_sequence_rng(cfg, point, trial)
                assert rng.bit_generator.state == want.bit_generator.state, (point, trial)
            assert rngs[-1].random(4).tobytes() == want.random(4).tobytes()

    @pytest.mark.parametrize("wrong", ["other trial", "advanced"])
    def test_guard_raises_on_a_wrong_state(self, wrong):
        """_check_stream passes the right generator and raises
        StreamMismatch for one in any other state."""
        cfg = ExperimentConfig(seed=3)
        experiments._check_stream(cfg, 1, 5, _seed_sequence_rng(cfg, 1, 5))
        rng = _seed_sequence_rng(cfg, 1, 6 if wrong == "other trial" else 5)
        if wrong == "advanced":
            rng.random()
        with pytest.raises(experiments.StreamMismatch, match=r"stream \[3, 0, 1, 5\]"):
            experiments._check_stream(cfg, 1, 5, rng)

    def test_a_run_with_wrong_seeding_fails(self, tmp_path, monkeypatch, capsys):
        """Seeding that strays from SeedSequence stops the run at the first
        chunk of a point, as a typed run failure, with no fallback."""
        states = experiments._stream_states

        def shifted(cfg, point, trials):
            return states(cfg, point, [t + 1 for t in trials])

        monkeypatch.setattr(experiments, "_stream_states", shifted)
        cfg = ExperimentConfig(trials=2, plots=False)
        with pytest.raises(experiments.StreamMismatch):
            experiments._trial_rngs(cfg, 0, range(2))
        experiments._trial_rngs(cfg, 0, range(64, 66))  # checked only at trial 0
        with pytest.raises(experiments.StreamMismatch):
            run_experiment(cfg, str(tmp_path / "api"))
        assert main(["run", "--trials", "2", "--no-plots", "--out-dir",
                     str(tmp_path / "cli")]) == 1
        err = capsys.readouterr().err
        assert "run failed: stream [1, 0, 0, 0]" in err and "Traceback" not in err

    def test_trials_fit_one_stream_word(self):
        """A trial is one 32-bit word of its stream's entropy, so 2**32
        trials are a config error."""
        assert ExperimentConfig(trials=2 ** 32 - 1).trials == 2 ** 32 - 1
        with pytest.raises(ConfigError, match="trials must lie in"):
            ExperimentConfig(trials=2 ** 32)


# ---------------------------------------------------------------------------
# command line

# configs whose setup must fail: before these checks, each passed validation
# and then failed in the first trial
_SLOTS_AND_POLARIZATION = [
    *((family, f"probing.{side} = 1") for family in ("norm_se_vs_snr", "robustness_xpd")
      for side in ("n_t", "m_t")),
    ("maee_vs_snr", "arrays.polarization = cross\ncodebook.el_range_deg = -90:90"),
    ("maee_vs_snr", "channel.n_nlos = -1")]
# a robustness family sets its swept parameter itself, maqe_bits its array
# width, and maqe_bits quantizes co-polarized books, so none of them reads
# that key; before their setup checks, such a value set in the config was
# ignored without a word
_IGNORED_SETTINGS = [("robustness_xpd", "channel.chi = 0.7"),
                     ("robustness_mismatch", "channel.varsigma_deg = 40"),
                     ("maqe_bits", "arrays.n_y = 4"),
                     ("maqe_bits", "arrays.polarization = cross")]
# probing sizes below 1, and one of the two probing totals: a 0 used to be
# replaced by the default, a negative n_select failed in the first trial, and
# a lone total was ignored for the STREAMS_TO_PROBINGS table
_PROBING_KEYS = [
    *((family, f"probing.{key} = {value}") for family in ("norm_se_vs_snr", "robustness_xpd")
      for key in ("n_t", "m_t", "n_select") for value in (0, -1)),
    ("norm_se_vs_snr", "overhead.n_tx_total = 7"),
    ("norm_se_vs_snr", "overhead.m_rx_total = 7")]
# probing totals and GoB codebook sizes below 1: each validated, then a
# negative GoB count ended the run in a traceback after every trial, and a
# 0 wrote an estimation time of 0
_OVERHEAD_SIZES = [
    ("norm_se_vs_snr", "overhead.n_bm = -10"), ("norm_se_vs_snr", "overhead.m_bm = 0"),
    ("norm_se_vs_snr", "overhead.n_tx_total = 0\noverhead.m_rx_total = 5"),
    ("norm_se_vs_snr", "overhead.n_tx_total = 5\noverhead.m_rx_total = -1")]
# the rate at infinite SNR is unbounded: each of these validated, then
# norm_se_vs_snr wrote nan rows and a robustness family raised EmptyInput
_INFINITE_SNR = [("norm_se_vs_snr", "snr_db = 10,inf"), ("robustness_xpd", "snr_db = inf"),
                 ("robustness_mismatch", "snr_db = inf")]
# the elevation stage's plan must fit the elevation book at n_s RF chains: a
# co-polarized rate family at the default n_s = 3 asks 3 distinct beams of 2,
# and a cross-polarized one at n_s = 1 over the full elevation range gives
# 2 slots for 4 beams; each validated, then its first trial ended the run in
# a traceback
_ELEVATION_PLAN = [
    *((family, "arrays.polarization = co")
      for family in ("norm_se_vs_snr", "robustness_mismatch", "robustness_xpd")),
    ("robustness_xpd", "overhead.n_s = 1\ncodebook.el_range_deg = -90:90")]
# a shift spacing of half the subcarriers or more: the rate families put an
# automatically chosen spacing in its place, where pilot_vs_tdm rejects it
_WIDE_SHIFT = [(family, "pilot.p = 200")
               for family in ("norm_se_vs_snr", "robustness_xpd", "robustness_mismatch")]
SETUP_REJECTS = [
    *((family, "channel.chi = -1") for family in (
        "pilot_vs_tdm", "norm_se_vs_snr", "robustness_mismatch", "robustness_xpd")),
    *_SLOTS_AND_POLARIZATION, *_IGNORED_SETTINGS, *_PROBING_KEYS, *_OVERHEAD_SIZES,
    *_INFINITE_SNR, *_ELEVATION_PLAN, *_WIDE_SHIFT]


# A value of every family key and the lines it needs besides, at which the
# key moves at least one CSV byte of every family that reads it: range keys
# snap to whole beams, so each range moves a beam, and a key in CONDITIONAL,
# read only under a condition, gets the condition first, then books wide
# enough that its beams still pair. A family leaves out the lines of keys it
# does not read, as those reach nothing of it.
KEY_VALUES = {
    "snr_db": ("0", ""), "n_x": ("8", ""), "n_y": ("16", ""), "m_tot": ("8", ""),
    "polarization": ("co", "overhead.n_s = 2"), "k_factor_db": ("3", ""), "n_nlos": ("2", ""),
    "bandwidth": ("250mhz", ""), "n_clusters": ("4", ""), "subpaths": ("2", ""),
    "chi": ("0.4", ""), "varsigma_deg": ("40", ""), "az_range_deg": ("-90:90", ""),
    "el_range_deg": ("-90:90", ""), "rx_range_deg": ("-60:60", ""),
    "delta_mode": ("commensurate",
                   "codebook.el_range_deg = -90:90\narrays.n_y = 16\narrays.m_tot = 8"),
    "ell": ("2", "codebook.delta_mode = commensurate\ncodebook.el_range_deg = -90:90\n"
                 "arrays.n_x = 8\narrays.n_y = 32\narrays.m_tot = 16"),
    "p": ("2", ""), "roots": ("23,29,31,37", ""), "coprime_with": ("n_minus_1", ""),
    "dc_zero": ("yes", ""), "bits": ("2", ""), "epsilon_t": ("2000", ""),
    "t_tot": ("400", ""), "n_bm": ("20", ""), "m_bm": ("8", ""), "n_s": ("2", ""),
    # the totals are set together; 30 and 25 are the STREAMS_TO_PROBINGS entry of n_s = 3
    "n_tx_total": ("40", "overhead.n_tx_total = 30\noverhead.m_rx_total = 25"),
    "m_rx_total": ("30", "overhead.n_tx_total = 30\noverhead.m_rx_total = 25"),
    "n_t": ("3", ""), "m_t": ("3", ""), "n_select": ("2", ""),
}
CONDITIONAL = {"ell"}  # read under codebook.delta_mode = commensurate alone
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_FIELDS_BY_KEY = {experiments._dotted(f): f.name for f in _FIELDS.values()}


def _key_line(name: str, value: str) -> str:
    return f"{experiments._dotted(_FIELDS[name])} = {value}"


@functools.lru_cache(maxsize=None)
def _csv_bytes(family: str, lines: str) -> bytes:
    """The CSV of a one- or two-trial run of `family` under `lines`."""
    trials = 2 if family in ("maee_vs_snr", "maqe_bits") else 1
    cfg = validate_config(f"experiment = {family}\ntrials = {trials}\nplots = false\n{lines}\n")
    with tempfile.TemporaryDirectory() as out:
        [path] = run_experiment(cfg, out)["files"]
        with open(path, "rb") as fh:
            return fh.read()


class TestKeyRule:
    def test_every_family_key_has_a_value(self):
        assert set(KEY_VALUES) == set(_FIELDS) - experiments._RUN
        assert all(experiments.FAMILIES[f].reads <= set(KEY_VALUES) for f in EXPERIMENTS)

    @pytest.mark.parametrize("family,key", [(f, k) for f in EXPERIMENTS for k in KEY_VALUES],
                             ids=[f"{f}-{k}" for f in EXPERIMENTS for k in KEY_VALUES])
    def test_a_family_reads_a_key_or_rejects_it(self, family, key, tmp_path, capsys):
        """A key outside the family's reads, set alone, is an invalid config
        naming the family and the key in both validate and run, with no
        traceback and no output directory; so is a CONDITIONAL key without
        its condition. A key inside the reads moves a CSV byte at its
        KEY_VALUES value."""
        value, context = KEY_VALUES[key]
        reads = experiments.FAMILIES[family].reads
        if key not in reads or key in CONDITIONAL:
            path = tmp_path / "cfg.cfg"
            path.write_text(f"experiment = {family}\ntrials = 1\n{_key_line(key, value)}\n",
                            encoding="utf-8")
            assert main(["validate", str(path)]) == 1
            assert main(["run", str(path), "--out-dir", str(tmp_path / "out"),
                         "--no-plots"]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err and not (tmp_path / "out").exists()
            assert err.count(f"invalid config: {family} does not read "
                             f"{experiments._dotted(_FIELDS[key])} here; leave it unset") == 2
        if key not in reads:
            return
        context = "\n".join(line for line in context.splitlines()
                            if line.split(" =")[0].rpartition(".")[2] in reads)
        assert _csv_bytes(family, context) != _csv_bytes(family,
                                                         f"{context}\n{_key_line(key, value)}")

    @pytest.mark.parametrize("family,line", [("robustness_xpd", "channel.chi = 0.2"),
                                             ("maqe_bits", "arrays.n_y = 8")])
    def test_a_key_written_at_its_default_is_set(self, family, line, tmp_path, capsys):
        """A key the family does not read is rejected when the config text
        writes it, even at its default value; both of these validated
        before. The written keys survive the command line's overrides."""
        key = line.split(" =")[0]
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\ntrials = 1\n{line}\n", encoding="utf-8")
        assert validate_config(path.read_text(encoding="utf-8")).written == \
            {"experiment", "trials", _FIELDS_BY_KEY[key]}
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--seed", "2", "--out-dir", str(tmp_path / "out"),
                     "--no-plots"]) == 1
        err = capsys.readouterr().err
        assert err.count(f"invalid config: {family} does not read {key} here; "
                         "leave it unset") == 2
        assert not (tmp_path / "out").exists()
        experiments.setup_experiment(validate_config(f"experiment = {family}\n"))


class TestCli:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert list(EXPERIMENTS) == out

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text("trials = 4\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert "ok: experiment=maee_vs_snr trials=4" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["maqe_bits", "pilot_correlation"])
    def test_validate_prints_no_snr_grid_where_none_is_read(self, family, tmp_path, capsys):
        """validate prints the SNR grid only for a family that reads one;
        it printed the unread 10, 15 and 20 dB here."""
        path = tmp_path / "ok.cfg"
        path.write_text(f"experiment = {family}\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == f"ok: experiment={family} trials=500 seed=1\n"

    def test_validate_bad(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("trials = zero\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_run_with_overrides(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = pilot_correlation\n", encoding="utf-8")
        code = main(["run", str(path), "--trials", "1", "--seed", "3",
                     "--out-dir", str(tmp_path / "out"), "--no-plots"])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed and printed[0].endswith("pilot_correlation.csv")
        assert os.path.exists(printed[0])

    @pytest.mark.parametrize("line", [
        "arrays.polarization = diag", "codebook.delta_mode = foo",
        "arrays.n_x = 0", "pilot.coprime_with = m", "overhead.n_s = 0",
        "overhead.epsilon_t = 0", "quantizer.bits = -1", "quantizer.bits = 0",
        "snr_db = -inf", "snr_db = nan", "seed = -1", "channel.k_factor_db = nan",
        "channel.k_factor_db = inf", "channel.chi = nan", "channel.chi = inf",
        "channel.varsigma_deg = nan", "channel.varsigma_deg = -inf", "quantizer.bits = 13",
        "quantizer.bits = 40", "channel.bandwidth = bogus"])
    def test_bad_values_are_invalid_config(self, line, tmp_path, capsys):
        """Values the array, codebook, pilot and overhead settings reject
        fail validation, so run stops before any trial: among them a
        quantizer above MAX_BITS, whose worst-case sweep of maqe_bits would
        not fit in memory, and a bandwidth name with no OFDM profile."""
        path = tmp_path / "bad.cfg"
        path.write_text(f"experiment = robustness_xpd\ntrials = 1\n{line}\n",
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out"),
                     "--no-plots"]) == 1
        assert capsys.readouterr().err.count("invalid config") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "codebook.az_range_deg = 10:-10", "codebook.el_range_deg = 5:5",
        "codebook.rx_range_deg = 30:-30", "codebook.az_range_deg = nan:60",
        "codebook.rx_range_deg = -90:nan"])
    def test_bad_coverage_ranges_are_invalid_config(self, line, tmp_path, capsys):
        """A coverage range with hi <= lo or a NaN bound fails validation
        (the codebook config checks it), so run stops before any trial."""
        path = tmp_path / "bad.cfg"
        path.write_text(f"trials = 1\n{line}\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out"),
                     "--no-plots"]) == 1
        err = capsys.readouterr().err
        assert err.count("invalid config") == 2 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family,line", [
        *((family, line) for family in EXPERIMENTS for line in (
            "channel.bandwidth = foo", "pilot.p = 0", "pilot.roots = 2",
            "arrays.m_tot = 1", "channel.subpaths = 0", "channel.n_clusters = 0",
            "channel.chi = -1", "seed = -1")),
        ("pilot_vs_tdm", "arrays.polarization = co"),
        ("norm_se_vs_snr", "overhead.n_s = 4"),
        *_SLOTS_AND_POLARIZATION, *_IGNORED_SETTINGS, *_PROBING_KEYS, *_OVERHEAD_SIZES,
        *_INFINITE_SNR, *_ELEVATION_PLAN, *_WIDE_SHIFT])
    def test_validate_rejects_what_run_rejects(self, family, line, tmp_path,
                                               capsys):
        """validate runs the family's setup, so it exits 1 exactly when run
        does; neither ends in a traceback, and a rejected run makes no
        output directory."""
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\ntrials = 1\n{line}\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        validated = main(["validate", str(path)])
        ran = main(["run", str(path), "--out-dir", str(out), "--no-plots"])
        err = capsys.readouterr().err
        assert validated == ran
        assert "Traceback" not in err
        assert err.count("invalid config") == 2 * ran
        assert out.exists() == (ran == 0)

    @pytest.mark.parametrize("family,line", SETUP_REJECTS)
    def test_setup_rejects_what_a_trial_would_fail_on(self, family, line):
        """A negative chi (on every family with a cluster profile), a slot
        budget that cannot probe every azimuth or receive beam, a set key
        the family does not read (the polarization of the co-pol Rician
        channel or maqe_bits' co-pol books, the parameter a robustness
        family or maqe_bits sweeps), an infinite SNR for a rate family and
        an elevation plan that does not fit the elevation book fail in the
        setup."""
        cfg = validate_config(f"experiment = {family}\n{line}\n")
        with pytest.raises(ConfigError):
            experiments.setup_experiment(cfg)

    @pytest.mark.parametrize("line,message", [
        ("arrays.n_y = 4", "maqe_bits does not read arrays.n_y here; leave it unset"),
        ("arrays.polarization = cross",
         "maqe_bits does not read arrays.polarization here; leave it unset")])
    def test_maqe_bits_setup_names_what_it_ignores(self, line, message):
        """maqe_bits sweeps the array width itself and quantizes co-polarized
        books, so it reads neither key: the setup names the key and the
        family."""
        cfg = validate_config(f"experiment = maqe_bits\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            experiments.setup_experiment(cfg)

    @pytest.mark.parametrize("family", ["norm_se_vs_snr", "robustness_mismatch",
                                        "robustness_xpd"])
    def test_co_pol_rate_setup_names_the_elevation_plan(self, family):
        """Co-polarized arrays leave 2 elevation beams: at the default n_s = 3
        the setup names overhead.n_s and the beam count, where the first
        trial raised InfeasibleCoverage; at n_s = 2 the plan fits."""
        cfg = validate_config(f"experiment = {family}\narrays.polarization = co\n")
        with pytest.raises(ConfigError, match="elevation stage at overhead.n_s = 3: 3 distinct "
                                              "columns requested from a 2-beam codebook"):
            experiments.setup_experiment(cfg)
        experiments.setup_experiment(dataclasses.replace(cfg, n_s=2))

    @pytest.mark.parametrize("line,missing", [("overhead.n_tx_total = 7", "m_rx_total"),
                                              ("overhead.m_rx_total = 7", "n_tx_total")])
    def test_probing_totals_are_set_together(self, line, missing):
        """One probing total alone names the other; both set replace the
        STREAMS_TO_PROBINGS entry of n_s."""
        cfg = validate_config(f"experiment = norm_se_vs_snr\n{line}\n")
        with pytest.raises(ConfigError, match=f"overhead.{missing} is unset"):
            experiments.setup_experiment(cfg)
        cfg = validate_config("experiment = norm_se_vs_snr\noverhead.n_tx_total = 7\n"
                              "overhead.m_rx_total = 9\n")
        assert experiments.setup_experiment(cfg).iters["abp"] == 3 * 7 * 3 * 9

    def test_probing_keys_are_used_when_set(self):
        """A set probing size is used as it is; an unset one takes its
        default (n_select: overhead.n_s)."""
        unset = experiments.setup_experiment(validate_config("experiment = robustness_xpd\n"))
        assert (unset.n_t, unset.m_t, unset.n_select) == (2, 2, 3)
        cfg = validate_config("experiment = robustness_xpd\nprobing.n_t = 5\n"
                              "probing.m_t = 6\nprobing.n_select = 1\n")
        s = experiments.setup_experiment(cfg)
        assert (s.n_t, s.m_t, s.n_select) == (5, 6, 1)

    @pytest.mark.parametrize("family,line,n", [
        ("norm_se_vs_snr", "", 256), ("robustness_xpd", "", 256), ("pilot_vs_tdm", "", 512),
        ("norm_se_vs_snr", "channel.bandwidth = 125mhz", 512),
        ("robustness_mismatch", "channel.bandwidth = 250mhz", 1024),
        ("pilot_vs_tdm", "channel.bandwidth = desk", 256)])
    def test_bandwidth_unset_is_the_family_default(self, family, line, n):
        """One bandwidth table for every family: an unset bandwidth is desk
        scale (N = 256) for the rate families and 125mhz (N = 512) for
        pilot_vs_tdm, and a set one is its profile in every family."""
        cfg = validate_config(f"experiment = {family}\n{line}\n")
        assert experiments.setup_experiment(cfg).ofdm.n_subcarriers == n

    @pytest.mark.parametrize("family,grid", [
        ("maee_vs_snr", (10.0, 15.0, 20.0)), ("norm_se_vs_snr", (10.0, 15.0, 20.0)),
        ("pilot_vs_tdm", (10.0,)), ("robustness_xpd", (10.0,)),
        ("robustness_mismatch", (10.0,))])
    def test_snr_unset_is_the_family_default(self, family, grid):
        """An unset snr_db is 10, 15 and 20 dB where a family sweeps the
        SNR, and 10 dB where it runs at one; the setup's points are that
        grid."""
        cfg = validate_config(f"experiment = {family}\n")
        assert experiments.setup_experiment(cfg).points == grid

    @pytest.mark.parametrize("family", experiments.ONE_SNR_FAMILIES)
    def test_one_snr_families_reject_a_grid(self, family, tmp_path, capsys):
        """pilot_vs_tdm and the robustness families run at one SNR: a grid
        of two values fails validate and run as an invalid config, where it
        ran at its first value alone. One set value is run."""
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\ntrials = 1\nsnr_db = 10,20\n",
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 1
        err = capsys.readouterr().err
        assert err.count(f"invalid config: {family} runs at one SNR; snr_db holds 2 values") == 2
        assert not (tmp_path / "out").exists()
        cfg = validate_config(f"experiment = {family}\nsnr_db = -10\n")
        assert experiments.setup_experiment(cfg).points == (-10.0,)

    @pytest.mark.parametrize("family", EXPERIMENTS)
    def test_clusters_below_one_are_invalid(self, family):
        """channel.n_clusters < 1 is a config error in every family; the
        rate families ran it with n_s clusters."""
        with pytest.raises(ConfigError, match="channel.n_clusters must be >= 1"):
            validate_config(f"experiment = {family}\nchannel.n_clusters = 0\n")

    @pytest.mark.parametrize("family", ["norm_se_vs_snr", "robustness_xpd",
                                        "robustness_mismatch"])
    def test_rate_families_need_a_cluster_per_stream(self, family):
        """A rate family rejects fewer clusters than streams, naming both
        keys, where it ran with n_s clusters; from n_s clusters up, its
        profiles have the clusters as set."""
        cfg = validate_config(f"experiment = {family}\noverhead.n_s = 2\nchannel.n_clusters = 1\n")
        with pytest.raises(ConfigError,
                           match="channel.n_clusters = 1 is below overhead.n_s = 2"):
            experiments.setup_experiment(cfg)
        for n in (2, 4):
            cfg = validate_config(f"experiment = {family}\noverhead.n_s = 2\n"
                                  f"channel.n_clusters = {n}\n")
            assert {p.n_clusters for p in experiments.setup_experiment(cfg).profiles} == {n}

    def test_quantizer_bits_up_to_the_ceiling(self):
        assert validate_config(f"quantizer.bits = {experiments.MAX_BITS}").bits == 12
        with pytest.raises(ConfigError, match="quantizer.bits must lie in 1..12"):
            validate_config(f"quantizer.bits = {experiments.MAX_BITS + 1}")

    @pytest.mark.parametrize("family", ["norm_se_vs_snr", "pilot_vs_tdm"])
    def test_swept_keys_set_the_profile_elsewhere(self, family):
        """The keys the robustness families sweep are ordinary settings of
        the other cluster-profile families."""
        cfg = validate_config(f"experiment = {family}\nchannel.chi = 0.7\n"
                              "channel.varsigma_deg = 40\n")
        profile = experiments.setup_experiment(cfg).profile
        assert profile.chi == 0.7 and profile.varsigma == math.radians(40.0)

    @pytest.mark.parametrize("family", EXPERIMENTS)
    def test_validate_runs_no_trial(self, family, tmp_path, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("validate drew a channel")

        # what the draw steps call: channel draws, the sweep noise
        for name in ("_clustered_draws", "_rician_draws", "_sweep_normals"):
            monkeypatch.setattr(experiments, name, no_trial)
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: experiment={family} ")

    @pytest.mark.parametrize("family", ["maee_vs_snr", "pilot_vs_tdm"])
    def test_infinite_snr_is_noiseless_outside_the_rate_families(self, family, tmp_path):
        """snr_db = inf stays legal where it means a noiseless run: it
        validates, runs and writes numbers. A rate family names it."""
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\ntrials = 2\nsnr_db = inf\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 0
        assert "nan" not in (tmp_path / "out" / f"{family}.csv").read_text(encoding="utf-8")
        cfg = validate_config("experiment = norm_se_vs_snr\nsnr_db = 10,inf\n")
        with pytest.raises(ConfigError, match="norm_se_vs_snr needs finite snr_db values"):
            experiments.setup_experiment(cfg)

    @pytest.mark.parametrize("error", [EmptyInput, NoSignal, BothZero,
                                       InsufficientNeighbors, FloatingPointError])
    def test_typed_run_failure(self, error, tmp_path, capsys, monkeypatch):
        """A typed error raised while a valid config runs ends the run with
        'run failed' on stderr, exit status 1 and no traceback."""
        def failing(s, point, draws):
            raise error("no usable trial")

        family = experiments.FAMILIES["maqe_bits"]
        monkeypatch.setitem(experiments.FAMILIES, "maqe_bits",
                            family._replace(compute=failing))
        path = tmp_path / "cfg.cfg"
        path.write_text("experiment = maqe_bits\ntrials = 2\n", encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out"),
                     "--no-plots"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "run failed: no usable trial\n"
        assert captured.out == ""

    @pytest.mark.parametrize("family", [f for f in EXPERIMENTS
                                        if "snr_db" in experiments.FAMILIES[f].reads])
    def test_snr_outside_the_float_range_is_an_invalid_config(self, family, tmp_path,
                                                               capsys):
        """validate and run at 3,083 dB report an invalid config in every
        family that reads snr_db, with no traceback and no output."""
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\ntrials = 2\nsnr_db = 3083\n",
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 1
        err = capsys.readouterr().err
        assert err.count("invalid config: snr_db = 3083 dB is outside the float range") == 2
        assert not (tmp_path / "out").exists()

    # numpy warns of the overflow these runs provoke; the run's failure is
    # what is checked
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("family,snr,trials", [
        ("maee_vs_snr", "-3080", 2), ("robustness_xpd", "200", 16)])
    def test_non_finite_result_is_a_run_failure(self, family, snr, trials, tmp_path, capsys):
        """A point whose trials compute a NaN or infinite value ends the
        run with 'run failed' naming the family and the SNR point, and no
        CSV is written; these runs wrote nan cells."""
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\ntrials = {trials}\nseed = 1\n"
                        f"snr_db = {snr}\n", encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--no-plots"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"run failed: {family} at snr_db = {snr}: a trial's result "
                                "is not finite\n")
        assert captured.out == "" and list((tmp_path / "out").iterdir()) == []

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "invalid config" in capsys.readouterr().err
