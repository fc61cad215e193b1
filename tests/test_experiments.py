"""Experiment driver tests: config parsing, CSV round trips, small
deterministic runs of each family, and the command-line interface."""

import csv
import math
import os

from dataclasses import fields

import numpy as np
import pytest

from beampair import experiments
from beampair.channel import clustered_channel_generate
from beampair.cli import main
from beampair.experiments import (EXPERIMENTS, ConfigError, ExperimentConfig,
                                  IoError, ParseError, ResultTable,
                                  emit_outputs, load_config, parse_snr_grid,
                                  run_experiment, validate_config)

# ---------------------------------------------------------------------------
# SNR grid parsing

class TestParseSnrGrid:
    def test_colon_form_inclusive(self):
        assert parse_snr_grid("-10:5:20") == (-10.0, -5.0, 0.0, 5.0, 10.0,
                                              15.0, 20.0)
        assert parse_snr_grid("0:2.5:5") == (0.0, 2.5, 5.0)

    def test_unicode_minus(self):
        assert parse_snr_grid("−10:5:0") == (-10.0, -5.0, 0.0)

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
        assert cfg.snr_db == (10.0, 15.0, 20.0)

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

    @pytest.mark.parametrize("family", ["norm_se_vs_snr", "pilot_vs_tdm"])
    def test_trials_never_build_the_dense_tensor(self, family, tmp_path,
                                                 monkeypatch):
        """Estimation, rate and pilot correlation work from the path factors:
        no realization of a rate trial (estimate + three rates) or of a
        pilot_vs_tdm trial reads its dense h."""
        made = []

        def recording(*args, **kwargs):
            made.append(clustered_channel_generate(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(experiments, "clustered_channel_generate", recording)
        cfg = validate_config(f"experiment = {family}\ntrials = 1\n"
                              "snr_db = 10\nplots = false\n")
        run_experiment(cfg, str(tmp_path))
        assert len(made) == 1
        assert "h" not in made[0].__dict__

    def test_plot_emitted(self, tmp_path):
        pytest.importorskip("matplotlib")
        cfg = validate_config("trials = 2\nsnr_db = 10,20\n")
        files = run_experiment(cfg, str(tmp_path))["files"]
        pngs = [f for f in files if f.endswith(".png")]
        assert len(pngs) == 1
        assert os.path.getsize(pngs[0]) > 0


# ---------------------------------------------------------------------------
# command line

# configs whose setup must fail: before these checks, each passed validation
# and then failed in the first trial
_SLOTS_AND_POLARIZATION = [
    *((family, f"probing.{side} = 1") for family in ("norm_se_vs_snr", "robustness_xpd")
      for side in ("n_t", "m_t")),
    ("maee_vs_snr", "arrays.polarization = cross\ncodebook.el_range_deg = -90:90")]
# a robustness family sets its swept parameter itself; before its setup check,
# a value set in the config was ignored without a word
_SWEPT_KEY_SET = [("robustness_xpd", "channel.chi = 0.7"),
                  ("robustness_mismatch", "channel.varsigma_deg = 40")]
SETUP_REJECTS = [
    *((family, "channel.chi = -1") for family in (
        "pilot_vs_tdm", "norm_se_vs_snr", "robustness_mismatch", "robustness_xpd")),
    *_SLOTS_AND_POLARIZATION, *_SWEPT_KEY_SET]


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
        "overhead.epsilon_t = 0", "quantizer.bits = -1", "quantizer.bits = 0"])
    def test_bad_values_are_invalid_config(self, line, tmp_path, capsys):
        """Values the array, codebook, pilot and overhead settings reject
        fail validation, so run stops before any trial."""
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
            "channel.chi = -1")),
        ("pilot_vs_tdm", "arrays.polarization = co"),
        ("norm_se_vs_snr", "overhead.n_s = 4"),
        *_SLOTS_AND_POLARIZATION, *_SWEPT_KEY_SET])
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
        budget that cannot probe every azimuth or receive beam, cross-pol
        arrays for the co-pol Rician channel and a value for the parameter a
        robustness family sweeps fail in the setup."""
        cfg = validate_config(f"experiment = {family}\n{line}\n")
        with pytest.raises(ConfigError):
            experiments.setup_experiment(cfg)

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

        monkeypatch.setattr(experiments, "clustered_channel_generate", no_trial)
        monkeypatch.setattr(experiments, "rician_narrowband", no_trial)
        path = tmp_path / "cfg.cfg"
        path.write_text(f"experiment = {family}\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: experiment={family} ")

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "invalid config" in capsys.readouterr().err
