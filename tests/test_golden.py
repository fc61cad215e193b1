"""Golden-CSV regression net: every experiment family, rerun at seeds 0 and 1
with small trial counts, must reproduce the pinned tables in tests/golden/
(seed 0) and tests/golden/seed1/ to 1e-9 relative (text cells exactly). A
refactor that changes a number, the order of RNG draws, or a family's RNG
stream id fails here.

The pinned tables were written by the same calls as below; to regenerate
after an intended change of the numbers, run each family with
run_experiment(ExperimentConfig(experiment=..., trials=GOLDEN_TRIALS[...],
seed=s, plots=False), GOLDEN_DIRS[s]), and the el90 and chunks cases with
their overrides below.

tests/golden/chunks/ pins maee_vs_snr, pilot_vs_tdm, norm_se_vs_snr and
robustness_xpd at seed 1 and 150 trials. pilot_vs_tdm (N = 512) and the rate
families run 8 trials a chunk, so several chunks each, the last one partial;
maee_vs_snr runs up to 170 trials a chunk, so one (tools/byte_cases.py
crosses its chunk boundary at 171 trials)."""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

from beampair.experiments import EXPERIMENTS, ExperimentConfig, run_experiment, setup_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_DIRS = {0: GOLDEN_DIR, 1: GOLDEN_DIR / "seed1"}
# seed-0 tables with the elevation stage running: directory, config overrides
EL90_DIR, EL90 = GOLDEN_DIR / "el90", {"el_range_deg": (-90.0, 90.0)}
EL90_FAMILIES = ("norm_se_vs_snr", "robustness_xpd")
# seed-1 tables at 150 trials, several chunks in most families: directory, overrides
CHUNKS_DIR, CHUNKS = GOLDEN_DIR / "chunks", {"trials": 150}
CHUNKS_FAMILIES = ("maee_vs_snr", "pilot_vs_tdm", "norm_se_vs_snr", "robustness_xpd")
GOLDEN_TRIALS = {
    "maee_vs_snr": 40,
    "maqe_bits": 200,
    "pilot_correlation": 1,
    "pilot_vs_tdm": 10,
    "norm_se_vs_snr": 5,
    "robustness_mismatch": 5,
    "robustness_xpd": 5,
}
RTOL = 1e-9


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cells_match(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0)


def test_every_family_has_a_golden_table():
    assert set(GOLDEN_TRIALS) == set(EXPERIMENTS)
    for golden in GOLDEN_DIRS.values():
        assert {p.stem for p in golden.glob("*.csv")} == set(EXPERIMENTS)
    assert {p.stem for p in EL90_DIR.glob("*.csv")} == set(EL90_FAMILIES)
    assert {p.stem for p in CHUNKS_DIR.glob("*.csv")} == set(CHUNKS_FAMILIES)


# (family, seed, overrides, golden directory). Seed-0 cases keep their bare
# family ids, so existing test ids stay stable; seed-1 cases get a "-seed1"
# suffix, the elevation-stage cases "-el90", the multi-chunk cases "-chunks".
CASES = [(family, seed, {}, golden) for seed, golden in GOLDEN_DIRS.items()
         for family in EXPERIMENTS] \
    + [(family, 0, EL90, EL90_DIR) for family in EL90_FAMILIES] \
    + [(family, 1, CHUNKS, CHUNKS_DIR) for family in CHUNKS_FAMILIES]
IDS = [f if golden == GOLDEN_DIR else f"{f}-{golden.name}" for f, _, _, golden in CASES]


@pytest.mark.parametrize("family,seed,overrides,golden", CASES, ids=IDS)
def test_family_matches_golden(family, seed, overrides, golden, tmp_path):
    cfg = ExperimentConfig(**{"experiment": family, "trials": GOLDEN_TRIALS[family],
                              "seed": seed, "plots": False, **overrides})
    [path] = run_experiment(cfg, str(tmp_path))["files"]
    got, want = _rows(Path(path)), _rows(golden / f"{family}.csv")
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), "row count changed"
    for lineno, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(g_row) == len(w_row), f"line {lineno}: width changed"
        bad = [(g, w) for g, w in zip(g_row, w_row) if not _cells_match(g, w)]
        assert not bad, f"{family}.csv line {lineno}: got/want {bad}"


def test_byte_cases_and_golden_cases_pass_setup():
    """Every case of tools/byte_cases.py and every golden case sets only keys
    its family reads, so the byte-identity matrix and the goldens hold no
    config that setup_experiment rejects."""
    path = Path(__file__).resolve().parents[1] / "tools" / "byte_cases.py"
    spec = importlib.util.spec_from_file_location("byte_cases", path)
    byte_cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(byte_cases)
    for _, kwargs in byte_cases.cases():
        setup_experiment(ExperimentConfig(plots=False, **kwargs))
    for family, seed, overrides, _ in CASES:
        setup_experiment(ExperimentConfig(**{"experiment": family, "seed": seed,
                                             "trials": GOLDEN_TRIALS[family], **overrides}))
