"""Write the CSVs of the byte-identity matrix for the tree this script sits
in, one directory per case, so that two trees compare with one `diff -r`:

    python tools/byte_cases.py OUT_DIR

The matrix: every family at seeds 0-2 at its golden trial count;
norm_se_vs_snr, robustness_xpd and robustness_mismatch at 5 and 40 trials
and seeds 0-2, at the default elevation range and under one of -90:90, each
alone, with overhead.n_s = 2, with channel.subpaths = 4 and with both; the
same three at 9 trials (one 8-trial chunk and a remainder of 1) and seeds
0-2, at the default elevation range and under -90:90; the same three on
co-polarized arrays (arrays.polarization = co, which needs
codebook.el_range_deg = -90:90: the default range fails setup with
ConfigError) at 9 trials and seeds 0-2, which put the q = 1 path layout
into the matrix; the same three with probing.n_select = 1 and = 5 (fewer
and more estimated paths than the 3 streams, which steer at path j mod P)
at 9 trials and seeds 0-2, at the default elevation range and under
-90:90; the same three at channel.n_clusters = 4 and = 6 (the rate's tap
planes grow with the square of the cluster count) at 9 trials and seeds 0-2;
maee_vs_snr at arrays.n_x = 6, arrays.n_y = 7 and seeds 0-2, whose estimates
reach the (0, 0) transmit direction that _fill_angles fills; pilot_vs_tdm at
seeds 0-2 and its golden trial count with pilot.dc_zero = true,
channel.bandwidth = 250mhz and = desk, channel.subpaths = 4 and
channel.n_clusters = 6 (each changes the lag table or the pulse samples), and
at 65 trials (one 64-trial chunk and a remainder of 1); pilot_vs_tdm and
the rate families at a set snr_db = -10 and seeds 0-2, at their golden trial
counts; every family at seed 2**32 + 1, whose stream entropy spans two
words, at its golden trial count; the four chunks families at their
golden overrides (150 trials, seed 1: one chunk per point for maee_vs_snr,
several for the others); maee_vs_snr at 171 trials and seeds 0-2, one
170-trial chunk and a remainder of 1; and at seeds 0-2, every family with
trials at 1 trial (a chunk of one), maee_vs_snr and pilot_vs_tdm at
snr_db = inf and their golden trial counts (maee_vs_snr then draws no
sweep normals, pilot_vs_tdm draws its noise and scales it by 0), and
pilot_vs_tdm with channel.n_clusters = 6 and channel.subpaths = 4 at its
golden trial count (24 paths a trial, which shrink its chunk). 320 cases
in all."""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from beampair.experiments import EXPERIMENTS, ExperimentConfig, run_experiment  # noqa: E402
from test_golden import CHUNKS, CHUNKS_FAMILIES, EL90, GOLDEN_TRIALS  # noqa: E402

RATE_FAMILIES = ("norm_se_vs_snr", "robustness_xpd", "robustness_mismatch")
TRIAL_FAMILIES = [f for f in EXPERIMENTS if f != "pilot_correlation"]
TDM_VARIANTS = {"-dc0": {"dc_zero": True}, "-250mhz": {"bandwidth": "250mhz"},
                "-desk": {"bandwidth": "desk"}, "-sub4": {"subpaths": 4},
                "-nc6": {"n_clusters": 6}}
VARIANTS = {"": {}, "-ns2": {"n_s": 2}, "-sub4": {"subpaths": 4},
            "-ns2-sub4": {"n_s": 2, "subpaths": 4}}
BIG_SEED = 2 ** 32 + 1


def cases():
    """(case name, ExperimentConfig keyword arguments) of every case."""
    for seed in range(3):
        for family in EXPERIMENTS:
            yield f"{family}-s{seed}", {"experiment": family, "seed": seed,
                                        "trials": GOLDEN_TRIALS[family]}
        yield f"maee_vs_snr-s{seed}-nx6-ny7", {"experiment": "maee_vs_snr", "seed": seed,
                                             "trials": GOLDEN_TRIALS["maee_vs_snr"],
                                             "n_x": 6, "n_y": 7}
        tdm = {"experiment": "pilot_vs_tdm", "seed": seed,
               "trials": GOLDEN_TRIALS["pilot_vs_tdm"]}
        for name, extra in TDM_VARIANTS.items():
            yield f"pilot_vs_tdm-s{seed}{name}", {**tdm, **extra}
        yield f"pilot_vs_tdm-s{seed}-t65", {**tdm, "trials": 65}
        for family in ("pilot_vs_tdm", *RATE_FAMILIES):
            yield f"{family}-s{seed}-snr-10", {"experiment": family, "seed": seed,
                                               "trials": GOLDEN_TRIALS[family],
                                               "snr_db": (-10.0,)}
        for family in RATE_FAMILIES:
            for trials in (5, 40):
                base = {"experiment": family, "seed": seed, "trials": trials}
                for name, extra in VARIANTS.items():
                    yield f"{family}-s{seed}-t{trials}{name}", {**base, **extra}
                    yield f"{family}-s{seed}-t{trials}-el90{name}", {**base, **EL90, **extra}
            base = {"experiment": family, "seed": seed, "trials": 9}
            yield f"{family}-s{seed}-t9", base
            yield f"{family}-s{seed}-t9-el90", {**base, **EL90}
            yield f"{family}-s{seed}-t9-co-el90", {**base, **EL90, "polarization": "co"}
            for n_select in (1, 5):
                sel = {**base, "n_select": n_select}
                yield f"{family}-s{seed}-t9-sel{n_select}", sel
                yield f"{family}-s{seed}-t9-el90-sel{n_select}", {**sel, **EL90}
            for n_clusters in (4, 6):
                yield f"{family}-s{seed}-t9-nc{n_clusters}", {**base, "n_clusters": n_clusters}
        yield f"maee_vs_snr-s{seed}-t171", {"experiment": "maee_vs_snr", "seed": seed,
                                            "trials": 171}
        for family in TRIAL_FAMILIES:
            yield f"{family}-s{seed}-t1", {"experiment": family, "seed": seed, "trials": 1}
        for family in ("maee_vs_snr", "pilot_vs_tdm"):
            yield f"{family}-s{seed}-snr-inf", {"experiment": family, "seed": seed,
                                                "trials": GOLDEN_TRIALS[family],
                                                "snr_db": (math.inf,)}
        yield f"pilot_vs_tdm-s{seed}-nc6-sub4", {**tdm, "n_clusters": 6, "subpaths": 4}
    for family in EXPERIMENTS:
        yield f"{family}-s{BIG_SEED}", {"experiment": family, "seed": BIG_SEED,
                                        "trials": GOLDEN_TRIALS[family]}
    for family in CHUNKS_FAMILIES:
        yield f"{family}-chunks", {"experiment": family, "seed": 1, **CHUNKS}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    for name, kwargs in cases():
        run_experiment(ExperimentConfig(plots=False, **kwargs), str(out / name))
        print(name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
