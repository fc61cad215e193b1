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
-90:90;
maee_vs_snr at arrays.n_x = 6, arrays.n_y = 7 and seeds 0-2, whose estimates
reach the (0, 0) transmit direction that _fill_angles fills; pilot_vs_tdm and
the rate families at a set snr_db = -10 and seeds 0-2, at their golden trial
counts; every family at seed 2**32 + 1, whose stream entropy spans two
words, at its golden trial count; and the four chunks families at their
golden overrides (150 trials, seed 1)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from beampair.experiments import EXPERIMENTS, ExperimentConfig, run_experiment  # noqa: E402
from test_golden import CHUNKS, CHUNKS_FAMILIES, EL90, GOLDEN_TRIALS  # noqa: E402

RATE_FAMILIES = ("norm_se_vs_snr", "robustness_xpd", "robustness_mismatch")
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
