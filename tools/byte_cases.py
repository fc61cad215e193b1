"""Write the pinned case matrix for the tree this script sits in, one
`<case>.csv` per case (each case writes one table) in a flat directory:

    python tools/byte_cases.py tests/golden/cases

tests/test_golden.py reruns every case and compares it with that directory,
so this one command regenerates the pinned set after an intended change of
the numbers (and removes the CSV of a case that is gone), and
`git diff --stat tests/golden/cases` shows which cases moved. Written for
two checkouts into two directories, the cases compare with one `diff -r`.

The matrix: every family at seeds 0-2 at its base trial count (TRIALS);
norm_se_vs_snr, robustness_xpd and robustness_mismatch at 5 and 40 trials
and seeds 0-2, at the default elevation range and under one of -90:90, each
alone, with overhead.n_s = 2, with channel.subpaths = 4 and with both; the
same three at 9 trials (one 8-trial chunk and a remainder of 1) and seeds
0-2, at the default elevation range and under -90:90; the same three on
co-polarized arrays (arrays.polarization = co, which needs
codebook.el_range_deg = -90:90: the default range fails setup with
ConfigError) at 9 trials and seeds 0-2, which put the q = 1 path layout into
the matrix; the same three with probing.n_select = 1 and = 5 (fewer and more
estimated paths than the 3 streams, which steer at path j mod P) at 9 trials
and seeds 0-2, at the default elevation range and under -90:90; the same
three at channel.n_clusters = 4 and = 6 (the rate's tap planes grow with the
square of the cluster count) at 9 trials and seeds 0-2; the same three at
channel.n_clusters = 6 with channel.subpaths = 4 (24 paths a trial, which
shrink the rate chunk to 3 trials) at 9 trials and seeds 0-2, at the default
elevation range and under -90:90; robustness_xpd and robustness_mismatch
at 9 trials and seeds 0-2 with overhead.n_s = 1, alone and on one path
(channel.n_clusters = 1, channel.subpaths = 1), whose one-stream products
are matrix-vector shapes (norm_se_vs_snr rejects n_s = 1 without probing
totals); maee_vs_snr at arrays.n_x = 6,
arrays.n_y = 7 and seeds 0-2, whose estimates reach the (0, 0) transmit
direction that _fill_angles fills; pilot_vs_tdm at seeds 0-2 and its base trial count with
pilot.dc_zero = true, channel.bandwidth = 250mhz and = desk,
channel.subpaths = 4 and channel.n_clusters = 6 (each changes the lag table
or the pulse samples), and at 65 trials (one 64-trial chunk and a remainder
of 1); pilot_vs_tdm and the rate families at a set snr_db = -10 and seeds
0-2, at their base trial counts; every family at seed 2**32 + 1, whose
stream entropy spans two words, at its base trial count; the four
CHUNKS_FAMILIES at 150 trials and seed 1 (one chunk per point for
maee_vs_snr, several for the others); maee_vs_snr at 171 trials and seeds
0-2, one 170-trial chunk and a remainder of 1; and at seeds 0-2, every
family with trials at 1 trial (a chunk of one), maee_vs_snr and pilot_vs_tdm
at snr_db = inf and their base trial counts (maee_vs_snr then draws no sweep
normals, pilot_vs_tdm draws its noise and scales it by 0), and pilot_vs_tdm
with channel.n_clusters = 6 and channel.subpaths = 4 at its base trial count
(24 paths a trial, which shrink its chunk); and at seeds 0-2 on an
arrays.n_x = 8, arrays.n_y = 16 transmit array (128 elements a
polarization, 44 transmit grid columns), each over one full chunk and a
remainder of 1: maee_vs_snr at 47 trials, with and without
channel.n_nlos = 0, pilot_vs_tdm at 17, and the rate families at 8, at the
default elevation range and under -90:90; and pilot_vs_tdm at seeds 0-2 on a
32-element receive array (arrays.m_tot = 32, whose receive factors shrink
its chunk to 32 trials) at 33 trials, one full chunk and a remainder of 1.
380 cases in all."""

import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from beampair.experiments import EXPERIMENTS, ExperimentConfig, run_experiment  # noqa: E402

# each family's base trial count: small, so that the matrix runs in seconds
TRIALS = {
    "maee_vs_snr": 40,
    "maqe_bits": 200,
    "pilot_correlation": 1,
    "pilot_vs_tdm": 10,
    "norm_se_vs_snr": 5,
    "robustness_mismatch": 5,
    "robustness_xpd": 5,
}
# the elevation range under which the multi-path elevation stage runs for
# every selected path (the default cross-pol codebook has one elevation beam
# per polarization, so the default never runs it)
EL90 = {"el_range_deg": (-90.0, 90.0)}
CHUNKS_FAMILIES = ("maee_vs_snr", "pilot_vs_tdm", "norm_se_vs_snr", "robustness_xpd")
RATE_FAMILIES = ("norm_se_vs_snr", "robustness_xpd", "robustness_mismatch")
ROBUSTNESS_FAMILIES = RATE_FAMILIES[1:]
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
                                        "trials": TRIALS[family]}
        yield f"maee_vs_snr-s{seed}-nx6-ny7", {"experiment": "maee_vs_snr", "seed": seed,
                                             "trials": TRIALS["maee_vs_snr"],
                                             "n_x": 6, "n_y": 7}
        tdm = {"experiment": "pilot_vs_tdm", "seed": seed,
               "trials": TRIALS["pilot_vs_tdm"]}
        for name, extra in TDM_VARIANTS.items():
            yield f"pilot_vs_tdm-s{seed}{name}", {**tdm, **extra}
        yield f"pilot_vs_tdm-s{seed}-t65", {**tdm, "trials": 65}
        for family in ("pilot_vs_tdm", *RATE_FAMILIES):
            yield f"{family}-s{seed}-snr-10", {"experiment": family, "seed": seed,
                                               "trials": TRIALS[family],
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
            paths = {**base, "n_clusters": 6, "subpaths": 4}
            yield f"{family}-s{seed}-t9-nc6-sub4", paths
            yield f"{family}-s{seed}-t9-el90-nc6-sub4", {**paths, **EL90}
        for family in ROBUSTNESS_FAMILIES:
            one = {"experiment": family, "seed": seed, "trials": 9, "n_s": 1}
            yield f"{family}-s{seed}-t9-ns1", one
            yield f"{family}-s{seed}-t9-ns1-nc1-sub1", {**one, "n_clusters": 1, "subpaths": 1}
        yield f"maee_vs_snr-s{seed}-t171", {"experiment": "maee_vs_snr", "seed": seed,
                                            "trials": 171}
        for family in TRIAL_FAMILIES:
            yield f"{family}-s{seed}-t1", {"experiment": family, "seed": seed, "trials": 1}
        for family in ("maee_vs_snr", "pilot_vs_tdm"):
            yield f"{family}-s{seed}-snr-inf", {"experiment": family, "seed": seed,
                                                "trials": TRIALS[family],
                                                "snr_db": (math.inf,)}
        yield f"pilot_vs_tdm-s{seed}-nc6-sub4", {**tdm, "n_clusters": 6, "subpaths": 4}
        big = {"seed": seed, "n_x": 8, "n_y": 16}
        maee = {**big, "experiment": "maee_vs_snr", "trials": 47}
        yield f"maee_vs_snr-s{seed}-t47-nx8-ny16", maee
        yield f"maee_vs_snr-s{seed}-t47-nx8-ny16-nlos0", {**maee, "n_nlos": 0}
        yield f"pilot_vs_tdm-s{seed}-t17-nx8-ny16", {**big, "experiment": "pilot_vs_tdm",
                                                     "trials": 17}
        for family in RATE_FAMILIES:
            rate = {**big, "experiment": family, "trials": 8}
            yield f"{family}-s{seed}-t8-nx8-ny16", rate
            yield f"{family}-s{seed}-t8-el90-nx8-ny16", {**rate, **EL90}
        yield f"pilot_vs_tdm-s{seed}-t33-mtot32", {**tdm, "trials": 33, "m_tot": 32}
    for family in EXPERIMENTS:
        yield f"{family}-s{BIG_SEED}", {"experiment": family, "seed": BIG_SEED,
                                        "trials": TRIALS[family]}
    for family in CHUNKS_FAMILIES:
        yield f"{family}-chunks", {"experiment": family, "seed": 1, "trials": 150}


def write_case(name: str, kwargs: dict, out: Path) -> Path:
    """Run one case and write its one table as out/<name>.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        [path] = run_experiment(ExperimentConfig(plots=False, **kwargs), tmp)["files"]
        return Path(shutil.move(path, out / f"{name}.csv"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    names = set()
    for name, kwargs in cases():
        write_case(name, kwargs, out)
        names.add(name)
        print(name, flush=True)
    for stale in sorted(p for p in out.glob("*.csv") if p.stem not in names):
        stale.unlink()
        print("removed", stale.name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
