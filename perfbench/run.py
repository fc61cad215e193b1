"""Benchmark of beampair's experiment families, run through its CLI.

    python3 perfbench/run.py --workload maee_narrowband --seed 1 --seconds 35 --trace 0

Run from the repository root. Each workload is one family at a fixed trial
count, written as a config file from ``--seed`` and run in this process
through ``beampair.cli.main(["run", ...])`` with BLAS pinned to one thread.
The first call warms up; the following calls are timed until ``--seconds``
have passed. Every call's CSVs are checked (see checks.py). Times are stated
at a fixed host speed (see ``HOST_REF_S``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced calls with calls traced layer by layer (see tracing.py) and reports
the per-layer metrics of one call plus the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object. NOTES.md says
why each workload and metric is there.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench_out"
REFERENCE_SEED = 1
MIN_TIMED_CALLS = 3

sys.path.insert(0, str(BENCH_DIR))
from checks import check_table  # noqa: E402
from tracing import LAYERS, Tracer, layer_totals, traced, write_spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    family: str
    trials: int
    points: int  # sweep points per trial, fixed by the family's default config
    keys: tuple[str, ...]  # columns that identify a CSV row


WORKLOADS = {
    "maee_narrowband": Workload("maee_vs_snr", 150, 3,
                                ("snr_db", "scheme", "domain")),
    "xpd_wideband": Workload("robustness_xpd", 8, 4,
                             ("experiment", "snr_db", "scheme", "metric")),
    "pilot_tdm_512": Workload("pilot_vs_tdm", 60, 1,
                              ("beam", "root", "b", "scheme")),
}

END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

COUNTS = {
    "channel.dense_bytes": "B", "metrics.se_subcarriers": "count",
    "estimator.probes": "count", "codebook.beam_vectors": "count",
    "geometry.steering_calls": "count", "pilot.refs_correlated": "count",
    "experiments.csv_bytes": "B",
}
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **COUNTS,
    "estimator.elevation_fallback_frac": "frac",
    "experiments.emit_s": "s",
    "trace.trials_per_s": "1/s",
    "trace.overhead_frac": "frac",
}
TIMES = [name for name, unit in PER_LAYER.items() if unit == "s"]

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import beampair.cli; "
              "sys.exit(beampair.cli.main(['validate', sys.argv[2]]))")

# The speed of the shared host drifts by a third over tens of minutes, and
# beampair's throughput and set-up time drift with it. A fresh interpreter
# importing numpy, which runs no beampair code, is timed next to every call;
# the time metrics are stated as if that import had taken HOST_REF_S.
CALIBRATION_CODE = "import numpy"
HOST_REF_S = 0.2


def pin_blas_threads() -> None:
    """One BLAS thread; takes effect only before numpy is first imported, and
    is inherited by the set-up children."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def config_text(work: Workload, seed: int) -> str:
    return (f"experiment = {work.family}\ntrials = {work.trials}\n"
            f"seed = {seed}\nplots = false\n")


class Runner:
    """Runs one workload's calls and checks every call's output."""

    def __init__(self, cli, name: str, seed: int, cfg_path: Path, out_dir: Path):
        self.cli = cli
        self.work = WORKLOADS[name]
        self.ref_dir = REFERENCE_DIR / name
        self.compare = seed == REFERENCE_SEED
        self.cfg_path = cfg_path
        self.out_dir = out_dir
        self.first_output: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.rel_dev = 0.0

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"failed: {why}", file=sys.stderr)

    def call(self) -> float | None:
        """One ``beampair run``; returns trial-points per second, or None
        when the call raised, exited non-zero or wrote wrong output."""
        self.attempted += 1
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = self.cli.main(["run", str(self.cfg_path),
                                    "--out-dir", str(self.out_dir)])
        except (Exception, SystemExit):  # a failing call is counted, not fatal
            traceback.print_exc()
            self.fail("beampair run raised")
            return None
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.fail(f"beampair run returned {rc}")
            return None
        problems = self.check(stdout.getvalue().splitlines())
        if problems:
            self.fail("; ".join(problems))
            return None
        return self.work.trials * self.work.points / elapsed

    def setup(self) -> float | None:
        """Wall time of a fresh interpreter importing beampair and validating
        the workload config through the CLI, or None when that failed."""
        return self.interpreter("validate", "ok:", SETUP_CODE, str(SRC),
                                str(self.cfg_path))

    def calibrate(self) -> float | None:
        """Wall time of a fresh interpreter importing numpy."""
        return self.interpreter("calibration", "", CALIBRATION_CODE)

    def interpreter(self, what: str, expect: str, *argv: str) -> float | None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", *argv], capture_output=True,
                                  text=True, timeout=60, cwd=ROOT)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            self.fail(f"{what} did not finish within 60 s")
            return None
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith(expect):
            self.fail(f"{what} exited {proc.returncode}: {proc.stderr.strip()}")
            return None
        return elapsed

    def check(self, paths: list[str]) -> list[str]:
        output = {Path(p).name: Path(p).read_text(encoding="utf-8") for p in paths}
        expected = sorted(p.name for p in self.ref_dir.glob("*.csv"))
        if sorted(output) != expected:
            return [f"wrote {sorted(output)}, expected {expected}"]
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            return ["output differs from the first call of this run"]
        problems = []
        for name, text in output.items():
            ref_text = (self.ref_dir / name).read_text(encoding="utf-8")
            found, worst = check_table(text, ref_text, self.work.keys, self.compare)
            problems += [f"{name}: {p}" for p in found]
            self.rel_dev = max(self.rel_dev, worst)
        return problems


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """Timed calls, each followed by one set-up and one calibration
    measurement, so that all three sample the same stretch of machine time.
    Returns the metrics, a description of each, and the wall-clock figures
    before the host-speed correction."""
    runner.call()  # warm-up, checked but not timed
    rates, setups, calibrations = [], [], []
    t_end = time.perf_counter() + seconds
    calls = 0
    while calls < MIN_TIMED_CALLS or time.perf_counter() < t_end:
        calls += 1
        for measure, values in ((runner.call, rates), (runner.setup, setups),
                                (runner.calibrate, calibrations)):
            value = measure()
            if value is not None:
                values.append(value)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wallclock = {
        "trials_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "calibration_s": statistics.median(calibrations) if calibrations else 0.0,
    }
    slowdown = wallclock["calibration_s"] / HOST_REF_S
    metrics = {
        "trials_per_s": wallclock["trials_per_s"] * slowdown,
        "setup_s": wallclock["setup_s"] / slowdown if slowdown else 0.0,
        "peak_rss_mb": rss_mb,
    }
    at_ref = (f", wall clock; scaled by the calibration, "
              f"{wallclock['calibration_s']:.4g} s against {HOST_REF_S} s")
    detail = {
        "trials_per_s": _spread(rates, "calls") + at_ref,
        "setup_s": _spread(setups, "fresh interpreters") + at_ref,
        "peak_rss_mb": "peak resident memory of this process",
    }
    return metrics, detail, wallclock


def _spread(values: list[float], what: str) -> str:
    if not values:
        return f"no successful {what}"
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median of {len(values)} {what}, q1 {q1:.6g}, q3 {q3:.6g}"


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, str]:
    """Alternate untraced and traced calls; per-layer figures are per call."""
    runner.call()  # warm-up
    plain, rates, per_call = [], [], []
    tracer = None
    t_end = time.perf_counter() + seconds
    calls = 0
    while calls < MIN_TIMED_CALLS or time.perf_counter() < t_end:
        calls += 1
        rate = runner.call()
        if rate is not None:
            plain.append(rate)
        tracer = Tracer()
        with traced(tracer):
            rate = runner.call()
        if rate is not None:
            rates.append(rate)
            per_call.append(layer_totals(tracer))
    write_spans(tracer.spans, spans_path)
    if not per_call:
        return {name: 0.0 for name in PER_LAYER}, "no successful traced call"
    first = per_call[0]
    for other in per_call[1:]:
        changed = [k for k in first if k not in TIMES and other.get(k) != first[k]]
        if changed:
            runner.fail(f"per-layer counts differ between traced calls: {changed}")
    metrics = {name: first.get(name, 0) for name in PER_LAYER}
    for name in TIMES:
        metrics[name] = statistics.median(c.get(name, 0.0) for c in per_call)
    paths = first.get("estimator.abp_paths", 0)
    metrics["estimator.elevation_fallback_frac"] = \
        first.get("estimator.elevation_fallbacks", 0) / paths if paths else 0.0
    metrics["trace.trials_per_s"] = statistics.median(rates)
    untraced = statistics.median(plain) if plain else 0.0
    metrics["trace.overhead_frac"] = untraced / metrics["trace.trials_per_s"] - 1.0
    detail = (f"{len(per_call)} traced calls at {metrics['trace.trials_per_s']:.6g} "
              f"trial-points/s against {len(plain)} untraced at {untraced:.6g}; "
              f"spans of the last call in {spans_path.relative_to(ROOT)}")
    return metrics, detail


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    modules = sorted((SRC / "beampair").glob("*.py"))
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in modules}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "beampair" / "__init__.py").is_file():
        print(f"no beampair sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import beampair.cli
    if Path(beampair.cli.__file__).resolve().parent != SRC / "beampair":
        print(f"imported beampair from {beampair.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg_path = run_dir / "workload.cfg"
        cfg_path.write_text(config_text(work, args.seed), encoding="utf-8")
        runner = Runner(beampair.cli, args.workload, args.seed, cfg_path,
                        run_dir / "out")
        if args.trace:
            metrics, detail = run_traced(runner, args.seconds,
                                         WORK_DIR / f"{args.workload}.spans.jsonl")
            units = PER_LAYER
        else:
            metrics, detail, wallclock = run_untraced(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}: family {work.family}, {work.trials} trials x "
          f"{work.points} points per call, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    if args.trace:
        print(f"tracing: {detail}")
        for name, unit in units.items():
            print(f"{name:36s} {metrics[name]:.6g} {unit}")
    else:
        print("wallclock " + json.dumps(wallclock))
        for name, unit in units.items():
            print(f"{name:16s} {metrics[name]:.6g} {unit} ({detail[name]})")
        if runner.compare:
            print(f"{'result_rel_dev':16s} {runner.rel_dev:.6g} (largest relative "
                  f"deviation from perfbench/reference/{args.workload})")
        else:
            print(f"{'result_rel_dev':16s} n/a (seed {args.seed} is not the reference "
                  f"seed {REFERENCE_SEED}; invariants checked)")
    print(f"{'failed_frac':16s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
