"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/baseline.py

Run from the repository root. For every workload it runs ``run.py`` once per
seed 1 to 10 with tracing off, then twice with tracing on at the reference seed, and
writes per workload: the environment of the first run; the median, quartiles
and spread ((q3 - q1) / median) of each end-to-end metric and of the
wall-clock figures before the host-speed correction; and the per-layer
metrics of both traced runs with the names of any counts on which they
disagree, into ``perfbench/baseline.json``.
"""

import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, PER_LAYER, REFERENCE_SEED, ROOT, TIMES, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """Metric values of one run, and the environment and wall-clock figures
    it printed (the latter empty for a traced run)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported a wrong result:\n{proc.stderr}")
    printed = {key: json.loads(rest) for key, _, rest in
               (line.partition(" ") for line in proc.stdout.splitlines())
               if key in ("env", "wallclock")}
    return ({name: m["value"] for name, m in result["metrics"].items()},
            printed["env"], printed.get("wallclock", {}))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    report = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, 0) for seed in SEEDS]
        end_to_end = {name: summarize([r[name] for r, _, _ in runs]) for name in runs[0][0]}
        wallclock = {name: summarize([w[name] for _, _, w in runs]) for name in runs[0][2]}
        traced = [run_once(workload, REFERENCE_SEED, 1)[0] for _ in range(2)]
        counts = [name for name in PER_LAYER if name not in TIMES
                  and not name.startswith("trace.")]
        report[workload] = {
            "seeds": SEEDS,
            "env": runs[0][1],
            "end_to_end": end_to_end,
            "wallclock": wallclock,
            "per_layer": traced,
            "counts_differ": [n for n in counts if traced[0][n] != traced[1][n]],
        }
        for name, s in {**end_to_end, **{f"wall.{k}": v for k, v in wallclock.items()}}.items():
            print(f"{workload:16s} {name:18s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
        print(f"{workload:16s} traced counts differ: {report[workload]['counts_differ']}")
    (BENCH_DIR / "baseline.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
