"""Rewrite the reference CSVs in perfbench/reference/ at the reference seed.

    python3 perfbench/make_reference.py

Run from the repository root, only for a change that is meant to alter the
numbers a family writes; the benchmark compares against these files.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from run import (REFERENCE_DIR, REFERENCE_SEED, SRC, WORK_DIR, WORKLOADS,
                 config_text, pin_blas_threads)


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import beampair.cli
    WORK_DIR.mkdir(exist_ok=True)
    for name, work in WORKLOADS.items():
        target = REFERENCE_DIR / name
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            cfg = Path(tmp) / "workload.cfg"
            cfg.write_text(config_text(work, REFERENCE_SEED), encoding="utf-8")
            out = Path(tmp) / "out"
            if beampair.cli.main(["run", str(cfg), "--out-dir", str(out)]) != 0:
                print(f"{name}: beampair run failed", file=sys.stderr)
                return 1
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
