"""Smoke test for demos/ and README's examples: each runs to completion in a
fresh interpreter with src on the path and prints something."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_examples_run():
    """README's ```python blocks, in order, as one script (a later block
    uses names that an earlier one defines)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 2
    proc = _run(["-c", "\n".join(blocks)])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == len(blocks)
