"""The pinned case matrix: every case of tools/byte_cases.py, rerun, must
reproduce its table in tests/golden/cases/<case>.csv to 1e-9 relative (text
cells exactly). A refactor that changes a number, the order of RNG draws, or
a family's RNG stream id fails here, and so does a case that setup rejects.

The case list lives in tools/byte_cases.py alone. After an intended change
of the numbers, regenerate the pinned set with

    python tools/byte_cases.py tests/golden/cases"""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

CASES_DIR = Path(__file__).parent / "golden" / "cases"
_SPEC = importlib.util.spec_from_file_location(
    "byte_cases", Path(__file__).resolve().parents[1] / "tools" / "byte_cases.py")
byte_cases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(byte_cases)
CASES = list(byte_cases.cases())
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


def test_pinned_files_are_the_cases():
    """One pinned CSV per case and nothing else: a missing file, or a stale
    one whose case is gone, fails here."""
    names = [name for name, _ in CASES]
    assert len(set(names)) == len(names), "case names repeat"
    pinned = {p.name for p in CASES_DIR.iterdir()}
    wanted = {f"{name}.csv" for name in names}
    assert not wanted - pinned, f"missing pinned files: {sorted(wanted - pinned)}"
    assert not pinned - wanted, f"pinned files of no case: {sorted(pinned - wanted)}"


@pytest.mark.parametrize("name,kwargs", CASES, ids=[name for name, _ in CASES])
def test_case_matches_pinned(name, kwargs, tmp_path):
    got = _rows(byte_cases.write_case(name, kwargs, tmp_path))
    want = _rows(CASES_DIR / f"{name}.csv")
    assert got[0] == want[0], "header changed"
    assert len(got) == len(want), "row count changed"
    for lineno, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(g_row) == len(w_row), f"line {lineno}: width changed"
        bad = [(g, w) for g, w in zip(g_row, w_row) if not _cells_match(g, w)]
        assert not bad, f"{name}.csv line {lineno}: got/want {bad}"
