"""Tests of the benchmark's own parts: span self time, the reference
comparison and its 9-digit tolerance, and restoring the traced names."""

import inspect
import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from checks import check_table, compare_values  # noqa: E402
from tracing import Span, Tracer, layer_totals, self_times, traced  # noqa: E402


def test_self_time_subtracts_children_only_once():
    spans = [Span("cli.main", 0.0, 10.0, -1),
             Span("experiments.run_experiment", 1.0, 4.0, 0),
             Span("channel.pulse_coefficients", 2.0, 3.0, 1),
             Span("metrics.ci95", 5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("cli.main", 0.0, 10.0, -1),
             Span("metrics.maee", 1.0, 4.0, 0),
             Span("metrics.ci95", 3.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_layer_totals_sum_self_time_per_layer():
    tracer = Tracer()
    tracer.spans = [Span("geometry.upa_steering", 0.0, 3.0, -1),
                    Span("geometry.ula_steering", 0.5, 1.0, 0),
                    Span("geometry.ula_steering", 1.0, 1.5, 0)]
    totals = layer_totals(tracer)
    assert totals["geometry.calls"] == 3
    assert totals["geometry.self_s"] == pytest.approx(3.0)
    assert totals["channel.calls"] == 0


@pytest.mark.parametrize("got, ref, ok", [
    ("0.123456789", "0.123456789", True),
    ("0.12345679", "0.123456789", True),    # one unit in the ninth digit
    ("0.123456791", "0.123456789", False),  # two units
    ("1.00000001", "1", True),
    ("1.00000002", "1", False),
    ("9.99999999", "9.99999998", True),
    ("-0.0300161487", "-0.0300161486", True),
    ("1e-20", "0", False),
])
def test_compare_values_allows_one_unit_in_the_ninth_digit(got, ref, ok):
    rel, within = compare_values(float(got), float(ref))
    assert within is ok
    assert (rel == 0.0) == (got == ref)


REF = "snr_db,scheme,maee_deg,ci95\n10,abp,5.6635383,0.600919609\n15,abp,4.99240755,0.489860676\n"
KEYS = ("snr_db", "scheme")


def test_check_table_at_the_reference_seed():
    assert check_table(REF, REF, KEYS, compare=True) == ([], 0.0)
    flipped = REF.replace("0.600919609", "0.600919608")
    problems, worst = check_table(flipped, REF, KEYS, compare=True)
    assert problems == [] and 0 < worst < 2e-9
    moved = REF.replace("4.99240755", "4.99240757")
    problems, worst = check_table(moved, REF, KEYS, compare=True)
    assert len(problems) == 1 and "maee_deg" in problems[0]
    assert worst == pytest.approx(2e-8 / 4.99240755)


def test_check_table_at_other_seeds_checks_invariants_only():
    other = REF.replace("5.6635383", "7.25").replace("0.489860676", "0.3")
    assert check_table(other, REF, KEYS, compare=False) == ([], 0.0)
    for bad, why in (("-7.25", "negative"), ("nan", "not finite"),
                     ("inf", "not finite"), ("x", "not a number")):
        problems, _ = check_table(other.replace("7.25", bad), REF, KEYS, compare=False)
        assert len(problems) == 1 and why in problems[0]
    problems, _ = check_table(other.replace("15,abp", "15,gob"), REF, KEYS, compare=False)
    assert problems == ["row keys differ from reference"]
    problems, _ = check_table(other.replace("ci95", "ci"), REF, KEYS, compare=False)
    assert problems and "columns" in problems[0]


def _bindings():
    import beampair.cli  # noqa: F401  (the package itself leaves cli out)
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name == "beampair" or name.startswith("beampair.")
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def test_traced_wraps_caller_bindings_and_restores_them():
    import beampair.codebook
    import beampair.estimator
    import beampair.geometry
    before = _bindings()
    tracer = Tracer()
    with traced(tracer):
        assert beampair.estimator.tx_beam_vector is not \
            before[("beampair.estimator", "tx_beam_vector")]
        assert beampair.codebook.upa_steering is not \
            before[("beampair.codebook", "upa_steering")]
        beampair.geometry.upa_steering(0.1, 0.2, 2, 2)
    assert [s.name for s in tracer.spans] == ["geometry.upa_steering",
                                             "geometry.ula_steering",
                                             "geometry.ula_steering"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts == {"geometry.steering_calls": 3}
    assert _bindings() == before


def test_counter_cost_is_charged_to_the_wrapped_span(monkeypatch):
    import beampair.geometry
    seen = []
    monkeypatch.setitem(tracing.COUNTERS, "geometry.ula_steering",
                        lambda *_: seen.append(time.perf_counter()))
    tracer = Tracer()
    with traced(tracer):
        beampair.geometry.ula_steering(0.1, 2)
    [span] = tracer.spans
    assert span.start < seen[0] < span.end


def test_traced_restores_names_after_an_exception():
    import beampair.geometry
    before = _bindings()
    with pytest.raises(ValueError):
        with traced(Tracer()):
            beampair.geometry.ula_steering(0.1, 0)  # m < 1 raises
    assert _bindings() == before


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert sorted((run.REFERENCE_DIR / name).glob("*.csv"))
