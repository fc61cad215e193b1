"""Span tracing of beampair's layers, applied from outside the package.

Every public module-level function of a layer module is wrapped at run time,
under every name that binds it anywhere in the package (``from .x import y``
copies the binding into the caller's namespace, so wrapping only the
defining module would miss most calls). Each wrapped call records a span
(name, start, end, parent) and bumps the counters in ``COUNTERS``.
``traced()`` restores every rebound name on exit, also after an exception.
"""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time

PACKAGE = "beampair"
LAYERS = ("geometry", "channel", "codebook", "pilot", "estimator", "metrics",
          "experiments", "cli")


@dataclasses.dataclass(slots=True)
class Span:
    name: str  # qualified as "<layer>.<function>"
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    """In-memory span list and counters for one traced region."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def layer_of(self, index: int) -> str | None:
        return None if index < 0 else self.spans[index].name.split(".")[0]

    def wrap(self, fn, qualname: str):
        counter = COUNTERS.get(qualname)
        tracer = self

        # The clock is read first and last, so that the wrapper's own
        # bookkeeping and counter are charged to the wrapped layer, not its
        # caller: only the call into the wrapper and the final store are not.
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            start = time.perf_counter()
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(qualname, start, start, parent)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.end = time.perf_counter()  # for counters that time the call
                    counter(tracer, span, args, result)
                return result
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()

        return traced_call


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach, span.start), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """Per-layer ``calls`` and ``self_s`` plus the counters, as one flat dict."""
    spans = tracer.spans
    totals = {}
    for layer in LAYERS:
        totals[f"{layer}.calls"] = 0
        totals[f"{layer}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        layer = span.name.split(".")[0]
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_s"] += own
    totals.update(tracer.counts)
    return totals


# ---------------------------------------------------------------------------
# counters, keyed by the qualified name of the wrapped function

def _count_realization(tracer, span, args, result):
    # a realization is counted once, where it leaves the channel layer
    from beampair.channel import ChannelRealization
    if isinstance(result, ChannelRealization) \
            and tracer.layer_of(span.parent) != "channel":
        blocks = result.blocks or {}
        tracer.add("channel.dense_bytes",
                   result.h.nbytes + sum(b.nbytes for b in blocks.values()))


def _count_subcarriers(tracer, span, args, result):
    h = getattr(args[0], "h", args[0])
    tracer.add("metrics.se_subcarriers", h.shape[0] if h.ndim == 3 else 1)


def _count_report(tracer, span, args, result):
    tracer.add("estimator.probes", result.iterations)
    if result.scheme == "abp":  # grid-of-beams reports form no pairs at all
        tracer.add("estimator.abp_paths", len(result.paths))
        tracer.add("estimator.elevation_fallbacks",
                   sum("elevation" not in p.pairs for p in result.paths))


def _tally(key: str):
    def count(tracer, span, args, result):
        tracer.add(key)
    return count


def _count_probing(tracer, span, args, result):
    tracer.add("pilot.refs_correlated", result.values.size)


def _count_emit(tracer, span, args, result):
    tracer.add("experiments.csv_bytes", os.path.getsize(result))
    tracer.add("experiments.emit_s", span.end - span.start)


COUNTERS = {
    "channel.clustered_channel_generate": _count_realization,
    "channel.rician_narrowband": _count_realization,
    "channel.copol_frequency_response": _count_realization,
    "channel.crosspol_frequency_response": _count_realization,
    "metrics.spectral_efficiency": _count_subcarriers,
    "estimator.estimate_single_path": _count_report,
    "estimator.gob_estimate": _count_report,
    "estimator.estimate_multipath": _count_report,
    "codebook.tx_beam_vector": _tally("codebook.beam_vectors"),
    "codebook.rx_beam_vector": _tally("codebook.beam_vectors"),
    "geometry.ula_steering": _tally("geometry.steering_calls"),
    "geometry.upa_steering": _tally("geometry.steering_calls"),
    "pilot.correlate_zero_lag": _tally("pilot.refs_correlated"),
    "pilot.correlate_probing": _count_probing,
    "experiments.emit_outputs": _count_emit,
}


# ---------------------------------------------------------------------------
# wrapping and restoring

def layer_functions() -> dict:
    """Original function object -> "<layer>.<name>" for every public
    module-level function that a layer module defines."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_") \
                    and obj.__module__ == module.__name__:
                out[obj] = f"{layer}.{name}"
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every name in the package that holds a layer function to a
    wrapper recording into ``tracer``; restore all of them on exit."""
    originals = layer_functions()
    wrappers = {fn: tracer.wrap(fn, qualname) for fn, qualname in originals.items()}
    rebound = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    try:
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    rebound.append((module, name, obj))
        yield tracer
    finally:
        for module, name, obj in rebound:
            setattr(module, name, obj)


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per line: name, start, end (seconds), parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
