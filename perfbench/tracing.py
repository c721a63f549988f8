"""Outside-in tracing of the dahp pipelines.

The pipelines look their collaborators up as module globals at call time,
so rebinding those names from outside records every call into a layer
without touching ``src/``.  Each traced call becomes a span ``[name, start,
end, parent]`` kept in memory; counting hooks read results (LP solutions,
search metadata) and fixed-point map arguments at the same boundaries.
A name that a later version of the package no longer has is reported as
absent instead of failing the run.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import time
from collections import Counter

# (module, attribute, span or counter name).  Spans give a layer's time;
# a counter-only wrap leaves the time with the caller's span.
SPANS = [
    ("dahp.experiments", "load_series", "timeseries.load"),
    ("dahp.experiments", "draw_population", "config.draw_population"),
    ("dahp.experiments", "build_consumer_model", "demand.build"),
    ("dahp.experiments", "aggregate", "demand.aggregate"),
    ("dahp.experiments", "pareto_front", "pricing.pareto_front"),
    ("dahp.experiments", "benchmark_trace", "pricing.benchmark_trace"),
    ("dahp.experiments", "benefit_split", "renewable.benefit_split"),
    ("dahp.experiments", "optimize_price_with_storage", "storage.search"),
    ("dahp.experiments", "simulate_day", "simulate.day"),
    ("dahp.experiments", "baseline_thermostat", "simulate.baseline"),
    ("dahp.storage", "simplex_solve", "optim.simplex"),
    ("dahp.renewable", "fixed_point", "optim.fixed_point"),
    ("dahp.simulate", "substream", "simulate.substream"),
]
COUNTERS = [
    ("dahp.experiments", "optimal_price", "pricing.optimal_price"),
    ("dahp.pricing", "optimal_price", "pricing.optimal_price"),
    ("dahp.renewable", "optimal_price", "pricing.optimal_price"),
    ("dahp.storage", "optimal_price", "pricing.optimal_price"),
    ("dahp.storage", "pattern_search", "optim.pattern_search"),
]


class Tracer:
    """Spans and counts of one traced round at a time; ``install`` wraps the
    package's names, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.plans: set[bytes] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self.plans = [], Counter(), set()

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name in SPANS + COUNTERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            spanned = (module_name, attr, name) in SPANS
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, spanned))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for the command itself)."""
        return self._wrap(name, fn, True)(*args, **kwargs)

    def _wrap(self, name: str, fn, spanned: bool):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            if not spanned:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
                self.spans.append(span)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.counts[name + ".failures"] += 1
                    raise
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans."""
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own


def _count_map_evals(tracer: Tracer, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    def counting(map_fn):
        def counted(x):
            tracer.counts["optim.fixed_point.map_evals"] += 1
            return map_fn(x)

        return counted

    if "map_fn" in kwargs:
        return args, {**kwargs, "map_fn": counting(kwargs["map_fn"])}
    return (counting(args[0]), *args[1:]), kwargs


def _record_plan(tracer: Tracer, result) -> None:
    if getattr(result, "x", None) is not None:
        tracer.plans.add(hashlib.sha1(result.x.tobytes()).digest())


def _record_search(tracer: Tracer, result) -> None:
    tracer.counts["optim.pattern_search.evals"] += result.n_evals
    tracer.counts["optim.pattern_search.truncated"] += int(result.truncated)


_BEFORE = {"optim.fixed_point": _count_map_evals}
_AFTER = {"optim.simplex": _record_plan, "optim.pattern_search": _record_search}


# Per-layer metrics of BENCHMARK.json: (metric, unit, how to read it from a
# traced round).  Times are self times of the named spans.
def _self(span: str):
    return lambda tracer, own, bench: float(own[span])


def _count(counter: str):
    return lambda tracer, own, bench: tracer.counts[counter]


def _plan_yield(tracer: Tracer, own, bench) -> float:
    solves = tracer.counts["optim.simplex.calls"]
    return len(tracer.plans) / solves if solves else 0.0


LAYER_METRICS = [
    ("optim.simplex_s", "s", _self("optim.simplex")),
    ("optim.simplex_calls", "count", _count("optim.simplex.calls")),
    ("storage.distinct_plans", "count", lambda tracer, own, bench: len(tracer.plans)),
    ("storage.plan_yield", "1", _plan_yield),
    ("storage.search_s", "s", _self("storage.search")),
    ("optim.pattern_search_evals", "count", _count("optim.pattern_search.evals")),
    ("optim.pattern_search_truncated", "count", _count("optim.pattern_search.truncated")),
    ("simulate.day_s", "s", _self("simulate.day")),
    ("simulate.day_calls", "count", _count("simulate.day.calls")),
    ("simulate.baseline_s", "s", _self("simulate.baseline")),
    ("simulate.substream_s", "s", _self("simulate.substream")),
    ("simulate.substream_calls", "count", _count("simulate.substream.calls")),
    ("demand.build_s", "s", _self("demand.build")),
    ("demand.build_calls", "count", _count("demand.build.calls")),
    ("demand.aggregate_s", "s", _self("demand.aggregate")),
    ("config.draw_population_s", "s", _self("config.draw_population")),
    ("pricing.pareto_front_s", "s", _self("pricing.pareto_front")),
    ("pricing.benchmark_trace_s", "s", _self("pricing.benchmark_trace")),
    ("pricing.optimal_price_calls", "count", _count("pricing.optimal_price.calls")),
    ("renewable.benefit_split_s", "s", _self("renewable.benefit_split")),
    ("optim.fixed_point_s", "s", _self("optim.fixed_point")),
    ("optim.fixed_point_map_evals", "count", _count("optim.fixed_point.map_evals")),
    ("optim.fixed_point_failures", "count", _count("optim.fixed_point.failures")),
    ("experiments.self_s", "s", _self("command")),
    ("experiments.csv_bytes", "bytes", lambda tracer, own, bench: bench.csv_bytes()),
    ("timeseries.load_s", "s", _self("timeseries.load")),
]


def round_metrics(tracer: Tracer, bench) -> dict:
    own = tracer.self_times()
    return {name: read(tracer, own, bench) for name, _, read in LAYER_METRICS}


def summarize(rounds: list, import_s: float, problems: list[str]) -> dict:
    """Median over traced rounds of each layer metric, plus the import time
    and the traced / untraced round-time ratio.  Counts must repeat exactly
    from one traced round to the next; a count that does not is a problem."""
    traced = [metrics for is_traced, _, metrics in rounds if is_traced]
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        values = [m[name] for m in traced]
        if unit in ("count", "bytes") and len(set(values)) > 1:
            problems.append(f"{name} varies between traced rounds: {values}")
        value = values[0] if unit in ("count", "bytes") else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    ratio = statistics.median(s for t, s, _ in rounds if t) / statistics.median(s for t, s, _ in rounds if not t)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "1"}
    return metrics
