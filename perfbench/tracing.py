"""Per-layer tracing of `dyadicproj` from outside the program.

`installed(tracer)` replaces each function in TRACED, in every
`dyadicproj` module namespace that binds it, with a wrapper that times the
call, and puts the originals back on exit.  Calls of per-direction size
or coarser become spans with a parent link; hot calls (`compare` runs
about 57k times per multiscan) are aggregated as a count and a total.  A
layer's `_s` figure is self time: a call's duration minus the time of the
traced calls made inside it.  Spans stay in memory until the run writes
them out.  The workloads run single-threaded (`--workers 1`), so one stack
of open calls suffices.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, aggregate instead of one span per call)
TRACED = (
    ("dyadicproj.grid", "read_pointset", "grid.read_pointset", False),
    ("dyadicproj.grid", "write_pointset", "grid.write_pointset", False),
    ("dyadicproj.grid", "coarsen", "grid.coarsen", False),
    ("dyadicproj.fractals", "gen_random_tree_set", "fractals.generate", False),
    ("dyadicproj.fractals", "gen_cantor_product", "fractals.generate", False),
    ("dyadicproj.content", "build_cover_tree", "content.build_cover_tree", False),
    ("dyadicproj.content", "optimal_cover", "content.optimal_cover", False),
    ("dyadicproj.content", "write_cover", "content.write_cover", False),
    ("dyadicproj._exact", "ExponentContext.compare", "exact.compare", True),
    ("dyadicproj.regularity", "heavy_decompose", "regularity.heavy_decompose", False),
    ("dyadicproj.regularity", "minimal_spread_constant", "regularity.minimal_spread_constant", False),
    ("dyadicproj.regularity", "frostman_subset", "regularity.frostman_subset", False),
    ("dyadicproj.projection", "direction_scan", "projection.direction_scan", False),
    ("dyadicproj.projection", "classify_direction", "projection.classify_direction", False),
    ("dyadicproj.projection", "min_projection_cover", "projection.min_projection_cover", False),
    ("dyadicproj.projection", "riesz_sum", "projection.riesz_sum", False),
    ("dyadicproj.projection", "write_scan_report", "projection.write_scan_report", False),
    ("dyadicproj.kernels", "coincidence_count", "kernels.coincidence_count", False),
    ("dyadicproj.kernels", "riesz_pair_sum", "kernels.riesz_pair_sum", False),
)


# span name -> (counter, amount added per call from (args, result))
COUNTERS = {
    "grid.read_pointset": ("grid.bytes_read", lambda args, res: os.path.getsize(args[0])),
    "grid.write_pointset": ("grid.bytes_written", lambda args, res: os.path.getsize(args[1])),
    "fractals.generate": ("fractals.cells", lambda args, res: len(res)),
    "regularity.heavy_decompose": ("regularity.net_cells", lambda args, res: len(res.net)),
    "projection.classify_direction": ("projection.directions", lambda args, res: 1),
    "kernels.coincidence_count": ("kernels.pairs_counted", lambda args, res: res),
    "kernels.riesz_pair_sum": (
        "kernels.riesz_pairs", lambda args, res: len(args[0]) * (len(args[0]) - 1)
    ),
}

LATENCY_SPAN = "projection.classify_direction"


class Tracer:
    """Spans, aggregates and counters of one traced command sequence."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float, float]] = []
        self.hot: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self._open: list[list] = []  # [span id, seconds spent in traced children]
        self._next_id = 0

    def call(self, name: str, fn, args=(), kwargs=None, hot: bool = False):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        frame = [span_id, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
            self_s = end - start - frame[1]
            if hot:
                agg = self.hot.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += self_s
            else:
                self.spans.append((span_id, parent, name, start, end, self_s))
        if name in COUNTERS:
            counter, amount = COUNTERS[name]
            self.counts[counter] = self.counts.get(counter, 0) + int(amount(args, result))
        return result

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name."""
        seconds = {name: agg[1] for name, agg in self.hot.items()}
        calls = {name: agg[0] for name, agg in self.hot.items()}
        for _, _, name, _, _, self_s in self.spans:
            seconds[name] = seconds.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def latencies_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3 for _, _, n, start, end, _ in self.spans if n == name]


def _wrapper(tracer: Tracer, name: str, fn, hot: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hot)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding of the TRACED functions; yields the list of
    (namespace, attribute, original) patched and the TRACED entries that
    were not found, and restores the originals on exit."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dyadicproj"]
    patched: list[tuple[object, str, object]] = []
    missing = []
    for module, attr, name, hot in TRACED:
        owner_name, _, fn_name = attr.rpartition(".")
        owner = sys.modules[module]
        if owner_name:
            owner = getattr(owner, owner_name, None)
        original = vars(owner).get(fn_name) if owner is not None else None
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapper = _wrapper(tracer, name, original, hot)
        namespaces = [owner] if owner_name else modules
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    patched.append((ns, key, original))
                    setattr(ns, key, wrapper)
    try:
        yield patched, missing
    finally:
        for ns, key, original in reversed(patched):
            setattr(ns, key, original)


def unrestored(patched) -> list[str]:
    return [
        f"{getattr(ns, '__name__', ns)}.{key}"
        for ns, key, original in patched
        if vars(ns).get(key) is not original
    ]


def layer_metrics(names, tracers: list[Tracer], setup: Tracer) -> dict[str, float]:
    """Values of the per-layer metrics `names`: self seconds (`*_s`) and
    call counts (`*_calls`) of spans, counters, and latency percentiles of
    LATENCY_SPAN.  `fractals.*` come from the traced input set-up, the rest
    from the traced command sequences: times as their median, counts from
    the first, since counts repeat exactly."""
    totals = [t.totals() for t in tracers]
    latencies = sorted(x for t in tracers for x in t.latencies_ms(LATENCY_SPAN))
    out: dict[str, float] = {}
    for metric in names:
        base = metric.rpartition("_")[0]
        if metric.startswith("fractals."):
            seconds, _ = setup.totals()
            out[metric] = seconds.get(base, 0.0) if metric.endswith("_s") else setup.counts.get(metric, 0)
        elif metric == f"{LATENCY_SPAN}_p50_ms":
            out[metric] = _quantile(latencies, 0.5)
        elif metric == f"{LATENCY_SPAN}_p975_ms":
            out[metric] = _quantile(latencies, 0.975)
        elif metric == f"{LATENCY_SPAN}_samples":
            out[metric] = len(latencies)
        elif metric.endswith("_calls"):
            out[metric] = totals[0][1].get(base, 0)
        elif metric.endswith("_s"):
            out[metric] = statistics.median(tot[0].get(base, 0.0) for tot in totals)
        else:
            out[metric] = tracers[0].counts.get(metric, 0)
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between order statistics; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def repeated_counts(tracer: Tracer) -> dict[str, int]:
    """Counters and call counts, which must repeat exactly between runs."""
    _, calls = tracer.totals()
    return {**tracer.counts, **{f"{n}_calls": c for n, c in calls.items()}}


def spans_json(tracers: list[Tracer]) -> list[dict]:
    return [
        {"sequence": i, "id": sid, "parent": parent, "name": name,
         "start": start, "end": end, "self_s": self_s}
        for i, t in enumerate(tracers)
        for sid, parent, name, start, end, self_s in t.spans
    ]
