"""Helpers shared by the workloads: locating the sources under test,
order statistics, span sums and the metric catalogue."""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (this file's grandparent).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space for sockets and cache directories (git-ignored).
WORK = ROOT / "perfbench" / ".work"

#: Times the inputs are generated per run; ``setup_s`` is their median.
SETUP_REPEATS = 11

#: Time of one ``reference_loop`` on this machine in its fast state (an
#: Intel Xeon vCPU at 2.1 GHz).  Timings are reported in reference
#: seconds: wall seconds times ``REFERENCE_LOOP_S`` over the loop's
#: median time measured alongside them (see README.md).
REFERENCE_LOOP_S = 0.0033

#: End-to-end metrics (measured with tracing off), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "literals": "count",
    "area": "genlib_area",
    "delay": "genlib_delay",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "req_per_s": "1/s",
}

#: Per-layer metrics (the traced run), name -> unit.
PER_LAYER = {
    "failed_share": "ratio",
    "proven_share": "ratio",
    "network.blif_parse_s": "s",
    "network.sweep_s": "s",
    "network.eliminate_s": "s",
    "network.eliminate_ite_calls": "count",
    "network.supernodes": "count",
    "network.bdd_mappings": "count",
    "decomp.decompose_s": "s",
    "decomp.decompose_ite_calls": "count",
    "decomp.sharing_s": "s",
    "decomp.lower_s": "s",
    "decomp.steps_total": "count",
    "decomp.shannon_share": "ratio",
    "bdd.ite_calls": "count",
    "bdd.nodes_allocated": "count",
    "bdd.peak_live_nodes": "count",
    "bdd.cache_hit_rate": "ratio",
    "bdd.gc_s": "s",
    "bdd.gc_sweeps": "count",
    "bdd.reorder_s": "s",
    "bdd.reorder_swaps": "count",
    "mapping.map_s": "s",
    "mapping.gates": "count",
    "verify.cec_s": "s",
    "verify.outputs_checked": "count",
    "verify.unproven_default": "count",
    "service.hit_p50_ms": "ms",
    "service.miss_p50_ms": "ms",
    "service.hit_share": "ratio",
    "service.job_s": "s",
    "service.server_request_ms": "ms",
    "service.miss_flow_share": "ratio",
    "service.overloaded": "count",
    "obs.trace_overhead": "ratio",
}


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no repro package under %s" % SRC)
    sys.path.insert(0, str(SRC))


def measure(seconds: float, trace: bool,
            one_pass: Callable[[bool, int], Any]) -> Dict[bool, List[Any]]:
    """Run ``one_pass(traced, index)`` until the next pass, as long as the
    last one, would end after ``seconds``; returns the results keyed by
    ``traced``.  With ``trace``, untraced and traced passes alternate so
    both see the same machine state; the untraced ones are the baseline
    for ``obs.trace_overhead``.  At least one pass of each kind runs."""
    passes: Dict[bool, List[Any]] = {False: [], True: []}
    start = time.perf_counter()
    last = 0.0
    while (len(passes[False]) + len(passes[True]) < (2 if trace else 1)
           or time.perf_counter() - start + last <= seconds):
        traced = trace and len(passes[False]) > len(passes[True])
        t0 = time.perf_counter()
        passes[traced].append(
            one_pass(traced, len(passes[False]) + len(passes[True])))
        last = time.perf_counter() - t0
    return passes


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with
    ``repro``: it tracks how fast the shared machine runs right now."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    x = 0
    for i in range(20000):
        table[i & 1023] = x
        x += table.get((i * 7) & 1023, 1)
    return time.perf_counter() - t0


def speed_scale(loops: Sequence[float]) -> float:
    """Factor turning wall seconds measured alongside ``loops`` into
    reference seconds."""
    return REFERENCE_LOOP_S / median(loops)


def measure_setup(build: Callable[[], Any]) -> Tuple[float, Any]:
    """Call ``build`` ``SETUP_REPEATS`` times; returns the median time in
    reference seconds and the last result."""
    times = []
    before = reference_loop()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - t0
        after = reference_loop()
        times.append(elapsed * speed_scale([before, after]))
        before = after
    return median(times), result


def scale_times(row: Dict[str, Any], scale: float) -> None:
    """Multiply the times in ``row`` (keys ending ``_s``/``_ms``) by
    ``scale``, in place."""
    for key, value in row.items():
        if key.endswith(("_s", "_ms")):
            row[key] = value * scale


def latency_metrics(latencies: Sequence[float]) -> Tuple[Dict[str, float],
                                                          str]:
    """``req_p50_ms`` and ``req_p90_ms`` of request times in seconds, and
    a note giving how many samples lie beyond the 90th percentile."""
    p90 = percentile(latencies, 90)
    return ({"req_p50_ms": 1e3 * median(latencies), "req_p90_ms": 1e3 * p90},
            "requests: %d samples, %d beyond p90"
            % (len(latencies), sum(1 for x in latencies if x > p90)))


def passes_note(plain: int, traced: int, scales: Sequence[float]) -> str:
    note = "passes: %d untraced, %d traced" % (plain, traced)
    if scales:
        note += ("; reference seconds per wall second: median %.3f, "
                 "range %.3f-%.3f" % (median(scales), min(scales),
                                      max(scales)))
    return note


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100)[pct - 1])


def median_dict(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise median over per-pass metric dicts."""
    keys = sorted({k for row in rows for k in row})
    return {k: median([row.get(k, 0.0) for row in rows]) for k in keys}


def phase(root: Any, name: str) -> Any:
    """The top-level child span ``name`` of a ``flow`` root, or None."""
    for child in root.children:
        if child.name == name:
            return child
    return None


def span_metrics(root: Any) -> Dict[str, float]:
    """Per-layer times and counter deltas read from one ``flow`` span."""
    out: Dict[str, float] = {}
    for key, span_name, with_ite in (
            ("network.sweep_s", "flow.sweep", False),
            ("network.eliminate_s", "flow.eliminate", True),
            ("decomp.decompose_s", "flow.decompose", True),
            ("decomp.sharing_s", "flow.sharing", False),
            ("decomp.lower_s", "flow.lower", False),
            ("verify.cec_s", "flow.verify", False)):
        span = phase(root, span_name)
        out[key] = span.duration if span is not None else 0.0
        if with_ite:
            out[key[:-2] + "_ite_calls"] = (
                span.counters.get("ite_calls", 0) if span is not None else 0)
    spans = root.walk()
    out["bdd.gc_s"] = sum(s.duration for s in spans if s.name == "bdd.gc")
    return out


def perf_metrics(perfs: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Kernel counters summed over flows (peaks maxed, hit rate
    recomputed from the summed lookups); ``reorder_time_s`` is a time and
    is read where the caller can scale it."""
    perfs = list(perfs)

    def total(key: str) -> float:
        return sum(p.get(key, 0) for p in perfs)

    lookups = total("cache_hits") + total("cache_misses")
    return {
        "bdd.ite_calls": total("ite_calls"),
        "bdd.nodes_allocated": total("nodes_allocated"),
        "bdd.peak_live_nodes": max((p.get("peak_live_nodes", 0)
                                    for p in perfs), default=0),
        "bdd.cache_hit_rate": total("cache_hits") / lookups if lookups else 0.0,
        "bdd.gc_sweeps": total("gc_sweeps"),
        "bdd.reorder_swaps": total("reorder_swaps"),
    }


def add_into(acc: Dict[str, float], row: Dict[str, float]) -> None:
    for key, value in row.items():
        acc[key] = acc.get(key, 0.0) + value
