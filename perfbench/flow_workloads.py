"""The in-process flow workloads: ``table1_flow`` and ``arith_verify``.

One pass sends every circuit of the workload, in an order drawn from the
seed, through ``parse_blif`` -> ``bds_optimize`` -> ``map_network`` in
this process: a closed loop of one.  A "request" is one circuit through
those three calls, the same unit of work as one ``repro serve`` request.
Correctness checks run between circuits, outside the timed calls.
"""

from __future__ import annotations

import random
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (add_into, latency_metrics, measure, measure_setup,
                    median, median_dict, passes_note, perf_metrics,
                    reference_loop, scale_times, span_metrics, speed_scale)
from repro.bds.flow import BDSOptions, bds_optimize
from repro.circuits import TABLE1_CIRCUITS, build_circuit
from repro.mapping import map_network, mcnc_library
from repro.network.blif import parse_blif, write_blif
from repro.obs.trace import Tracer
from repro.perf import DERIVED_KEYS, PEAK_KEYS
from repro.verify import VerifyError, simulate_equivalence

CIRCUITS = {
    "table1_flow": list(TABLE1_CIRCUITS),
    # The Table II family: XOR/MUX-rich arithmetic, where verify dominates.
    "arith_verify": ["add32", "add64", "cla32", "m6x6", "m7x7", "bshift8",
                     "cmp8"],
}

OPTIONS = {
    "table1_flow": BDSOptions(),
    # An unbounded proof budget: the default wall-clock budget makes the
    # verdict depend on machine speed.
    "arith_verify": BDSOptions(verify="full", verify_budget=float("inf")),
}

#: Proven only without a budget (18-22 s); run once under the default
#: budget for ``verify.unproven_default``, never in the timed passes.
DEFAULT_BUDGET_EXTRA = ["bshift16"]


def make_inputs(circuits: List[str]) -> Tuple[Dict[str, str], Any]:
    """BLIF text of every circuit, and the mapping library."""
    return ({name: write_blif(build_circuit(name)) for name in circuits},
            mcnc_library())


def _partition_holds(result: Any) -> bool:
    """The top-level phase deltas sum to ``BDSResult.perf``."""
    summed: Dict[str, float] = {}
    for child in result.trace.children:
        for key, value in child.counters.items():
            summed[key] = summed.get(key, 0.0) + value
    return all(abs(summed.get(key, 0.0) - value) <= 1e-9 * max(1.0, abs(value))
               for key, value in result.perf.items()
               if key not in PEAK_KEYS and key not in DERIVED_KEYS)


def _run_circuit(name: str, text: str, lib: Any, options: BDSOptions,
                 traced: bool) -> Tuple[Optional[Dict[str, Any]], str]:
    """One request; returns (record, "") or (None, failure reason)."""
    t0 = time.perf_counter()
    net = parse_blif(text)
    t1 = time.perf_counter()
    try:
        result = bds_optimize(net, options,
                              tracer=Tracer() if traced else None)
    except VerifyError as exc:
        return None, "%s: VerifyError at output %s" % (name, exc.failing_output)
    t2 = time.perf_counter()
    mapped = map_network(result.network, lib)
    t3 = time.perf_counter()

    agree, _ = simulate_equivalence(net, mapped.network)
    if not agree:
        return None, "%s: mapped network differs from its input" % name
    if options.verify != "off" and result.verify_unknown_outputs:
        return None, "%s: %d output(s) UNPROVEN" % (
            name, len(result.verify_unknown_outputs))
    if traced and not _partition_holds(result):
        return None, "%s: phase counter deltas do not sum to perf" % name
    outputs = len(net.outputs)
    record: Dict[str, Any] = {
        "name": name,
        "latency_s": t3 - t0,
        "optimize_s": t2 - t1,
        "literals": result.network.stats()["literals"],
        "area": mapped.area,
        "delay": mapped.delay,
        "outputs": outputs if options.verify != "off" else 0,
        "proven": (outputs - len(result.verify_unknown_outputs)
                   if options.verify != "off" else 0),
    }
    if traced:
        layer = span_metrics(result.trace)
        layer.update({
            "network.blif_parse_s": t1 - t0,
            "bdd.reorder_s": result.perf.get("reorder_time_s", 0.0),
            "mapping.map_s": t3 - t2,
            "mapping.gates": mapped.gate_count,
            "network.supernodes": result.supernodes,
            "network.bdd_mappings": result.mapping_count,
            "decomp.steps_total": result.decomp_stats.total(),
            "decomp.shannon": result.decomp_stats.shannon,
            "verify.outputs_checked": result.perf.get(
                "verify_outputs_checked", 0),
        })
        record["layer"] = layer
        record["perf"] = result.perf
    return record, ""


def _pass_layer(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (sums over its circuits)."""
    layer: Dict[str, float] = {}
    for rec in records:
        add_into(layer, rec["layer"])
    layer.update(perf_metrics(rec["perf"] for rec in records))
    steps = layer.get("decomp.steps_total", 0)
    layer["decomp.shannon_share"] = (layer.pop("decomp.shannon", 0) / steps
                                     if steps else 0.0)
    return layer


def _unproven_default(circuits: List[str]) -> Tuple[int, List[str]]:
    """UNPROVEN outputs under the default verify budget (not timed)."""
    texts, _ = make_inputs(circuits + DEFAULT_BUDGET_EXTRA)
    unproven, failures = 0, []
    for name, text in texts.items():
        net = parse_blif(text)
        try:
            result = bds_optimize(net, BDSOptions(verify="full"))
        except VerifyError as exc:
            failures.append("%s: VerifyError at output %s under the default "
                            "budget" % (name, exc.failing_output))
            continue
        unproven += len(result.verify_unknown_outputs)
    return unproven, failures


def run(workload: str, seed: int, seconds: float, trace: bool,
        circuits: Optional[List[str]] = None) -> Dict[str, Any]:
    circuits = list(circuits or CIRCUITS[workload])
    options = OPTIONS[workload]
    setup_s, (texts, lib) = measure_setup(lambda: make_inputs(circuits))

    rng = random.Random(seed)
    failures: List[str] = []
    scales: List[float] = []
    attempted = 0

    def one_pass(traced: bool, index: int) -> List[Dict[str, Any]]:
        nonlocal attempted
        order = list(circuits)
        rng.shuffle(order)
        records = []
        before = reference_loop()
        for name in order:
            attempted += 1
            record, problem = _run_circuit(name, texts[name], lib, options,
                                           traced)
            after = reference_loop()
            if record is None:
                failures.append(problem)
            else:
                scale = speed_scale([before, after])
                scale_times(record, scale)
                scale_times(record.get("layer", {}), scale)
                scales.append(scale)
                records.append(record)
            before = after
        return records

    passes = measure(seconds, trace, one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = passes[False]
    latencies = [rec["latency_s"] for recs in plain for rec in recs]
    pass_times = [sum(rec["latency_s"] for rec in recs) for recs in plain]
    all_records = [rec for recs in plain + passes[True] for rec in recs]
    outputs = sum(rec["outputs"] for rec in all_records)
    first = plain[0]
    metrics: Dict[str, float] = {
        "setup_s": setup_s,
        "pass_s": median(pass_times),
        "literals": sum(rec["literals"] for rec in first),
        "area": sum(rec["area"] for rec in first),
        "delay": sum(rec["delay"] for rec in first),
        "peak_rss_mb": peak_rss_mb,
        "req_per_s": (len(circuits) / median(pass_times)
                      if latencies else 0.0),
        "failed_share": len(failures) / attempted,
        "proven_share": (sum(rec["proven"] for rec in all_records) / outputs
                         if outputs else 0.0),
    }
    latency, note = latency_metrics(latencies)
    metrics.update(latency)
    notes = [note]
    if trace:
        traced_passes = passes[True]
        metrics.update(median_dict([_pass_layer(recs)
                                    for recs in traced_passes]))
        traced_pass_s = median([sum(rec["latency_s"] for rec in recs)
                                for recs in traced_passes])
        metrics["obs.trace_overhead"] = (traced_pass_s / metrics["pass_s"] - 1
                                         if metrics["pass_s"] else 0.0)
        notes.append("trace overhead by circuit (best traced / best "
                     "untraced optimize time): " + _overhead_by_circuit(
                         plain, traced_passes))
        if workload == "arith_verify":
            unproven, problems = _unproven_default(circuits)
            metrics["verify.unproven_default"] = unproven
            failures.extend(problems)
            attempted += len(circuits) + len(DEFAULT_BUDGET_EXTRA)
            metrics["failed_share"] = len(failures) / attempted
    notes.append(passes_note(len(plain), len(passes[True]), scales))
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "notes": notes}


def _overhead_by_circuit(plain: List[List[Dict[str, Any]]],
                         traced: List[List[Dict[str, Any]]]) -> str:
    def best(passes: List[List[Dict[str, Any]]]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for recs in passes:
            for rec in recs:
                out[rec["name"]] = min(out.get(rec["name"], float("inf")),
                                       rec["optimize_s"])
        return out

    base, with_trace = best(plain), best(traced)
    ratios = sorted(((with_trace[n] / base[n], n) for n in base
                     if n in with_trace and base[n] > 0), reverse=True)
    return " ".join("%s %.2fx" % (n, r) for r, n in ratios)
