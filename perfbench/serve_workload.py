"""The ``serve_mix`` workload: ``repro serve --socket --jobs 2``.

Each pass starts a fresh server on an empty cache directory and sends
every circuit of the mix ``REPEATS`` times, in an order drawn from the
seed, closed loop over ``CONNECTIONS`` connections from this process
with one request outstanding per connection.  The first request for a
circuit misses (a forked worker runs the flow and the artifact is
stored); the rest hit (the BLIF is canonicalised and the artifact read
back), so a pass mixes cache writes and reads about 1:3.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from common import (ROOT, SRC, WORK, add_into, latency_metrics, measure,
                    measure_setup, median, median_dict, passes_note,
                    perf_metrics, reference_loop, scale_times, span_metrics,
                    speed_scale)
from flow_workloads import make_inputs
from repro.mapping import map_network
from repro.network.blif import parse_blif
from repro.obs.trace import Span
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.verify import simulate_equivalence

CIRCUITS = ["C432", "C880", "C1908", "C3540", "C5315", "rot", "dalu", "vda"]
REPEATS = 4
CONNECTIONS = 2
JOBS = 2

#: Relative to the checkout root (the process's working directory), so
#: the Unix socket path stays short however deep the checkout is.
SOCKET = os.path.relpath(WORK / "serve.sock", ROOT)

#: Reference loops timed on an idle server before and after each pass.
_LOOPS = 8

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 60.0


def _start_server(cache_dir: str, log: Any) -> Tuple[subprocess.Popen, float]:
    """Launch the server; returns it and the seconds until it accepts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", SOCKET,
         "--jobs", str(JOBS), "--cache-dir", cache_dir],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=log)
    while True:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(SOCKET)
            return proc, time.perf_counter() - t0
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        finally:
            probe.close()
        if proc.poll() is not None or time.perf_counter() - t0 > _START_TIMEOUT_S:
            _stop_server(proc)
            raise RuntimeError("repro serve did not start:\n"
                               + (WORK / "server.log").read_text()[-2000:])
        time.sleep(0.002)


def _stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then kill if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _drive(client: ServiceClient, queue: deque, lock: threading.Lock,
           texts: Dict[str, str], trace: bool,
           replies: List[Tuple[str, float, Dict[str, Any]]]) -> None:
    """One connection's closed loop: take the next request, wait for it."""
    while True:
        with lock:
            if not queue:
                return
            name = queue.popleft()
        t0 = time.perf_counter()
        try:
            reply = client.request(texts[name], trace=trace)
        except ServiceUnavailable as exc:
            reply = {"status": "unavailable", "error": str(exc)}
        replies.append((name, time.perf_counter() - t0, reply))


def _run_pass(texts: Dict[str, str], schedule: List[str], trace: bool,
              index: int, log: Any) -> Dict[str, Any]:
    cache_dir = os.path.relpath(WORK / ("cache-%d" % index), ROOT)
    proc, start_s = _start_server(cache_dir, log)
    clients = [ServiceClient(socket_path=SOCKET, timeout=120.0)
               for _ in range(CONNECTIONS)]
    replies: List[Tuple[str, float, Dict[str, Any]]] = []
    loops = [reference_loop() for _ in range(_LOOPS)]
    try:
        queue, lock = deque(schedule), threading.Lock()
        threads = [threading.Thread(target=_drive, args=(
            c, queue, lock, texts, trace, replies)) for c in clients]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=150.0)
        wall = time.perf_counter() - t0
        if any(t.is_alive() for t in threads):
            raise RuntimeError("serve_mix pass did not finish")
        loops.extend(reference_loop() for _ in range(_LOOPS))
        stats = clients[0].stats()
    finally:
        for c in clients:
            c.close()
        _stop_server(proc)
        shutil.rmtree(WORK / ("cache-%d" % index), ignore_errors=True)
    return {"start_s": start_s, "wall_s": wall, "replies": replies,
            "registry": stats.get("metrics", {}),
            "scale": speed_scale(loops)}


def _check_pass(rec: Dict[str, Any], nets: Dict[str, Any],
                first_blif: Dict[str, str], expected: int) -> List[str]:
    """Every reply ok; every hit byte-identical to the pass's miss reply
    for its circuit; every miss reply equivalent to its input."""
    problems = ["%d of %d replies missing" % (expected - len(rec["replies"]),
                                              expected)] \
        if len(rec["replies"]) != expected else []
    miss_blif: Dict[str, str] = {}
    for name, _, reply in rec["replies"]:
        if reply.get("status") != "ok":
            problems.append("%s: %s (%s)" % (name, reply.get("status"),
                                             reply.get("error")))
        elif not reply.get("cached"):
            miss_blif.setdefault(name, reply["blif"])
    for name, blif in miss_blif.items():
        agree, _ = simulate_equivalence(nets[name], parse_blif(blif))
        if not agree:
            problems.append("%s: optimized reply differs from its input" % name)
        if first_blif.setdefault(name, blif) != blif:
            problems.append("%s: miss reply differs between passes" % name)
    for name, _, reply in rec["replies"]:
        if reply.get("status") == "ok" and reply["blif"] != miss_blif.get(name):
            problems.append("%s: reply differs from the pass's miss reply"
                            % name)
    return problems


def _quality(first_blif: Dict[str, str], nets: Dict[str, Any],
             lib: Any) -> Tuple[Dict[str, float], List[str]]:
    """Literals of the optimized replies, area and delay once mapped."""
    out = {"literals": 0.0, "area": 0.0, "delay": 0.0}
    problems = []
    for name, blif in sorted(first_blif.items()):
        net = parse_blif(blif)
        mapped = map_network(net, lib)
        if not simulate_equivalence(nets[name], mapped.network)[0]:
            problems.append("%s: mapped reply differs from its input" % name)
        out["literals"] += net.stats()["literals"]
        out["area"] += mapped.area
        out["delay"] += mapped.delay
    return out, problems


def _histogram_mean(registry: Dict[str, Any], name: str) -> Tuple[float, int]:
    hist = registry.get("histograms", {}).get(name, {})
    return float(hist.get("sum", 0.0)), int(hist.get("count", 0))


def _service_layer(plain: List[Dict[str, Any]],
                   traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Service metrics from the untraced passes; flow-layer metrics from
    the traced passes' miss replies (their span trees and perf)."""
    hits = [lat * rec["scale"] for rec in plain
            for _, lat, r in rec["replies"] if r.get("cached")]
    misses = [lat * rec["scale"] for rec in plain
              for _, lat, r in rec["replies"]
              if r.get("status") == "ok" and not r.get("cached")]
    out: Dict[str, float] = {
        "service.hit_p50_ms": 1e3 * median(hits),
        "service.miss_p50_ms": 1e3 * median(misses),
        "service.hit_share": len(hits) / max(1, len(hits) + len(misses)),
    }
    for key, hist, unit in (("service.job_s", "scheduler_job_seconds", 1.0),
                             ("service.server_request_ms",
                              "server_request_seconds", 1e3)):
        total = sum(_histogram_mean(rec["registry"], hist)[0] * rec["scale"]
                    for rec in plain)
        count = sum(_histogram_mean(rec["registry"], hist)[1] for rec in plain)
        out[key] = unit * total / count if count else 0.0
    out["service.overloaded"] = sum(
        rec["registry"].get("counters", {}).get("server_backpressure_total", 0)
        for rec in plain + traced)

    rows = []
    for rec in traced:
        row: Dict[str, float] = {}
        flow_s = miss_s = 0.0
        perfs = []
        for _, lat, reply in rec["replies"]:
            if reply.get("cached") or not reply.get("trace"):
                continue
            for root in (Span.from_dict(d) for d in reply["trace"]):
                add_into(row, span_metrics(root))
                add_into(row, {"network.supernodes": sum(
                    1 for s in root.walk()
                    if s.name == "decompose.supernode")})
                flow_s += root.duration
            miss_s += lat
            perfs.append(reply.get("perf") or {})
            add_into(row, {"bdd.reorder_s": perfs[-1].get("reorder_time_s",
                                                           0.0)})
        scale_times(row, rec["scale"])
        row.update(perf_metrics(perfs))
        row["service.miss_flow_share"] = flow_s / miss_s if miss_s else 0.0
        rows.append(row)
    out.update(median_dict(rows))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        circuits: Optional[List[str]] = None) -> Dict[str, Any]:
    circuits = list(circuits or CIRCUITS)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    setup_s, (texts, lib) = measure_setup(lambda: make_inputs(circuits))
    nets = {name: parse_blif(text) for name, text in texts.items()}

    rng = random.Random(seed)
    failures: List[str] = []
    first_blif: Dict[str, str] = {}
    expected = len(circuits) * REPEATS

    def one_pass(traced: bool, index: int) -> Dict[str, Any]:
        schedule = circuits * REPEATS
        rng.shuffle(schedule)
        rec = _run_pass(texts, schedule, traced, index, log)
        failures.extend(_check_pass(rec, nets, first_blif, expected))
        return rec

    try:
        with open(WORK / "server.log", "w") as log:
            passes = measure(seconds, trace, one_pass)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    quality, problems = _quality(first_blif, nets, lib)
    failures.extend(problems)
    # Each server and its forked workers have been waited for, so their
    # peak resident set is the children's.
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    plain = passes[False]
    latencies = [lat * rec["scale"] for rec in plain
                 for _, lat, _ in rec["replies"]]
    walls = [rec["wall_s"] * rec["scale"] for rec in plain]
    attempted = expected * (len(plain) + len(passes[True]))
    metrics: Dict[str, float] = {
        "setup_s": setup_s + median(
            [rec["start_s"] * rec["scale"] for rec in plain + passes[True]]),
        "pass_s": median(walls),
        "peak_rss_mb": peak_rss_mb,
        "req_per_s": expected / median(walls),
        "failed_share": len(failures) / attempted,
    }
    metrics.update(quality)
    latency, note = latency_metrics(latencies)
    metrics.update(latency)
    notes = [note]
    if trace:
        metrics.update(_service_layer(plain, passes[True]))
        metrics["obs.trace_overhead"] = (
            median([rec["wall_s"] * rec["scale"] for rec in passes[True]])
            / metrics["pass_s"] - 1)
    scales = [rec["scale"] for rec in plain + passes[True]]
    notes.append(passes_note(len(plain), len(passes[True]), scales))
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "notes": notes}
