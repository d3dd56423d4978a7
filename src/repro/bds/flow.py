"""The top-level BDS optimization flow (Section IV).

Mirrors Fig. 12's right-hand column:

1. *Sweep* -- constant propagation, removal of single-input and
   functionally equivalent nodes (Section IV-A).
2. *Eliminate* -- partial collapsing into supernodes with the BDD-node-count
   value function and periodic BDD mapping (Section IV-B).
3. Per supernode: *variable reordering* (sifting) as initial logic
   simplification, then *recursive BDD decomposition* into a factoring
   tree (Section IV-C).
4. *Sharing extraction* across all factoring trees via BDD canonicity.
5. Lowering to a 2-input gate network (AND/OR/XOR/XNOR/NOT/MUX),
   followed by a final structural sweep.

The returned :class:`BDSResult` carries the optimized network plus the
statistics the experiments report (decomposition mix, phase timings,
supernode count, BDD-mapping invocations).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bdd import BDD, transfer_many
from repro.bdd.reorder import sift
from repro.bdd.serialize import dumps as bdd_dumps, loads as bdd_loads
from repro.check import Checker, sanitize_bdd
from repro.decomp import extract_sharing, trees_to_network
from repro.decomp.engine import DecompOptions, DecompStats, decompose
from repro.network import Network, sweep
from repro.network.eliminate import PartitionedNetwork
from repro.obs.trace import CounterSource, Span, Tracer
from repro.perf import merge_snapshots
from repro.verify import VERIFY_MODES, require_equivalent


#: Default CEC budget per literal of the input plus optimized network.
#: C1355's proof needs ~20 allocations per literal; C432 (~173) and C6288
#: (~65) leave some outputs unproven at this rate, and "full" mode
#: cross-checks those by simulation.
_VERIFY_ALLOCS_PER_LITERAL = 24


@dataclass
class BDSOptions:
    """Knobs of the BDS flow; defaults match the paper's described setup."""

    eliminate_threshold: int = 0
    eliminate_size_cap: int = 1000
    use_bdd_mapping: bool = True
    reorder: bool = True
    sift_size_limit: int = 20000
    # Growth-triggered dynamic reordering (CUDD-style): when > 0 every
    # manager the flow owns is armed with ``enable_autoreorder``, so a
    # live-size blowup (eliminate's partial collapses, decomposition
    # intermediates) fires the method at the next GC safe point instead
    # of waiting for the per-supernode sift.  0 = off.
    autoreorder: int = 0
    autoreorder_method: str = "sift"
    decomp: DecompOptions = field(default_factory=DecompOptions)
    sharing: bool = True
    final_sweep: bool = True
    sweep_merge_equivalent: bool = True
    # Section VI item 3 (future work in the paper, implemented here):
    # depth-balance the factoring trees before sharing extraction.
    balance_trees: bool = False
    # Section VI item 1 (future work in the paper, implemented here):
    # minimize supernodes against satisfiability don't-cares.
    use_sdc: bool = False
    # Worker processes for per-supernode decomposition.  After eliminate,
    # every supernode owns an independent BDD, so reorder+decompose fan out
    # embarrassingly; 1 = in-process serial (deterministic either way).
    jobs: int = 1
    # Invariant sanitizer level ("off" / "cheap" / "full"): runs the
    # repro.check audits at the flow's GC safe points (sweep boundaries,
    # network construction, the eliminate loop, decomposition merge) and
    # raises repro.check.CheckError on the first violated invariant.
    check_level: str = "off"
    # First-class result verification (Section V): compare the optimized
    # network against the input inside the flow.  "sim" simulates
    # (exhaustive <= 12 inputs), "cec" builds global BDDs within an
    # allocation budget, "full" is CEC plus a simulation cross-check of
    # the outputs the budget left unproven.  A mismatch raises
    # repro.verify.VerifyError with the counterexample; unproven outputs
    # land in BDSResult.verify_unknown_outputs and the
    # verify_outputs_checked / verify_unknown counters in BDSResult.perf,
    # which also counts the CEC manager's kernel work.
    verify: str = "off"
    verify_seed: int = 1355
    # Work budget of the BDD proof attempt, in fresh node allocations.
    # None means _VERIFY_ALLOCS_PER_LITERAL per literal of the input and
    # the optimized network -- a number fixed by the two networks, so the
    # verdict is the same on every run, machine and ``jobs`` setting.
    # Use float("inf") for an unbounded proof attempt.
    verify_budget: Optional[float] = None

    #: Fields that never change the optimized network or its verdict:
    #: ``jobs`` only fans the same deterministic work out over processes,
    #: and ``check_level`` runs (or skips) internal audits.  They are
    #: excluded from :meth:`cache_key` so e.g. a ``jobs=4`` batch run can
    #: reuse artifacts produced by a ``jobs=1`` run.
    NON_SEMANTIC_FIELDS = ("jobs", "check_level")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (nested :class:`DecompOptions` inline)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BDSOptions":
        """Rebuild options from :meth:`to_dict` output.

        Unknown keys are ignored and missing keys take their defaults, so
        snapshots recorded by an older or newer revision still load.
        """
        decomp_data = data.get("decomp") or {}
        decomp_fields = {f.name for f in fields(DecompOptions)}
        decomp = DecompOptions(**{k: v for k, v in decomp_data.items()
                                  if k in decomp_fields})
        opt_fields = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items()
                  if k in opt_fields and k != "decomp"}
        return cls(decomp=decomp, **kwargs)

    def cache_key(self) -> str:
        """Stable content hash of every *semantic* option field.

        Two option objects with the same key produce the same optimized
        network and verify verdict, so artifacts may be shared between
        them; any semantic field change changes the key.  The key is
        independent of field declaration/insertion order (the snapshot is
        serialized with sorted keys) and of :data:`NON_SEMANTIC_FIELDS`.
        """
        snap = self.to_dict()
        for name in self.NON_SEMANTIC_FIELDS:
            snap.pop(name, None)
        # None and inf survive JSON poorly (inf is not valid JSON); repr
        # through default=str keeps the encoding total and deterministic.
        text = json.dumps(snap, sort_keys=True, default=str,
                          allow_nan=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class BDSResult:
    network: Network
    decomp_stats: DecompStats
    timings: Dict[str, float]
    supernodes: int
    mapping_count: int
    # Aggregated kernel perf counters (cache hit rate, GC sweeps, peak live
    # nodes, ...) from every manager the flow touched; see repro.perf.
    perf: Dict[str, float] = field(default_factory=dict)
    # Outputs the budgeted verifier could not prove (verify="cec"/"full").
    verify_unknown_outputs: List[str] = field(default_factory=list)
    # Root span of the flow's trace (see repro.obs.trace and
    # docs/OBSERVABILITY.md): "flow", or "flow.cache_lookup" on a cache
    # hit.  Always set by bds_optimize.  When the caller passed a Tracer,
    # the count deltas of the top-level phase spans partition ``perf``.
    trace: Optional[Span] = None

    def summary(self) -> str:
        s = self.network.stats()
        return ("nodes=%d literals=%d depth=%d supernodes=%d | %s"
                % (s["nodes"], s["literals"], s["depth"], self.supernodes,
                   " ".join("%s=%.3fs" % kv for kv in sorted(self.timings.items()))))


class _PerfLedger:
    """The flow's perf accounting: a running total of retired counter
    sources plus the sources that are still live.

    A source only ever moves from live to retired, and retiring merges
    its final snapshot into the total exactly once (with no span
    boundary in between), so the count deltas of the sequential
    top-level phase spans telescope to the final ``BDSResult.perf``.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.live: List[CounterSource] = []

    def add(self, snap: Dict[str, float]) -> None:
        self.total = merge_snapshots([self.total, snap])

    @contextmanager
    def source(self, src: CounterSource) -> Iterator[None]:
        """Count ``src`` live for the ``with`` body, then retire it."""
        self.live.append(src)
        try:
            yield
        finally:
            self.live.remove(src)
            self.add(src())

    def snapshot(self) -> Dict[str, float]:
        return merge_snapshots([self.total] + [src() for src in self.live])


def bds_optimize(net: Network, options: Optional[BDSOptions] = None,
                 cache: Optional[Any] = None,
                 tracer: Optional[Tracer] = None) -> BDSResult:
    """Run the full BDS flow on a copy of ``net``.

    ``cache`` (a :class:`repro.service.cache.ArtifactCache`) short-circuits
    the whole flow on a content hit -- the stored network, perf counters
    and verify verdict are returned without recomputation -- and stores
    the artifact on a miss.  Cache traffic lands in ``BDSResult.perf`` as
    the ``artifact_cache_*`` counters.

    The flow always records one span per phase plus kernel safe-point
    and per-supernode sub-spans; ``BDSResult.timings`` are the phase
    span durations and the finished root span lands on
    ``BDSResult.trace``.  A caller-supplied ``tracer`` (a
    :class:`repro.obs.trace.Tracer`) receives those spans and also gets
    per-span counter deltas.  Tracing never changes the optimized
    network.
    """
    opts = options or BDSOptions()
    if opts.verify not in VERIFY_MODES:
        raise ValueError("verify must be one of %r, got %r"
                         % (VERIFY_MODES, opts.verify))
    ledger = _PerfLedger()
    if tracer is not None:
        # Counter reads cost ~40us each, so only a caller who asked for
        # a trace pays for per-span deltas.
        tracer.set_counter_source(ledger.snapshot)
    tr = tracer if tracer is not None else Tracer()
    cache_key = None
    if cache is not None:
        with tr.span("flow.cache_lookup", circuit=net.name) as lookup:
            cache_key = cache.key_for(net, opts)
            artifact = cache.lookup(cache_key)
        if artifact is not None:
            return _result_from_artifact(artifact, lookup)
    checker = Checker(opts.check_level)
    work = net.copy()
    ledger.live.append(checker.snapshot)

    with tr.span("flow", circuit=net.name, jobs=opts.jobs,
                 verify=opts.verify) as root:
        with tr.span("flow.sweep"):
            sweep(work, merge_equivalent=opts.sweep_merge_equivalent)
            checker.check_network(work, "network after initial sweep")

        with tr.span("flow.eliminate"):
            part = PartitionedNetwork.from_network(work)
            part.mgr.tracer = tr
            # Late-bound through ``part``: compact() retires managers
            # into part.perf_history and installs a fresh part.mgr.
            ledger.live.append(lambda: part.mgr.perf_snapshot())
            ledger.live.append(lambda: merge_snapshots(part.perf_history))
            if opts.autoreorder:
                part.mgr.enable_autoreorder(opts.autoreorder,
                                            opts.autoreorder_method)
            checker.check_partition(part, "partition after construction")
            part.eliminate(threshold=opts.eliminate_threshold,
                           size_cap=opts.eliminate_size_cap,
                           use_mapping=opts.use_bdd_mapping,
                           checker=checker)
            checker.check_partition(part, "partition after eliminate")

        with tr.span("flow.sdc"):
            if opts.use_sdc:
                from repro.bds.dontcare import minimize_with_sdc

                minimize_with_sdc(part)
                checker.check_partition(part, "partition after SDC")

        with tr.span("flow.decompose"):
            stats = DecompStats()
            trees = {}
            names = sorted(part.refs)
            if opts.jobs > 1 and len(names) > 1:
                _decompose_parallel(part, names, opts, stats, trees,
                                    ledger, tr)
            else:
                for name in names:
                    with tr.span("decompose.supernode", supernode=name):
                        trees[name] = _decompose_supernode(
                            part, name, opts, stats, tr, ledger)

        with tr.span("flow.balance"):
            if opts.balance_trees:
                from repro.decomp.balance import balance_forest

                trees = balance_forest(trees)

        with tr.span("flow.sharing"):
            if opts.sharing:
                trees = extract_sharing(trees)

        with tr.span("flow.lower"):
            gate_net = trees_to_network(trees, inputs=work.inputs,
                                        outputs=work.outputs, name=net.name)
            # SDC minimization (and in principle any decomposition) can
            # drop a supernode's dependence on another supernode,
            # stranding that tree; reachability pruning is a
            # well-formedness requirement of the output (the lint below
            # enforces it), not part of the optional sweep.
            gate_net.remove_dangling()
            if opts.final_sweep:
                sweep(gate_net, merge_equivalent=False)
            checker.check_network(gate_net, "network after lowering")

        verify_unknown: List[str] = []
        if opts.verify != "off":
            with tr.span("flow.verify", mode=opts.verify):
                outcome = require_equivalent(
                    net, gate_net, mode=opts.verify,
                    budget=_verify_budget(opts, net, gate_net),
                    seed=opts.verify_seed,
                    subject="BDS result for %r" % net.name)
                verify_unknown = outcome.unknown_outputs
                ledger.add(outcome.perf)
                ledger.add({
                    "verify_outputs_checked": float(outcome.outputs_checked),
                    "verify_unknown": float(len(outcome.unknown_outputs)),
                })

        result = BDSResult(gate_net, stats, _phase_timings(root),
                           supernodes=len(trees),
                           mapping_count=part.mapping_count,
                           perf=ledger.snapshot(),
                           verify_unknown_outputs=verify_unknown,
                           trace=root)
    if cache is not None and cache_key is not None:
        # Store the artifact *without* cache-traffic counters (they
        # describe this call, not the artifact), then report the miss.
        from repro.service.cache import Artifact

        cache.store(cache_key, Artifact.from_result(result, opts))
        result.perf = merge_snapshots([result.perf,
                                       {"artifact_cache_misses": 1.0,
                                        "artifact_cache_stores": 1.0}])
    return result


def _verify_budget(opts: BDSOptions, spec: Network,
                   impl: Network) -> Optional[int]:
    """The CEC allocation budget ``opts.verify_budget`` asks for."""
    if opts.verify_budget is None:
        return _VERIFY_ALLOCS_PER_LITERAL * (spec.literal_count()
                                             + impl.literal_count())
    if opts.verify_budget == float("inf"):
        return None
    return int(opts.verify_budget)


def _phase_timings(root: Span) -> Dict[str, float]:
    """Durations of the finished ``flow.<phase>`` spans, keyed by phase."""
    return {span.name[len("flow."):]: span.duration
            for span in root.children}


def _result_from_artifact(artifact: Any, lookup: Span) -> BDSResult:
    """Rebuild a :class:`BDSResult` from a cache hit found in ``lookup``."""
    stats = DecompStats()
    stats.merge(artifact.decomp_stats)
    perf = merge_snapshots([artifact.perf, {"artifact_cache_hits": 1.0}])
    return BDSResult(artifact.network(), stats,
                     {"cache_lookup": lookup.duration},
                     supernodes=artifact.supernodes,
                     mapping_count=artifact.mapping_count,
                     perf=perf,
                     verify_unknown_outputs=list(
                         artifact.verify_unknown_outputs),
                     trace=lookup)


def _reorder_and_decompose(mgr: BDD, local: int, name: str,
                           opts: BDSOptions, stats: DecompStats):
    """The per-supernode body shared by the serial and pool paths:
    optional autoreorder, sifting, decomposition, and the
    decomposition-merge sanitizer audit; returns the name-mapped tree."""
    if opts.autoreorder:
        mgr.enable_autoreorder(opts.autoreorder, opts.autoreorder_method)
    if opts.reorder and not mgr.is_const(local):
        sift(mgr, [local], size_limit=opts.sift_size_limit)
    tree = decompose(mgr, local, options=opts.decomp, stats=stats)
    if opts.check_level != "off":
        # The supernode's private manager must still be canonical after
        # reorder + decompose.
        sanitize_bdd(mgr, level=opts.check_level,
                     subject="supernode %r manager after decompose" % name)
    return tree.map_vars(mgr.var_name)


def _decompose_supernode(part: PartitionedNetwork, name: str,
                         opts: BDSOptions, stats: DecompStats,
                         tracer: Tracer, ledger: _PerfLedger):
    """Reorder and decompose one supernode in a private manager, counted
    as a live ledger source for its lifetime (so kernel safe-point spans
    inside it see real deltas)."""
    result = transfer_many(part.mgr, [part.refs[name]])
    mgr = result.manager
    mgr.tracer = tracer
    with ledger.source(mgr.perf_snapshot):
        return _reorder_and_decompose(mgr, result.refs[0], name, opts, stats)


def _decompose_worker(payload: Tuple[str, str, BDSOptions, bool]):
    """Process-pool entry point: rebuild one supernode BDD from its
    serialized form, reorder, decompose, and ship the name-mapped tree
    back with the worker's stats, kernel counters and serialized span
    tree -- a forked child cannot share the parent tracer, so spans
    travel back through the result channel.  ``counted`` mirrors whether
    the parent tracer records counter deltas."""
    name, text, opts, counted = payload
    mgr, roots = bdd_loads(text)
    stats = DecompStats()
    tracer = Tracer(counter_source=mgr.perf_snapshot if counted else None)
    mgr.tracer = tracer
    with tracer.span("decompose.supernode", supernode=name, worker=True):
        tree = _reorder_and_decompose(mgr, roots[0], name, opts, stats)
    return (name, tree, stats.as_dict(), mgr.perf_snapshot(),
            tracer.export_spans())


def _decompose_parallel(part: PartitionedNetwork, names: List[str],
                        opts: BDSOptions, stats: DecompStats,
                        trees: Dict[str, object], ledger: _PerfLedger,
                        tracer: Tracer) -> None:
    """Fan supernodes out over a process pool (opts.jobs workers).

    Supernodes own independent BDDs after eliminate, so each worker gets
    one serialized BDD and returns one factoring tree; results are merged
    in sorted-name order, keeping the flow's output deterministic.
    Worker span trees are grafted under the caller's open span.
    """
    from concurrent.futures import ProcessPoolExecutor

    counted = tracer.counter_source is not None
    payloads = [(name, bdd_dumps(part.mgr, [part.refs[name]]), opts, counted)
                for name in names]
    with ProcessPoolExecutor(max_workers=opts.jobs) as pool:
        for name, tree, stats_dict, snap, spans in pool.map(
                _decompose_worker, payloads):
            trees[name] = tree
            stats.merge(stats_dict)
            ledger.add(snap)
            tracer.graft(spans)
