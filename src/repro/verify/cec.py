"""BDD-based combinational equivalence checking.

Builds global BDDs of both networks output-by-output in one manager and
compares canonical refs -- exactly how both BDS and SIS verify synthesis
results (Section V).  The manager's variable order is
:func:`repro.network.cones.structural_order`: primary inputs in the order
a depth-first walk of the output cones first reaches them, which
interleaves the operand bits of adders, comparators and shifters so their
proofs stay polynomial.
Each node's function comes from its cover through
:func:`repro.bdd.ops.cover_bdd`.  A work cap guards against blowup;
capped outputs are reported as ``unknown`` and should be cross-checked by
simulation.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional

from repro.bdd import BDD, BddBudgetExceeded
from repro.bdd.ops import cover_bdd
from repro.bdd.traverse import pick_assignment
from repro.network.cones import structural_order
from repro.network.network import Network


class EquivalenceResult(NamedTuple):
    equivalent: bool
    checked_outputs: List[str]
    unknown_outputs: List[str]        # blew the size cap
    counterexample: Optional[Dict[str, bool]]
    failing_output: Optional[str]
    perf: Dict[str, float]            # the CEC manager's perf_snapshot()


#: Default per-output work budget (fresh node allocations).  Sized so every
#: proof the test suite relies on completes (the worst, C432 optimized vs.
#: original, needs ~55k for its worst output) while still cutting off
#: exponential blowups.
DEFAULT_SIZE_CAP = 2_000_000


def check_equivalence(a: Network, b: Network, size_cap: int = DEFAULT_SIZE_CAP,
                      deadline: Optional[float] = None) -> EquivalenceResult:
    """Check that two networks implement the same functions.

    Requires identical input and output name sets.  Returns a result whose
    ``equivalent`` is True only when *every* output was proven equal.
    ``size_cap`` bounds the *work* per output: once building an output's
    global BDD has allocated that many fresh nodes the output is abandoned
    to ``unknown_outputs`` (to be cross-checked by simulation).  Capping
    work rather than final size matters in practice -- an output can grow
    millions of intermediate nodes and still collapse to a small BDD.
    ``deadline`` (a ``time.monotonic()`` instant) bounds the whole call the
    same way: outputs not proven by then are reported unknown.
    """
    if set(a.inputs) != set(b.inputs):
        raise ValueError("input sets differ: %r vs %r"
                         % (sorted(a.inputs), sorted(b.inputs)))
    if sorted(a.outputs) != sorted(b.outputs):
        raise ValueError("output sets differ")

    mgr = BDD()
    var_of = {name: mgr.new_var(name) for name in structural_order(a)}

    cache_a: Dict[str, Optional[int]] = {}
    cache_b: Dict[str, Optional[int]] = {}
    checked: List[str] = []
    unknown: List[str] = []
    for out in a.outputs:
        if deadline is not None and time.monotonic() > deadline:
            unknown.append(out)
            continue
        ref_a = _global_bdd(mgr, a, out, var_of, cache_a, size_cap, deadline)
        ref_b = _global_bdd(mgr, b, out, var_of, cache_b, size_cap, deadline)
        if ref_a is None or ref_b is None:
            unknown.append(out)
            continue
        if ref_a != ref_b:
            diff = mgr.xor_(ref_a, ref_b)
            partial = pick_assignment(mgr, diff)
            cex = {name: partial.get(var_of[name], False) for name in a.inputs}
            return EquivalenceResult(False, checked, unknown, cex, out,
                                     mgr.perf_snapshot())
        checked.append(out)
    return EquivalenceResult(len(unknown) == 0, checked, unknown, None, None,
                             mgr.perf_snapshot())


#: Allocation granularity of the abort check: the kernel interrupts the
#: build every this-many fresh nodes so a single deep operator call cannot
#: blow past the work cap or the deadline unchecked.
_BUDGET_CHUNK = 4096


def _global_bdd(mgr: BDD, net: Network, output: str, var_of: Dict[str, int],
                cache: Dict[str, Optional[int]], size_cap: int,
                deadline: Optional[float] = None) -> Optional[int]:
    """Global BDD of one output; None when the work budget runs out.

    The work cap is enforced by the kernel itself: the manager's
    allocation limit is advanced in :data:`_BUDGET_CHUNK` steps, and at
    every :class:`BddBudgetExceeded` interrupt we either give up (cap or
    deadline exhausted) or extend the window and resume.  Resuming is
    cheap -- completed nodes sit in ``cache`` and the operator caches
    replay the partial work.
    """
    budget_start = mgr.perf.nodes_allocated

    def exhausted() -> bool:
        if mgr.perf.nodes_allocated - budget_start >= size_cap:
            return True
        return deadline is not None and time.monotonic() > deadline

    def build(name: str) -> int:
        if name in var_of and name not in net.nodes:
            return mgr.var_ref(var_of[name])
        ref = cache.get(name)
        if ref is not None:
            return ref
        node = net.nodes[name]
        ref = cover_bdd(mgr, node.cover, [build(f) for f in node.fanins])
        cache[name] = ref
        return ref

    try:
        while True:
            mgr.set_alloc_limit(min(budget_start + size_cap,
                                    mgr.perf.nodes_allocated + _BUDGET_CHUNK))
            try:
                return build(output)
            except BddBudgetExceeded:
                if exhausted():
                    return None
    finally:
        mgr.set_alloc_limit(None)
