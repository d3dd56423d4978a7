"""BDD-based combinational equivalence checking.

Builds global BDDs of both networks output-by-output in one manager and
compares canonical refs -- exactly how both BDS and SIS verify synthesis
results (Section V).  The manager's variable order is
:func:`repro.network.cones.structural_order`: primary inputs in the order
a depth-first walk of the output cones first reaches them, which
interleaves the operand bits of adders, comparators and shifters so their
proofs stay polynomial.
Each node's function comes from its cover through
:func:`repro.bdd.ops.cover_bdd`.  One allocation budget per call guards
against blowup; outputs it leaves unbuilt are reported as ``unknown`` and
should be cross-checked by simulation.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.bdd import BDD, BddBudgetExceeded
from repro.bdd.ops import cover_bdd
from repro.bdd.traverse import pick_assignment
from repro.network.cones import structural_order
from repro.network.network import Network


class EquivalenceResult(NamedTuple):
    equivalent: bool
    checked_outputs: List[str]
    unknown_outputs: List[str]        # not built within the budget
    counterexample: Optional[Dict[str, bool]]
    failing_output: Optional[str]
    perf: Dict[str, float]            # the CEC manager's perf_snapshot()


#: Default work budget (fresh node allocations for the whole call).  Sized
#: so every proof the test suite relies on completes (the largest, C6288
#: optimized vs. original, needs ~120k) while still cutting off
#: exponential blowups.
DEFAULT_BUDGET = 2_000_000


def check_equivalence(a: Network, b: Network,
                      budget: Optional[int] = DEFAULT_BUDGET
                      ) -> EquivalenceResult:
    """Check that two networks implement the same functions.

    Requires identical input and output name sets.  Returns a result whose
    ``equivalent`` is True only when *every* output was proven equal.
    ``budget`` bounds the *work* of the whole call: once building the
    global BDDs has allocated that many fresh nodes, every output not yet
    built is abandoned to ``unknown_outputs`` (to be cross-checked by
    simulation); ``None`` means unbounded.  Counting allocations rather
    than final size or seconds matters in practice -- an output can grow
    millions of intermediate nodes and still collapse to a small BDD, and
    the count, unlike a clock, is the same on every run and machine.
    """
    if set(a.inputs) != set(b.inputs):
        raise ValueError("input sets differ: %r vs %r"
                         % (sorted(a.inputs), sorted(b.inputs)))
    if sorted(a.outputs) != sorted(b.outputs):
        raise ValueError("output sets differ")

    mgr = BDD()
    var_of = {name: mgr.new_var(name) for name in structural_order(a)}
    if budget is not None:
        mgr.set_alloc_limit(mgr.perf.nodes_allocated + budget)

    cache_a: Dict[str, int] = {}
    cache_b: Dict[str, int] = {}
    checked: List[str] = []
    unknown: List[str] = []
    for out in a.outputs:
        ref_a = _global_bdd(mgr, a, out, var_of, cache_a)
        ref_b = _global_bdd(mgr, b, out, var_of, cache_b)
        if ref_a is None or ref_b is None:
            unknown.append(out)
            continue
        if ref_a != ref_b:
            # The counterexample must not fail for want of budget.
            mgr.set_alloc_limit(None)
            diff = mgr.xor_(ref_a, ref_b)
            partial = pick_assignment(mgr, diff)
            cex = {name: partial.get(var_of[name], False) for name in a.inputs}
            return EquivalenceResult(False, checked, unknown, cex, out,
                                     mgr.perf_snapshot())
        checked.append(out)
    return EquivalenceResult(len(unknown) == 0, checked, unknown, None, None,
                             mgr.perf_snapshot())


def _global_bdd(mgr: BDD, net: Network, output: str, var_of: Dict[str, int],
                cache: Dict[str, int]) -> Optional[int]:
    """Global BDD of one output; None when the manager's allocation limit
    (:meth:`BDD.set_alloc_limit`) stops the build.

    Completed nodes stay in ``cache``, so a later output that shares them
    does not rebuild them; the kernel aborts before touching manager
    state, so everything built so far stays canonical.
    """

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
        return build(output)
    except BddBudgetExceeded:
        return None
