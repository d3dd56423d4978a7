"""Network cone analysis: transitive fanin cones, MFFCs, cone extraction
and the structural input order.

These are the standard structural queries of a logic-synthesis network
package: the BDS paper's eliminate reasons about supernode granularity,
and any downstream user of this library (mappers, verifiers, partitioners)
needs cones and maximum fanout-free cones (MFFCs).  Every global BDD the
package builds (sweep's merge proofs, CEC) orders its variables by
:func:`structural_order`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.network.network import Network


def transitive_fanin(net: Network, signal: str) -> Set[str]:
    """All signals (nodes and PIs) in the cone of ``signal``, inclusive."""
    seen: Set[str] = set()
    stack = [signal]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        node = net.nodes.get(name)
        if node is not None:
            stack.extend(node.fanins)
    return seen


def mffc(net: Network, root: str) -> Set[str]:
    """Maximum fanout-free cone of node ``root``: the nodes whose every
    path to an output passes through ``root`` (so collapsing/removing the
    root frees them all)."""
    if root not in net.nodes:
        return set()
    fanouts = net.fanouts()
    cone: Set[str] = {root}
    changed = True
    while changed:
        changed = False
        for name in list(cone):
            for fanin in net.nodes[name].fanins:
                if fanin in cone or fanin not in net.nodes:
                    continue
                if fanin in net.outputs:
                    continue
                if all(consumer in cone for consumer in fanouts.get(fanin, ())):
                    cone.add(fanin)
                    changed = True
    return cone


def extract_cone(net: Network, outputs: Sequence[str],
                 name: str = "cone") -> Network:
    """A standalone network computing ``outputs``; cone PIs become inputs."""
    keep: Set[str] = set()
    for o in outputs:
        keep |= transitive_fanin(net, o)
    out = Network(name)
    for i in net.inputs:
        if i in keep:
            out.add_input(i)
    for node in net.topological():
        if node.name in keep:
            out.add_node(node.name, list(node.fanins), list(node.cover))
    for o in outputs:
        out.add_output(o)
    out.check()
    return out


def structural_order(net: Network) -> List[str]:
    """The primary inputs in depth-first output-cone order.

    A signal's depth is 0 for a primary input and 1 + the deepest fanin
    for a node.  Outputs are walked deepest first (ties: output
    position); each walk visits a node's fanins shallowest first (ties:
    fanin position) and appends every input the first time it reaches
    it.  Inputs no output reaches follow in ``net.inputs`` order.  The
    bits an output's logic combines early therefore sit next to each
    other -- ``a_i`` beside ``b_i`` in an adder -- which is the
    interleaving under which adder-class proofs are polynomial.  The walk
    is iterative and never iterates a set, so the order is the same under
    every hash seed.
    """
    depth: Dict[str, int] = {name: 0 for name in net.inputs}
    for node in net.topological():
        depth[node.name] = 1 + max((depth[f] for f in node.fanins), default=0)
    order: List[str] = []
    seen: Set[str] = set()
    outputs = sorted(range(len(net.outputs)),
                     key=lambda k: (-depth.get(net.outputs[k], 0), k))
    for k in outputs:
        stack = [net.outputs[k]]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            node = net.nodes.get(name)
            if node is None:
                if name in depth:  # a primary input
                    order.append(name)
                continue
            # Pushed deepest first, so popped shallowest first (sorted()
            # is stable: equal depths keep fanin position order).
            stack.extend(reversed(sorted(node.fanins, key=depth.__getitem__)))
    order.extend(name for name in net.inputs if name not in seen)
    return order

