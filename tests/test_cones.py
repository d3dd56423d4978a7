"""Tests for cone analysis and full collapsing."""

import itertools


from repro.circuits import parity_tree, ripple_adder
from repro.network import Network
from repro.network.cones import (
    collapse_to_two_level,
    extract_cone,
    mffc,
    transitive_fanin,
    transitive_fanout,
)
from repro.sop.cube import lit
from repro.verify import check_equivalence


def diamond() -> Network:
    """a,b -> shared t -> two outputs with private logic."""
    net = Network("diamond")
    for n in "abc":
        net.add_input(n)
    net.add_output("y1")
    net.add_output("y2")
    net.add_and("t", ["a", "b"])
    net.add_or("u1", ["t", "c"])
    net.add_not("y1", "u1")
    net.add_xor("y2", ["t", "c"])
    return net


class TestCones:
    def test_transitive_fanin(self):
        net = diamond()
        cone = transitive_fanin(net, "y1")
        assert cone == {"y1", "u1", "t", "a", "b", "c"}

    def test_transitive_fanout(self):
        net = diamond()
        fan = transitive_fanout(net, "t")
        assert fan == {"u1", "y1", "y2"}
        assert transitive_fanout(net, "y1") == set()

    def test_mffc_shared_node_excluded(self):
        net = diamond()
        # u1 is exclusively y1's; t is shared with y2 so not in y1's MFFC.
        cone = mffc(net, "y1")
        assert "u1" in cone
        assert "t" not in cone

    def test_mffc_of_whole_private_cone(self):
        net = Network("chain")
        net.add_input("a")
        net.add_input("b")
        net.add_output("y")
        net.add_and("t1", ["a", "b"])
        net.add_not("t2", "t1")
        net.add_buf("y", "t2")
        assert mffc(net, "y") == {"y", "t2", "t1"}

    def test_extract_cone_standalone(self):
        net = diamond()
        cone = extract_cone(net, ["y2"])
        assert set(cone.outputs) == {"y2"}
        for bits in itertools.product([False, True], repeat=3):
            env = dict(zip("abc", bits))
            assert cone.eval(env)["y2"] == net.eval(env)["y2"]

    def test_extract_cone_drops_unused_inputs(self):
        net = Network("partial")
        for n in "abc":
            net.add_input(n)
        net.add_output("y")
        net.add_and("y", ["a", "b"])
        cone = extract_cone(net, ["y"])
        assert "c" not in cone.inputs


class TestCollapse:
    def test_collapse_preserves_function(self):
        net = ripple_adder(3)
        flat = collapse_to_two_level(net)
        assert flat is not None
        assert check_equivalence(net, flat).equivalent
        # Every node reads only PIs.
        for node in flat.nodes.values():
            for f in node.fanins:
                assert f in flat.inputs

    def test_collapse_parity_blows_up_gracefully(self):
        net = parity_tree(12)
        flat = collapse_to_two_level(net, max_cubes=100)
        assert flat is None  # 2^11 minterms needed

    def test_collapse_output_is_input(self):
        net = Network("thru")
        net.add_input("a")
        net.add_output("a")
        flat = collapse_to_two_level(net)
        assert flat is not None
        assert flat.eval({"a": True})["a"] is True

    def test_collapse_caps_cubes_not_bdd_work(self):
        # A 12-input AND chain collapses to one cube.  Building its global
        # BDD allocates more than three nodes, so a cap that also bounded
        # the BDD work would refuse it.
        net = Network("and_chain")
        names = [net.add_input("x%d" % k) for k in range(12)]
        prev = names[0]
        for k in range(1, 12):
            prev = net.add_and("t%d" % k, [prev, names[k]])
        net.add_output(prev)
        flat = collapse_to_two_level(net, max_cubes=3)
        assert flat is not None
        assert flat.nodes[prev].cover == [
            frozenset(lit(k) for k in range(12))]
        assert check_equivalence(net, flat).equivalent
