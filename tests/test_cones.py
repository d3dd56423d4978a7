"""Tests for cone analysis."""

import itertools

from repro.network import Network
from repro.network.cones import extract_cone, mffc, transitive_fanin


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

