"""Tests for the equivalence checkers: BDD CEC edge cases, exhaustive
simulation, and the unified verify runner."""

import json
import os
import subprocess
import sys

import pytest

from repro.bds import bds_optimize
from repro.circuits import build_circuit
from repro.network import Network, parse_blif
from repro.sop.cube import lit
from repro.verify import (
    EXHAUSTIVE_LIMIT,
    VerifyError,
    check_equivalence,
    require_equivalent,
    simulate_equivalence,
    verify_networks,
)
from repro.network.cones import structural_order

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _corrupted_add4():
    """add4 with the first sum node's XOR cover flipped to XNOR."""
    net = build_circuit("add4")
    bad = net.copy()
    bad.nodes["fa0_s"].cover = [frozenset({lit(0), lit(1)}),
                                frozenset({lit(0, False), lit(1, False)})]
    return net, bad


class TestCheckEquivalence:
    def test_counterexample_actually_distinguishes(self):
        net, bad = _corrupted_add4()
        res = check_equivalence(net, bad)
        assert not res.equivalent
        assert res.failing_output is not None
        cex = res.counterexample
        assert set(cex) == set(net.inputs)
        got_a = net.eval(cex)
        got_b = bad.eval(cex)
        assert got_a[res.failing_output] != got_b[res.failing_output]

    def test_mismatched_inputs_raise(self):
        a = parse_blif(".model a\n.inputs x\n.outputs y\n"
                       ".names x y\n1 1\n.end")
        b = parse_blif(".model b\n.inputs z\n.outputs y\n"
                       ".names z y\n1 1\n.end")
        with pytest.raises(ValueError, match="input sets differ"):
            check_equivalence(a, b)

    def test_mismatched_outputs_raise(self):
        a = parse_blif(".model a\n.inputs x\n.outputs y\n"
                       ".names x y\n1 1\n.end")
        b = parse_blif(".model b\n.inputs x\n.outputs w\n"
                       ".names x w\n1 1\n.end")
        with pytest.raises(ValueError, match="output sets differ"):
            check_equivalence(a, b)

    def test_size_cap_reports_unknown_not_pass(self):
        net = build_circuit("add4")
        res = check_equivalence(net, net.copy(), budget=1)
        assert not res.equivalent           # unknown is not a pass
        assert res.counterexample is None
        assert res.unknown_outputs
        assert set(res.unknown_outputs) | set(res.checked_outputs) \
            == set(net.outputs)

    def test_identical_networks_prove_all_outputs(self):
        net = build_circuit("parity8")
        res = check_equivalence(net, net.copy())
        assert res.equivalent
        assert sorted(res.checked_outputs) == sorted(net.outputs)
        assert not res.unknown_outputs


class TestSimulateEquivalence:
    def test_exhaustive_catches_single_minterm_bug(self):
        # AND of 12 inputs vs constant 0: they differ on exactly one of
        # the 4096 assignments -- random patterns would almost surely
        # miss it, the exhaustive path cannot.
        n = EXHAUSTIVE_LIMIT
        names = ["i%d" % k for k in range(n)]
        a = Network("wide_and")
        b = Network("const0")
        for net in (a, b):
            for name in names:
                net.add_input(name)
            net.add_output("y")
        a.add_node("y", names,
                   [frozenset(lit(k) for k in range(n))])
        b.add_const("y", False)
        agree, cex = simulate_equivalence(a, b)
        assert not agree
        assert cex == {name: True for name in names}

    def test_exhaustive_agreement_is_a_proof(self):
        net = build_circuit("add4")
        assert len(net.inputs) <= EXHAUSTIVE_LIMIT
        agree, cex = simulate_equivalence(net, net.copy())
        assert agree and cex is None

    def test_seeded_random_fallback_reproduces(self):
        net = build_circuit("bshift32")   # > EXHAUSTIVE_LIMIT inputs
        assert len(net.inputs) > EXHAUSTIVE_LIMIT
        bad = net.copy()
        out = bad.outputs[0]
        node = bad.nodes[out]
        node.cover = [frozenset()]                 # stuck-at-1 miscompile
        first = simulate_equivalence(net, bad, seed=7)
        second = simulate_equivalence(net, bad, seed=7)
        assert first == second
        assert not first[0]


class TestVerifyRunner:
    def test_modes_agree_on_equivalent(self):
        net = build_circuit("add4")
        for mode in ("sim", "cec", "full"):
            outcome = verify_networks(net, net.copy(), mode=mode)
            assert outcome.equivalent, mode
            assert outcome.outputs_checked > 0

    def test_full_mode_exhaustive_crosscheck_is_a_proof(self):
        net = build_circuit("add4")        # <= EXHAUSTIVE_LIMIT inputs
        outcome = verify_networks(net, net.copy(), mode="full", budget=1)
        assert outcome.equivalent
        assert outcome.proven              # full truth table = proof
        assert not outcome.unknown_outputs

    def test_full_mode_random_crosscheck_stays_unproven(self):
        net = build_circuit("bshift32")    # > EXHAUSTIVE_LIMIT inputs
        outcome = verify_networks(net, net.copy(), mode="full", budget=1)
        assert outcome.equivalent          # simulation vouches for them
        assert not outcome.proven          # ... but it is not a proof
        assert outcome.unknown_outputs

    def test_require_equivalent_raises_with_counterexample(self):
        net, bad = _corrupted_add4()
        with pytest.raises(VerifyError) as info:
            require_equivalent(net, bad, mode="full")
        err = info.value
        assert err.mode == "full"
        assert err.failing_output is not None
        assert set(err.counterexample) == set(net.inputs)

    def test_unknowns_do_not_raise(self):
        net = build_circuit("add4")
        outcome = require_equivalent(net, net.copy(), mode="cec",
                                     budget=1)
        assert outcome.unknown_outputs

    def test_bad_mode_rejected(self):
        net = build_circuit("add4")
        with pytest.raises(ValueError):
            verify_networks(net, net.copy(), mode="nope")


class TestStructuralOrder:
    """The CEC manager's structural variable order keeps adder-class and
    shifter proofs polynomial: each bound below is about twice what the
    proof allocates."""

    @staticmethod
    def _optimized(name):
        net = build_circuit(name)
        return net, bds_optimize(net).network

    def test_bshift16_proves_under_a_small_cap(self):
        net, opt = self._optimized("bshift16")
        res = check_equivalence(net, opt, budget=5000)
        assert res.equivalent
        assert not res.unknown_outputs
        assert len(res.checked_outputs) == 16

    @pytest.mark.parametrize("name,bound", [("add64", 1400),
                                            ("C432", 165_000)])
    def test_proof_allocations_stay_bounded(self, name, bound):
        net, opt = self._optimized(name)
        res = check_equivalence(net, opt)
        assert res.equivalent
        assert 0 < res.perf["nodes_allocated"] <= bound

    def test_adder_operands_interleave(self):
        net = build_circuit("add8")
        order = structural_order(net)
        pos = {name: k for k, name in enumerate(order)}
        for i in range(8):
            assert abs(pos["a%d" % i] - pos["b%d" % i]) == 1

    @pytest.mark.parametrize("name", ["C432", "bshift16", "cmp8"])
    def test_order_is_a_permutation_of_the_inputs(self, name):
        net = build_circuit(name)
        order = structural_order(net)
        assert sorted(order) == sorted(net.inputs)
        assert len(order) == len(net.inputs)

    def test_unreached_inputs_follow_in_input_order(self):
        net = Network("partial")
        for name in ("u", "x", "v", "y"):
            net.add_input(name)
        net.add_and("o", ["y", "x"])
        net.add_output("o")
        assert structural_order(net) == ["y", "x", "u", "v"]

    def test_order_ignores_the_hash_seed(self):
        script = ("import json; from repro.circuits import build_circuit; "
                  "from repro.network.cones import structural_order; "
                  "print(json.dumps([structural_order(build_circuit(c)) "
                  "for c in ('C432', 'C880', 'add32', 'bshift16')]))")
        orders = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.join(REPO_ROOT, "src"))
            res = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            orders.append(json.loads(res.stdout))
        assert orders[0] == orders[1]
