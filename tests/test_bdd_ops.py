"""Tests for the higher-order BDD operators (the cover builder included)
and the delay-mode mapper."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, ONE, ZERO, and_exists, rename_vars, swap_vars
from repro.bdd.ops import cover_bdd
from repro.mapping import map_network
from repro.network import Network
from repro.network.eliminate import PartitionedNetwork
from repro.network.sweep import sweep
from repro.sop.cube import lit
from repro.verify import check_equivalence


@pytest.fixture
def mgr():
    return BDD()


def _random_function(mgr, variables, rng, n_ops=20):
    refs = [mgr.var_ref(v) for v in variables]
    for _ in range(n_ops):
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
    return refs[-1]


class TestAndExists:
    def test_matches_naive(self, mgr):
        rng = random.Random(3)
        vs = [mgr.new_var() for _ in range(6)]
        for _ in range(30):
            f = _random_function(mgr, vs, rng)
            g = _random_function(mgr, vs, rng)
            quantified = rng.sample(vs, rng.randint(0, 4))
            fused = and_exists(mgr, f, g, quantified)
            naive = mgr.exists(mgr.and_(f, g), quantified)
            assert fused == naive

    def test_terminal_cases(self, mgr):
        a = mgr.new_var("a")
        ra = mgr.var_ref(a)
        assert and_exists(mgr, ZERO, ra, [a]) == ZERO
        assert and_exists(mgr, ra, ra ^ 1, [a]) == ZERO
        assert and_exists(mgr, ra, ONE, [a]) == ONE

    def test_no_variables(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        ra, rb = mgr.var_ref(a), mgr.var_ref(b)
        assert and_exists(mgr, ra, rb, []) == mgr.and_(ra, rb)


class TestRenameSwap:
    def test_rename(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        g = rename_vars(mgr, f, {a: c})
        assert g == mgr.and_(mgr.var_ref(c), mgr.var_ref(b))

    def test_swap(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b) ^ 1)
        g = swap_vars(mgr, f, [(a, b)])
        assert g == mgr.and_(mgr.var_ref(b), mgr.var_ref(a) ^ 1)
        # Swapping twice is the identity.
        assert swap_vars(mgr, g, [(a, b)]) == f


class TestDelayModeMapping:
    def _chain_network(self):
        from repro.network import Network
        net = Network("chain")
        names = [net.add_input("x%d" % i) for i in range(8)]
        prev = names[0]
        for i in range(1, 8):
            cur = "t%d" % i if i < 7 else "y"
            net.add_and(cur, [prev, names[i]])
            prev = cur
        net.add_output("y")
        return net

    def test_modes_verified_and_delay_ordering(self):
        from repro.verify import check_equivalence
        net = self._chain_network()
        area_map = map_network(net, mode="area")
        delay_map = map_network(net, mode="delay")
        assert check_equivalence(net, area_map.network).equivalent
        assert check_equivalence(net, delay_map.network).equivalent
        assert delay_map.delay <= area_map.delay
        assert area_map.area <= delay_map.area

    def test_invalid_mode(self):
        net = self._chain_network()
        with pytest.raises(ValueError):
            map_network(net, mode="power")


# ----------------------------------------------------------------------
# cover_bdd: the one cover -> BDD builder
# ----------------------------------------------------------------------


def _cube_by_cube(mgr, cover, fanin_refs):
    """Reference semantics: AND every cube, OR the results."""
    acc = ZERO
    for cube in cover:
        term = ONE
        for l in cube:
            term = mgr.and_(term, fanin_refs[l >> 1] ^ (l & 1))
        acc = mgr.or_(acc, term)
    return acc


@st.composite
def _covers(draw):
    """(n, fanins, cover): fanin k is variable k or, when its pair flag is
    set, variable k XOR variable k+1; either may be complemented.  The
    cover may be empty and holds empty, duplicate and contained cubes."""
    n = draw(st.integers(0, 8))
    fanins = [(draw(st.booleans()), draw(st.booleans())) for _ in range(n)]
    pos = st.integers(0, max(n - 1, 0))
    cube = (st.dictionaries(pos, st.booleans(), max_size=n) if n
            else st.just({}))
    cover = [frozenset(lit(p, v) for p, v in c.items())
             for c in draw(st.lists(cube, max_size=8))]
    if cover:
        index = st.integers(0, len(cover) - 1)
        for k in draw(st.lists(index, max_size=2)):
            cover.append(cover[k])
        if n:
            for k, p, v in draw(st.lists(st.tuples(index, pos, st.booleans()),
                                         max_size=2)):
                if lit(p, not v) not in cover[k]:
                    cover.append(cover[k] | {lit(p, v)})
    return n, fanins, cover


class TestCoverBdd:
    @settings(max_examples=150, deadline=None)
    @given(_covers())
    def test_matches_cube_by_cube_and_truth_table(self, case):
        n, fanins, cover = case
        mgr = BDD()
        vs = [mgr.new_var() for _ in range(max(n, 1) + 1)]
        refs = []
        for k, (flip, pair) in enumerate(fanins):
            ref = mgr.var_ref(vs[k])
            if pair:
                ref = mgr.xor_(ref, mgr.var_ref(vs[k + 1]))
            refs.append(ref ^ flip)
        got = cover_bdd(mgr, cover, refs)
        assert got == _cube_by_cube(mgr, cover, refs)
        for bits in itertools.product([False, True], repeat=len(vs)):
            values = [bits[k] ^ (pair and bits[k + 1]) ^ flip
                      for k, (flip, pair) in enumerate(fanins)]
            want = any(all(values[l >> 1] != bool(l & 1) for l in cube)
                       for cube in cover)
            leaf = got
            for v, bit in zip(vs, bits):
                leaf = mgr.cofactor(leaf, v, bit)
            assert leaf == (ONE if want else ZERO)

    def test_constant_covers(self, mgr):
        a = mgr.var_ref(mgr.new_var("a"))
        assert cover_bdd(mgr, [], [a]) == ZERO
        assert cover_bdd(mgr, [frozenset()], [a]) == ONE
        assert cover_bdd(mgr, [frozenset({lit(0)}), frozenset()], [a]) == ONE
        assert cover_bdd(mgr, [frozenset({lit(0), lit(0, False)})], [a]) \
            == ZERO

    def test_sum_of_pairs_is_linear_in_any_fanin_order(self):
        # x1 y1 + ... + x12 y12 under the interleaved variable order.
        # Splitting on fanins in position order would need 2^12 ITEs when
        # the x fanins come first; splitting on the most frequent fanin
        # and ORing the rest stays linear.
        n = 12
        for positions in ("interleaved", "xs_first"):
            mgr = BDD()
            xs, ys = [], []
            for i in range(n):
                xs.append(mgr.var_ref(mgr.new_var("x%d" % i)))
                ys.append(mgr.var_ref(mgr.new_var("y%d" % i)))
            if positions == "interleaved":
                refs = [r for pair in zip(xs, ys) for r in pair]
                cover = [frozenset({lit(2 * i), lit(2 * i + 1)})
                         for i in range(n)]
            else:
                refs = xs + ys
                cover = [frozenset({lit(i), lit(n + i)}) for i in range(n)]
            before = mgr.perf.ite_calls
            got = cover_bdd(mgr, cover, refs)
            assert mgr.perf.ite_calls - before <= 4 * n
            assert got == _cube_by_cube(mgr, cover, refs)

    @pytest.mark.parametrize("cover,op", [
        ([frozenset({lit(0), lit(1, False)}),
          frozenset({lit(0, False), lit(1)})],
         lambda mgr, f, g, h: mgr.xor_(f, g)),
        ([frozenset({lit(0), lit(1)}),
          frozenset({lit(0, False), lit(1, False)})],
         lambda mgr, f, g, h: mgr.xnor_(f, g)),
        ([frozenset({lit(0), lit(1)}), frozenset({lit(0, False), lit(2)})],
         lambda mgr, f, g, h: mgr.ite(f, g, h)),
    ], ids=["xor", "xnor", "mux"])
    def test_xor_xnor_mux_cost_one_ite(self, cover, op):
        # Over non-literal operands a cube-by-cube build would pay two
        # ANDs and an OR; the cover costs exactly its one ITE.
        mgr = BDD()
        vs = [mgr.var_ref(mgr.new_var()) for _ in range(6)]
        refs = [mgr.and_(vs[0], vs[3]), mgr.or_(vs[1], vs[4]),
                mgr.xor_(vs[2], vs[5])]
        mgr.clear_cache()
        before = mgr.perf.ite_calls
        got = cover_bdd(mgr, cover, refs)
        cost = mgr.perf.ite_calls - before
        mgr.clear_cache()
        before = mgr.perf.ite_calls
        assert got == op(mgr, *refs)
        assert cost == mgr.perf.ite_calls - before


class TestWideNodes:
    """A 2000-fanin AND node and a 2000-fanin OR node pass through every
    user of cover_bdd (no quadratic chains, no Python recursion)."""

    N = 2000

    def _wide(self):
        net = Network("wide")
        names = [net.add_input("i%d" % k) for k in range(self.N)]
        net.add_and("y_and", names)
        net.add_or("y_or", names)
        net.add_output("y_and")
        net.add_output("y_or")
        return net

    def test_check_equivalence(self):
        net = self._wide()
        res = check_equivalence(net, net.copy())
        assert res.equivalent
        assert sorted(res.checked_outputs) == ["y_and", "y_or"]

    def test_sweep(self):
        net = self._wide()
        swept = sweep(net.copy())
        assert check_equivalence(net, swept).equivalent

    def test_partitioned_network(self):
        net = self._wide()
        part = PartitionedNetwork.from_network(net)
        mgr = part.mgr
        inputs = [mgr.var_ref(part.sig_var[name]) for name in net.inputs]
        assert part.refs["y_and"] == mgr.and_many(inputs)
        assert part.refs["y_or"] == mgr.or_many(inputs)
