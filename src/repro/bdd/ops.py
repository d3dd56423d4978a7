"""Higher-order BDD operators built over the manager core.

``cover_bdd`` builds the BDD of a sum-of-products cover over arbitrary
fanin functions; it is the one cover-to-BDD builder of the verifier, the
sweep and the BDS partition.

``and_exists`` is the classic relational product (conjunction fused with
existential quantification, avoiding the intermediate conjunction blowup);
it accelerates the image computations of the satisfiability don't-care
pass.  ``swap_vars`` and ``rename_vars`` are substitution conveniences.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.bdd.manager import BDD, ONE, ZERO

_AND_EXISTS = 7

#: A cube: a set of literals ``2 * fanin_position + negated`` (the
#: :mod:`repro.sop.cube` encoding).
Cube = FrozenSet[int]

_EMPTY_CUBE: Cube = frozenset()


def cover_bdd(mgr: BDD, cover: Iterable[Cube], fanin_refs: Sequence[int]) -> int:
    """The BDD of the OR of ``cover``'s cubes over the ``fanin_refs``.

    The cover is split on the fanin that occurs in the most cubes (ties:
    lowest position) into ``ite(F_v, B(cubes with v, v dropped),
    B(cubes with ~v, ~v dropped))``, and the cubes that do not mention
    ``v`` are ORed onto that.  So XOR, XNOR and MUX covers cost one ITE
    each, where ANDing every cube and ORing the results costs three ITEs
    over the large operands; and because the split follows frequency, not
    position, ``x1 y1 + ... + xn yn`` stays linear under any fanin order.
    Literals common to every cube, and variable-disjoint cubes (AND and
    OR chains), are folded on one by one, deepest fanin first, so the
    chains grow linearly.  Sub-covers are memoised within the call.
    """
    memo: Dict[FrozenSet[Cube], int] = {}

    def level(l: int) -> int:
        return mgr.level(fanin_refs[l >> 1])

    def literal_ite(l: int, g: int, h: int) -> int:
        return _ite(mgr, fanin_refs[l >> 1] ^ (l & 1), g, h)

    def cube_level(cube: Cube) -> int:
        return min(level(l) for l in cube)

    def build(cubes: FrozenSet[Cube]) -> int:
        ref = memo.get(cubes)
        if ref is not None:
            return ref
        # Result: AND of the peeled ``prefix`` literals with ``acc``, the
        # OR of the split terms built so far (plus what ``pending`` adds).
        prefix: List[int] = []
        acc = ZERO
        pending = cubes
        while pending:
            if _EMPTY_CUBE in pending:
                acc = ONE
                break
            if acc == ZERO:
                # Literals of every cube are peeled here rather than
                # split on one by one: long shared products then cost
                # neither quadratic counting nor Python stack.
                common = frozenset.intersection(*pending)
                if common:
                    prefix.extend(sorted(common, key=lambda l: (level(l), l)))
                    pending = frozenset(cube - common for cube in pending)
                    continue
            counts: Dict[int, int] = {}
            for cube in pending:
                for l in cube:
                    counts[l >> 1] = counts.get(l >> 1, 0) + 1
            top = max(counts.values())
            if top == 1:
                # cube | acc == l1 ? (l2 ? ... : acc) : acc, innermost
                # (deepest) literal first.
                for cube in sorted(pending, key=cube_level, reverse=True):
                    r = ONE
                    for l in sorted(cube, key=level, reverse=True):
                        r = literal_ite(l, r, acc)
                    acc = r
                break
            v = min(p for p, n in counts.items() if n == top)
            pos, neg = 2 * v, 2 * v + 1
            hi: List[Cube] = []
            lo: List[Cube] = []
            rest: List[Cube] = []
            for cube in pending:
                if pos in cube:
                    if neg not in cube:  # a contradictory cube is empty
                        hi.append(cube - {pos})
                elif neg in cube:
                    lo.append(cube - {neg})
                else:
                    rest.append(cube)
            term = _ite(mgr, fanin_refs[v], build(frozenset(hi)),
                        build(frozenset(lo)))
            acc = term if acc == ZERO else mgr.or_(acc, term)
            pending = frozenset(rest)
        for l in reversed(prefix):
            acc = literal_ite(l, acc, ZERO)
        memo[cubes] = acc
        return acc

    return build(frozenset(cover))


def _ite(mgr: BDD, f: int, g: int, h: int) -> int:
    """``ite(f, g, h)``, without ITE calls when the result is ``f`` itself
    or, ``f`` being a literal above both branches, a single ``mk``."""
    if g == ONE and h == ZERO:
        return f
    if g == ZERO and h == ONE:
        return f ^ 1
    if mgr.is_var(f):
        if f & 1:
            f, g, h = f ^ 1, h, g
        top = mgr.level(f)
        if top < mgr.level(g) and top < mgr.level(h):
            return mgr.mk(mgr.var_of(f), h, g)
    return mgr.ite(f, g, h)


def and_exists(mgr: BDD, f: int, g: int, variables: Iterable[int]) -> int:
    """Compute ``exists variables . f & g`` without building ``f & g``."""
    levels = frozenset(mgr.level_of_var(v) for v in variables)
    if not levels:
        return mgr.and_(f, g)
    return _and_exists(mgr, f, g, levels, max(levels))


def _and_exists(mgr: BDD, f: int, g: int, levels: FrozenSet[int],
                max_level: int) -> int:
    if f == ZERO or g == ZERO:
        return ZERO
    if f == ONE and g == ONE:
        return ONE
    if f == ONE:
        return mgr._exists(g, levels, max_level)
    if g == ONE:
        return mgr._exists(f, levels, max_level)
    if f == g:
        return mgr._exists(f, levels, max_level)
    if f == (g ^ 1):
        return ZERO
    if min(mgr.level(f), mgr.level(g)) > max_level:
        return mgr.and_(f, g)
    if g < f:
        f, g = g, f
    key = (_AND_EXISTS, f, g, levels)
    cached = mgr._cache.lookup(key)
    if cached is not None:
        return cached
    lf, lg = mgr.level(f), mgr.level(g)
    top = min(lf, lg)
    var = mgr.var_at_level(top)
    f0, f1 = mgr.children(f) if lf == top else (f, f)
    g0, g1 = mgr.children(g) if lg == top else (g, g)
    r0 = _and_exists(mgr, f0, g0, levels, max_level)
    if top in levels:
        if r0 == ONE:
            r = ONE
        else:
            r1 = _and_exists(mgr, f1, g1, levels, max_level)
            r = mgr.or_(r0, r1)
    else:
        r1 = _and_exists(mgr, f1, g1, levels, max_level)
        r = mgr.mk(var, r0, r1)
    mgr._cache.insert(key, r)
    return r


def rename_vars(mgr: BDD, f: int, mapping: Dict[int, int]) -> int:
    """Substitute variables by variables (a pure renaming).

    The mapping must be injective on the support; renamed functions are
    rebuilt through ITE so arbitrary level changes are allowed.
    """
    subst = {old: mgr.var_ref(new) for old, new in mapping.items()}
    return mgr.vector_compose(f, subst)


def swap_vars(mgr: BDD, f: int, pairs: Iterable[Tuple[int, int]]) -> int:
    """Exchange variable pairs simultaneously (x<->y for each pair)."""
    mapping: Dict[int, int] = {}
    for a, b in pairs:
        mapping[a] = b
        mapping[b] = a
    return rename_vars(mgr, f, mapping)
