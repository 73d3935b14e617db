"""sympy's PermutationGroup as an oracle that shares no code with permlat
or with tests/oracles.py: on every builtin group of order <= 400, the
basic invariants agree, as do the composition factors of the solvable ones,
the normality of each Sylow subgroup, the Sylow counts n_p, the lower
central series, the abelian invariants, the normal closure of each element
class and the minimal normal subgroups. B648 is
left out, as its conjugacy classes would need its Cayley table, which the
corpus never builds."""

import pytest

sympy_perm = pytest.importorskip("sympy.combinatorics")
sympy_random = pytest.importorskip("sympy.core.random")

from permlat.corpus import builtin_corpus
from permlat.groups import _close_bits, _iter_bits
from permlat.lattice import _normal_closure_bits, enumerate_subgroups
from permlat.structure import (
    abelian_invariants,
    center,
    chief_series,
    derived_series,
    is_nilpotent,
    is_solvable,
    minimal_normal_subgroups,
    sylow_normal,
)

MAX_ORDER = 400


def _sympy_group(g):
    gens = [sympy_perm.Permutation([x - 1 for x in p.images]) for p in g.generators]
    return sympy_perm.PermutationGroup(gens or [sympy_perm.Permutation(g.degree - 1)])


def _permlat_answers(g):
    return {
        "order": g.order,
        "abelian": g.is_abelian(),
        "center": center(g).order,
        "derived": [s.order for s in derived_series(g)],
        "nilpotent": is_nilpotent(g),
        "solvable": is_solvable(g),
        "classes": len(g.conjugacy_classes()[0]),
    }


def _sympy_answers(sg):
    return {
        "order": sg.order(),
        "abelian": sg.is_abelian,
        "center": sg.center().order(),
        "derived": [h.order() for h in sg.derived_series()],
        "nilpotent": sg.is_nilpotent,
        "solvable": sg.is_solvable,
        "classes": len(sg.conjugacy_classes()),
    }


def test_invariants_match_sympy():
    groups = [(name, g) for name, g in builtin_corpus() if g.order <= MAX_ORDER]
    assert len(groups) == 88
    mismatches = [
        (name, mine, theirs)
        for name, g in groups
        if (mine := _permlat_answers(g)) != (theirs := _sympy_answers(_sympy_group(g)))
    ]
    assert mismatches == []
    # Not every answer is the same: the corpus has groups on both sides.
    nonabelian = sum(not g.is_abelian() for _, g in groups)
    unsolvable = sum(not is_solvable(g) for _, g in groups)
    assert 0 < unsolvable < nonabelian < len(groups)


def _prime_factors(n):
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


def test_composition_factors_and_sylow_normality_match_sympy():
    """A chief factor of order p^k of a solvable group gives k composition
    factors of order p. sympy's composition series raises on a
    nonsolvable group, so those are left out of that comparison."""
    groups = [(name, g) for name, g in builtin_corpus() if g.order <= MAX_ORDER]
    mismatches, solvable, unnormal = [], 0, 0
    for name, g in groups:
        sg = _sympy_group(g)
        primes = sorted(set(_prime_factors(g.order)))
        mine = {p: sylow_normal(g, p) for p in primes}
        theirs = {p: sg.sylow_subgroup(p).is_normal(sg) for p in primes}
        if mine != theirs:
            mismatches.append((name, "sylow", mine, theirs))
        unnormal += not all(mine.values())
        if not is_solvable(g):
            continue
        solvable += 1
        mine = sorted(q for f in chief_series(g).factors for q in _prime_factors(f))
        series = [h.order() for h in sg.composition_series()]
        theirs = sorted(a // b for a, b in zip(series, series[1:]))
        if mine != theirs:
            mismatches.append((name, "composition", mine, theirs))
    assert mismatches == []
    assert (len(groups), solvable) == (88, 85)
    # Some Sylow subgroups are not normal, so both answers are compared.
    assert 0 < unnormal < len(groups)


def _prime_powers(n):
    """{p: |n|_p} for each prime p dividing n."""
    out = {}
    for p in _prime_factors(n):
        out[p] = out.get(p, 1) * p
    return out


def test_abelian_invariants_match_sympy():
    """sympy lists the prime-power (primary) invariants; permlat the
    invariant factors, each of which splits into its prime powers."""
    groups = [
        (name, g) for name, g in builtin_corpus() if g.order <= MAX_ORDER and g.is_abelian()
    ]
    assert len(groups) == 52
    mismatches = []
    for name, g in groups:
        mine = sorted(q for d in abelian_invariants(g) for q in _prime_powers(d).values())
        theirs = sorted(_sympy_group(g).abelian_invariants())
        if mine != theirs:
            mismatches.append((name, mine, theirs))
    assert mismatches == []


def test_normal_closures_and_minimal_normals_match_sympy():
    """The normal closure of each element class representative x != 1 has
    the order sympy gives it. Every minimal normal subgroup is the normal
    closure of each of its elements but 1, so the minimal ones among
    sympy's closures, as element sets, are the minimal normal subgroups."""
    sympy_random.seed(0)
    groups = [(name, g) for name, g in builtin_corpus() if g.order <= MAX_ORDER]
    mismatches, closures, minimal = [], 0, 0
    for name, g in groups:
        sg = _sympy_group(g)
        index = {tuple(x - 1 for x in p.images): i for i, p in enumerate(g.elements)}
        t, gens = g.table(), g.generator_indices()
        theirs = set()
        for cls in g.conjugacy_classes()[0][1:]:
            x = cls[0]
            bits, _ = _normal_closure_bits(g, gens, _close_bits(t, 1, (), (x,)), (x,))
            closure = sg.normal_closure(
                sympy_perm.Permutation([v - 1 for v in g.elements[x].images])
            )
            if bits.bit_count() != closure.order():
                mismatches.append((name, "closure", x, bits.bit_count(), closure.order()))
            theirs.add(frozenset(index[tuple(e.array_form)] for e in closure.elements))
            closures += 1
        theirs = {n for n in theirs if not any(m < n for m in theirs)}
        mine = {frozenset(_iter_bits(m.members)) for m in minimal_normal_subgroups(g)}
        if mine != theirs:
            mismatches.append((name, "minimal normal", mine, theirs))
        minimal += len(mine)
    assert mismatches == []
    assert (len(groups), closures, minimal) == (88, 1017, 213)


def _conjugacy_class_size(gens, elems):
    """Size of the conjugacy class of the subgroup with array forms
    ``elems``, by closing it under conjugation by the array forms
    ``gens``: x^g maps g(i) to g(x(i))."""
    start = frozenset(elems)
    seen, stack = {start}, [start]
    while stack:
        sub = stack.pop()
        for g in gens:
            conj = []
            for x in sub:
                c = [0] * len(g)
                for i, xi in enumerate(x):
                    c[g[i]] = g[xi]
                conj.append(tuple(c))
            conj = frozenset(conj)
            if conj not in seen:
                seen.add(conj)
                stack.append(conj)
    return len(seen)


def test_sylow_counts_match_sympy():
    """n_p, the number of Sylow p-subgroups, is the number of lattice
    entries of order |G|_p; sympy's side is the class of its Sylow
    subgroup under conjugation by the generators."""
    sympy_random.seed(0)
    groups = [(name, g) for name, g in builtin_corpus() if g.order <= MAX_ORDER]
    mismatches, primes, unnormal = [], 0, 0
    for name, g in groups:
        lat = enumerate_subgroups(g)
        sg = _sympy_group(g)
        gens = [tuple(p.array_form) for p in sg.generators]
        for p, sylow_order in _prime_powers(g.order).items():
            mine = len(lat.of_order(sylow_order))
            sylow = sg.sylow_subgroup(p)
            theirs = _conjugacy_class_size(gens, (tuple(e.array_form) for e in sylow.elements))
            if mine != theirs:
                mismatches.append((name, p, mine, theirs))
            primes += 1
            unnormal += mine > 1
    assert mismatches == []
    # Not every count is 1: some Sylow subgroups are not normal.
    assert (len(groups), primes, unnormal) == (88, 150, 36)


def _lower_central_orders(g):
    """|G| = |γ_1| >= |γ_2| >= ... down to the stable term, where
    γ_{i+1} = [γ_i, G] is the normal closure of the commutators of γ_i's
    generators with G's generators."""
    t, inv, gens = g.table(), g.inverse_table(), g.generator_indices()
    bits, cur = (1 << g.order) - 1, gens
    orders = [g.order]
    while True:
        comms = tuple({t[t[t[inv[x]][inv[y]]][x]][y] for x in cur for y in gens})
        nbits, cur = _normal_closure_bits(g, gens, _close_bits(t, 1, (), comms), comms)
        if nbits == bits:
            return orders
        bits = nbits
        orders.append(bits.bit_count())


def test_lower_central_series_matches_sympy():
    sympy_random.seed(0)
    groups = [(name, g) for name, g in builtin_corpus() if g.order <= MAX_ORDER]
    mismatches, nilpotent = [], 0
    for name, g in groups:
        mine = _lower_central_orders(g)
        theirs = [h.order() for h in _sympy_group(g).lower_central_series()]
        if mine != theirs:
            mismatches.append((name, mine, theirs))
        nilpotent += mine[-1] == 1
    assert mismatches == []
    # The series reaches 1 exactly on the nilpotent groups.
    assert nilpotent == sum(is_nilpotent(g) for _, g in groups)
    assert 0 < nilpotent < len(groups)
