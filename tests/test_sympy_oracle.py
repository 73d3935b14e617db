"""sympy's PermutationGroup as an oracle that shares no code with permlat
or with tests/oracles.py: on every builtin group of order <= 400, the
basic invariants agree, as do the composition factors of the solvable ones,
the normality of each Sylow subgroup, the abelian invariants, the normal
closure of each element class and the minimal normal subgroups. B648 is
left out, as its conjugacy classes would need its Cayley table, which the
corpus never builds."""

import pytest

sympy_perm = pytest.importorskip("sympy.combinatorics")
sympy_random = pytest.importorskip("sympy.core.random")

from permlat.corpus import builtin_corpus
from permlat.groups import _close_bits, _iter_bits
from permlat.lattice import _normal_closure_bits
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
    """The prime-power factors of n, one per prime."""
    out = {}
    for p in _prime_factors(n):
        out[p] = out.get(p, 1) * p
    return list(out.values())


def test_abelian_invariants_match_sympy():
    """sympy lists the prime-power (primary) invariants; permlat the
    invariant factors, each of which splits into its prime powers."""
    groups = [
        (name, g) for name, g in builtin_corpus() if g.order <= MAX_ORDER and g.is_abelian()
    ]
    assert len(groups) == 52
    mismatches = []
    for name, g in groups:
        mine = sorted(q for d in abelian_invariants(g) for q in _prime_powers(d))
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
