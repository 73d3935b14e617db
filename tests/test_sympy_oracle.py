"""sympy's PermutationGroup as an oracle that shares no code with permlat
or with tests/oracles.py: on every builtin group of order <= 400, the
basic invariants agree. B648 is left out, as its conjugacy classes would
need its Cayley table, which the corpus never builds."""

import pytest

sympy_perm = pytest.importorskip("sympy.combinatorics")

from permlat.corpus import builtin_corpus
from permlat.structure import center, derived_series, is_nilpotent, is_solvable

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
