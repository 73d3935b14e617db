"""Verdicts do not depend on how a group is labelled or represented.

Isomorphic inputs must give the same outcomes. Per (statement, group),
the registry's multiset of (hypothesis, conclusion, consistent) is
compared between the builtin corpus and two other presentations of it:
every group relabelled by a random point permutation, with one more
random element among its shuffled generators, and the right-regular
representation of every builtin group of order <= 60. Instance labels
and witness text may differ.

The registry runs every entry, q13 included, with every normal subgroup
paired as E: the default ``max_normal_e`` cuts the E list by (-order,
bitset), and bitsets depend on the labelling.
"""

from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from permlat.corpus import builtin_corpus
from permlat.groups import CayleyTable, close_generators, group_from_cayley
from permlat.perms import Perm
from permlat.reports import run_verification
from permlat.statements import STATEMENTS

EVERY_E = 1000
REGULAR_MAX_ORDER = 60


def _outcomes(corpus) -> dict:
    """{(statement, group): Counter of (hypothesis, conclusion, consistent)}."""
    rep = run_verification(list(STATEMENTS), corpus, "x", max_normal_e=EVERY_E)
    assert not rep.truncations
    out: dict = {}
    for v in rep.verdicts:
        key = (v.statement_id, v.group_id)
        out.setdefault(key, Counter())[
            (v.hypothesis_satisfied, v.conclusion_holds, v.consistent)
        ] += 1
    return out


@pytest.fixture(scope="module")
def reference() -> dict:
    return _outcomes(builtin_corpus())


def _relabelled(name, group, rng):
    """``group`` conjugated by a random point permutation s, generated by
    its generators plus one random element, in a shuffled order."""
    points = list(range(1, group.degree + 1))
    rng.shuffle(points)
    s = Perm(points)
    gens = [*group.generators, group.elements[rng.randrange(group.order)]]
    gens = [~s * g * s for g in gens]
    rng.shuffle(gens)
    return close_generators(group.degree, gens, name=name)


def _mismatches(got: dict, want: dict) -> list:
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


# No shrinking: a smaller Random says nothing more, and the failure
# message already names each (statement, group) that differs.
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=3,
    phases=(Phase.generate,),
)
@given(st.randoms(use_true_random=False))
def test_verdicts_do_not_depend_on_point_labels(reference, rng):
    corpus = [(name, _relabelled(name, g, rng)) for name, g in builtin_corpus()]
    assert [g.order for _, g in corpus] == [g.order for _, g in builtin_corpus()]
    assert _mismatches(_outcomes(corpus), reference) == []


def test_verdicts_match_on_right_regular_representations(reference):
    corpus = [
        (name, group_from_cayley(CayleyTable(g.table()), name=name))
        for name, g in builtin_corpus()
        if g.order <= REGULAR_MAX_ORDER
    ]
    assert len(corpus) == 85
    names = {name for name, _ in corpus}
    want = {key: c for key, c in reference.items() if key[1] in names}
    assert _mismatches(_outcomes(corpus), want) == []
    # The representation changes the degree of most groups.
    degrees = {name: g.degree for name, g in builtin_corpus()}
    assert sum(g.degree != degrees[name] for name, g in corpus) == 58
