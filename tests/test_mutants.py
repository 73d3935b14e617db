"""Mutant table: each mutant rebinds one name in ``statements`` to a false
variant of an embedding or structure predicate, and the whole registry
runs over the builtin corpus at the default caps. A mutant that turns a
hypothesis on where it should be off, or a conclusion off where it should
be on, must give at least one inconsistent verdict; a check the corpus
cannot fail shows nothing. Mutants that cannot give an inconsistency on
this corpus must at least change the registry's golden digest, and the
``is_c_normal := is_weakly_s_supplemented`` mutant is also run row by
row."""

import hashlib

import pytest

from permlat import embedding, statements, structure
from permlat.corpus import builtin_corpus
from permlat.reports import run_verification
from permlat.statements import STATEMENT_IDS

from test_reports import REGISTRY_DIGEST


def _wss_as_wsp(lat, h, section=None):
    # Weak s-permutability asks more (T subnormal); sections keep wss.
    if section is None:
        return embedding.is_weakly_s_permutable(lat, h)
    return embedding.is_weakly_s_supplemented(lat, h, section)


# name in statements -> false variant, inconsistent verdicts at the
# default caps on the builtin corpus.
KILLED = {
    "is_weakly_s_supplemented": (_wss_as_wsp, 4),
    "is_s_permutable": (lambda lat, h, section=None: True, 26),
    # Read by C4.5, C4.6, C4.8 and C4.9.
    "is_c_normal": (lambda lat, h: True, 20),
    "has_supersolvable_supplement": (lambda lat, h: lat.top(), 55),
}

# Mutants the builtin corpus cannot kill, with the digest each gives.
SURVIVING = {
    # A conclusion weakened to "solvable" never gives an inconsistency.
    "is_supersolvable": (
        structure.is_solvable,
        "85e18813",
    ),
    # T need not be subnormal; no builtin group tells the two apart
    # where a statement reads the answer.
    "is_weakly_s_permutable": (
        embedding.is_weakly_s_supplemented,
        "8caea1a1",
    ),
    # A c-normal subgroup is weakly s-supplemented; the mutant drops the
    # difference.
    "is_c_normal": (embedding.is_weakly_s_supplemented, "3b11ebdf"),
}

# The rows that read is_c_normal, with is_weakly_s_supplemented in its
# place: (kind, digest prefix of the row's report, or None where it stays
# byte-identical). With wss in place of c-normality the hypotheses of
# C4.5, C4.6 and C4.8 become instances of Theorem B's clause at E = G
# (|D| = p for C4.5, D maximal in P for C4.6 and C4.8), so only a failure
# of Theorem B itself could kill them. C4.9 asks only for the cyclic
# subgroups of order 4 of the U-residual, which Theorem B's companion
# order does not cover.
C_NORMAL_ROWS = {
    "C4.5": ("unkillable", "8d5f535f"),
    "C4.6": ("unkillable", "e10b4b64"),
    "C4.8": ("unkillable", None),
    "C4.9": ("search target", None),
}


def _registry():
    return run_verification(list(STATEMENT_IDS), builtin_corpus(), "builtin corpus")


@pytest.mark.parametrize("name", sorted(KILLED))
def test_mutant_is_killed(monkeypatch, name):
    mutant, inconsistent = KILLED[name]
    monkeypatch.setattr(statements, name, mutant)
    got = len(_registry().inconsistencies())
    assert got >= 1
    assert got == inconsistent


@pytest.mark.parametrize("name", sorted(SURVIVING))
def test_surviving_mutant_changes_the_digest(monkeypatch, name):
    mutant, prefix = SURVIVING[name]
    monkeypatch.setattr(statements, name, mutant)
    rep = _registry()
    assert not rep.inconsistencies()
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest != REGISTRY_DIGEST
    assert digest.startswith(prefix)


def _row(statement_id):
    rep = run_verification([statement_id], builtin_corpus(), "builtin corpus")
    return rep, hashlib.sha256(rep.to_json().encode()).hexdigest()


def _satisfied(rep) -> int:
    return sum(v.hypothesis_satisfied for v in rep.verdicts)


@pytest.mark.parametrize("statement_id", sorted(C_NORMAL_ROWS))
def test_c_normal_as_wss_by_row(monkeypatch, statement_id):
    """No row gives an inconsistency. C4.5 and C4.6 satisfy one more
    hypothesis each; C4.8 and C4.9 come out byte-identical, so the
    builtin corpus cannot even see the mutant there."""
    _kind, prefix = C_NORMAL_ROWS[statement_id]
    plain, plain_digest = _row(statement_id)
    monkeypatch.setattr(statements, "is_c_normal", embedding.is_weakly_s_supplemented)
    mutant, digest = _row(statement_id)
    assert not mutant.inconsistencies()
    if prefix is None:
        assert digest == plain_digest
    else:
        assert digest.startswith(prefix)
        assert _satisfied(mutant) == _satisfied(plain) + 1
