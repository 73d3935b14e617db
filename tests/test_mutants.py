"""Mutant table: each mutant rebinds one name in ``statements`` to a false
variant of an embedding or structure predicate, and the whole registry
runs over the builtin corpus at the default caps. A mutant that turns a
hypothesis on where it should be off, or a conclusion off where it should
be on, must give at least one inconsistent verdict; a check the corpus
cannot fail shows nothing. Mutants that cannot give an inconsistency on
this corpus must at least change the registry's golden digest."""

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
    "has_supersolvable_supplement": (lambda lat, h: (True, lat.top()), 55),
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
    "is_c_normal": (
        lambda lat, h: embedding.is_weakly_s_supplemented(lat, h)[0],
        "3b11ebdf",
    ),
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
