"""The memo decorators: ``groups._memoized`` for ``fn(owner, *args)`` on a
group or a lattice, and ``embedding._per_section`` and
``embedding._per_subgroup`` for the lattice predicates. Each keeps its
results in the owner's ``_memo`` under the function's own name, so two
memoized functions sharing a name would read each other's answers."""

import importlib
import inspect
import pkgutil

import pytest

import permlat
from permlat import embedding, groups, structure
from permlat.corpus import builtin_group
from permlat.groups import Subgroup
from permlat.statements import GroupAnalysis, _sylow_clause


# The code of the wrapper each memo decorator returns.
WRAPPERS = {
    const
    for deco in (groups._memoized, embedding._per_section, embedding._per_subgroup)
    for const in deco.__code__.co_consts
    if inspect.iscode(const)
}


def _memoized_functions() -> dict:
    """{qualified name: function name} of every memoized function and
    method in the package: a memo wrapper with a ``__wrapped__`` body."""
    found = {}
    for info in pkgutil.iter_modules(permlat.__path__):
        mod = importlib.import_module(f"permlat.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{a}", m) for a, m in vars(obj).items()]
            for qualname, member in members:
                fn = getattr(member, "fget", member)
                if getattr(fn, "__code__", None) in WRAPPERS and hasattr(fn, "__wrapped__"):
                    found[f"{info.name}.{qualname}"] = fn.__name__
    return found


def test_memoized_names_are_unique():
    """Names are unique across the package, so also per kind of owner."""
    found = _memoized_functions()
    names = list(found.values())
    assert len(names) == len(set(names)), sorted(names)
    assert len(names) == 34
    for where in (
        "groups.Group.prime_factorization",
        "structure.fingerprint",
        "embedding._section",
        "embedding.h_sG",
        "statements._sylow_clause",
    ):
        assert where in found


def _s4():
    g = builtin_group("S4")
    ga = GroupAnalysis(g, "S4")
    lat = ga.lat
    v4 = next(e for e in lat.normal_subgroups() if e.order == 4)
    d8 = next(e for e in lat.subgroups if e.order == 8)
    syl3 = next(e for e in lat.subgroups if e.order == 3)
    # A fresh handle on D8's bits, not the lattice's own entry.
    d8_copy = Subgroup(g, d8.members)
    section = (lat.top(), v4)
    return {
        "_memoized, group": (g, lambda: structure.center(g)),
        "_memoized, group, Subgroup argument": (g, lambda: structure.derived_series(g, d8)),
        "_memoized, keyword argument": (g, lambda: structure.p_core(g, p=2)),
        "_memoized, method": (g, lambda: g.conjugacy_classes()),
        "_memoized, property": (g, lambda: g.prime_factorization),
        "_memoized, lattice": (lat, lambda: _sylow_clause(lat, d8, 2, "supplemented")),
        "_per_section": (lat, lambda: embedding.sylow_family(lat)),
        "_per_section, section": (lat, lambda: embedding.sylow_family(lat, section)),
        "_per_subgroup": (lat, lambda: embedding.h_sG(lat, syl3)),
        "_per_subgroup, section by keyword": (
            lat,
            lambda: embedding.is_weakly_s_supplemented(lat, d8_copy, section=section),
        ),
    }


@pytest.mark.parametrize("case", sorted(_s4()))
def test_second_call_is_a_memo_hit(case):
    owner, call = _s4()[case]
    first = call()
    entries = len(owner._memo)
    assert call() is first
    assert len(owner._memo) == entries



def test_keyword_and_positional_calls_agree():
    g = builtin_group("S4")
    assert structure.p_core(g, p=2).members == structure.p_core(g, 2).members
    d8 = next(e for e in GroupAnalysis(g, "S4").lat.subgroups if e.order == 8)
    assert structure.derived_series(g, top=d8) == structure.derived_series(g, d8)
