"""Statement checkers on hand-picked control groups.

The positive and negative fixtures here pin down what each hypothesis
means on concrete groups; the whole-corpus sweeps live in
test_acceptance.py.
"""

import hashlib
import sys

import pytest

from permlat.corpus import builtin_corpus
from permlat.errors import NotNormalError, PermlatError
from permlat.groups import Subgroup, _factorize, close_generators, direct_product
from permlat.lattice import enumerate_subgroups
from permlat.perms import parse_cycle_string
from permlat.statements import (
    STATEMENT_IDS,
    STATEMENTS,
    GroupAnalysis,
    _frattini_bits,
    _is_nilpotent_entry,
    _is_solvable_entry,
    build_example42,
    check_thmB,
    check_thm12,
    scan_question13,
    statement_spec,
    thmB_hypothesis,
)
from permlat.structure import _derived_bits, is_nilpotent, is_solvable

from oracles import agl23, commutator_closure, l2_1_all_entries, quotient_answers


def gens(degree, *texts):
    return [parse_cycle_string(t, degree) for t in texts]


def analysis(name):
    for n, g in builtin_corpus():
        if n == name:
            return GroupAnalysis(g, n)
    raise AssertionError(f"no builtin group named {name}")


def test_registry_shape():
    assert len(STATEMENT_IDS) == 26
    assert set(STATEMENTS) == set(STATEMENT_IDS) | {"q13"}
    assert STATEMENTS["q13"].kind == "scan"
    assert all(STATEMENTS[sid].kind == "implication" for sid in STATEMENT_IDS)
    for sid in ("thmB", "thm12", "L2.1", "L3.5", "C4.12", "remark1"):
        assert sid in STATEMENTS
    for spec in STATEMENTS.values():
        assert spec.default_max_order >= 48


def test_verify_statement_unknown_id():
    ga = analysis("S3")
    with pytest.raises(PermlatError) as err:
        statement_spec("L9.9").checker(ga)
    assert "known" in str(err.value)


def test_thmB_hypothesis_requires_normal_e():
    ga = analysis("S4")
    lat = ga.lat
    h = ga.group.subgroup_generated_by(gens(4, "(1 2)"))
    with pytest.raises(NotNormalError):
        thmB_hypothesis(ga, lat.entry(h.members))


def test_thmB_s4_negative_control():
    ga = analysis("S4")
    rep = thmB_hypothesis(ga, ga.lat.top())
    assert not rep.hypothesis
    assert not rep.hypothesis_with_condition
    (sylow2,) = [pr for pr in rep.per_prime if pr.p == 2]
    assert sylow2.sylow_order == 8
    assert not sylow2.sylow_cyclic
    assert not sylow2.satisfied
    d_orders = {e.d_order: e for e in sylow2.d_orders}
    assert set(d_orders) == {2, 4}
    assert not d_orders[2].clause_holds
    assert not d_orders[4].clause_holds
    assert d_orders[4].failing_h is not None
    verdict = check_thmB(ga, ga.lat.top())
    assert not verdict.hypothesis_satisfied
    assert verdict.conclusion_holds is False
    assert verdict.consistent


def test_thmB_s4_with_e_a4():
    ga = analysis("S4")
    a4 = ga.group.subgroup_generated_by(gens(4, "(1 2 3)", "(2 3 4)"))
    verdict = check_thmB(ga, ga.lat.entry(a4.members))
    assert not verdict.hypothesis_satisfied
    assert verdict.consistent


def test_thmB_d8xc3_positive_control():
    ga = analysis("D8xC3")
    rep = thmB_hypothesis(ga, ga.lat.top())
    assert rep.hypothesis
    assert rep.hypothesis_with_condition
    (sylow2,) = [pr for pr in rep.per_prime if pr.p == 2]
    two = [e for e in sylow2.d_orders if e.d_order == 2]
    assert two and two[0].clause_holds and two[0].cond_ii
    verdict = check_thmB(ga, ga.lat.top())
    assert verdict.hypothesis_satisfied
    assert verdict.conclusion_holds
    assert verdict.consistent


def test_thm12_controls():
    ga = analysis("D8xC3")
    verdict = check_thm12(ga, ga.lat.top())
    assert verdict.statement_id == "thm12"
    assert verdict.hypothesis_satisfied
    assert verdict.consistent
    ga4 = analysis("S4")
    verdict = check_thm12(ga4, ga4.lat.top())
    assert not verdict.hypothesis_satisfied
    assert verdict.consistent


def test_cyclic_sylows_vacuous():
    ga = analysis("C15")
    rep = thmB_hypothesis(ga, ga.lat.top())
    assert rep.hypothesis
    assert all(pr.sylow_cyclic for pr in rep.per_prime)
    assert all(not pr.d_orders for pr in rep.per_prime)


def test_question13_scan_clean_on_controls():
    for name in ("S4", "S3", "A4", "D8xC3", "Q8", "A5"):
        ga = analysis(name)
        for v in scan_question13(ga):
            assert v.consistent
            if v.hypothesis_satisfied:
                assert v.conclusion_holds is not None


def test_verdict_as_dict_shape():
    ga = analysis("S3")
    verdict = check_thmB(ga, ga.lat.top())
    d = verdict.as_dict()
    assert list(d) == [
        "statement",
        "group",
        "instance",
        "hypothesis_satisfied",
        "conclusion_holds",
        "consistent",
        "witnesses",
    ]
    assert d["statement"] == "thmB"
    assert d["group"] == "S3"


def test_all_checkers_consistent_on_spot_groups():
    for name in ("S3", "S4", "A4", "Q8", "D12", "C3:C4", "EA27"):
        ga = analysis(name)
        for sid in STATEMENT_IDS:
            if ga.group.order > STATEMENTS[sid].default_max_order:
                continue
            for v in statement_spec(sid).checker(ga):
                assert v.consistent, (name, sid, v.instance, v.witnesses)


def test_l2_6_simple_group_witnesses():
    ga = analysis("A5")
    verdicts = statement_spec("L2.6").checker(ga)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.hypothesis_satisfied and v.conclusion_holds
    assert any("index 5" in w for w in v.witnesses)
    ga7 = analysis("PSL(2,7)")
    (v7,) = statement_spec("L2.6").checker(ga7)
    assert v7.consistent
    assert any("index 7" in w for w in v7.witnesses)
    assert any("index 8" in w for w in v7.witnesses)
    # non-simple groups produce no verdicts
    assert statement_spec("L2.6").checker(analysis("S4")) == []


def test_l2_8_minimal_non_p_nilpotent_sites():
    hits = []
    for name in ("S3", "A4", "D10", "S4", "Q8", "C12"):
        ga = analysis(name)
        for v in statement_spec("L2.8").checker(ga):
            if v.hypothesis_satisfied:
                hits.append((name, v.instance))
                assert v.conclusion_holds, (name, v.witnesses)
    assert ("S3", "p=3") in hits
    assert ("A4", "p=2") in hits
    assert ("D10", "p=5") in hits
    assert not any(name == "S4" for name, _ in hits)


def test_remark1_instances():
    ga = analysis("Q8")
    verdicts = statement_spec("remark1").checker(ga)
    assert verdicts and all(v.consistent for v in verdicts)
    assert all(v.statement_id == "remark1" for v in verdicts)
    # C6 has no Sylow with iota >= 2, so nothing to check
    assert statement_spec("remark1").checker(analysis("C6")) == []


def test_group_analysis_helpers():
    ga = analysis("S4")
    normals, truncated = ga.normal_e()
    assert not truncated
    orders = [n.order for n in normals]
    assert orders == sorted(orders, reverse=True)
    assert orders[0] == 24
    assert ga.label(ga.lat.top()).endswith("(order 24)")
    v4 = next(n for n in normals if n.order == 4)
    assert ga.supersolvable_mod(v4)
    assert not ga.supersolvable_mod(normals[-1])


def test_normal_e_cap():
    g = direct_product(
        close_generators(3, gens(3, "(1 2)", "(1 2 3)")),
        close_generators(3, gens(3, "(1 2)", "(1 2 3)")),
    )
    ga = GroupAnalysis(g, "S3xS3", max_normal_e=3)
    normals, truncated = ga.normal_e()
    assert truncated
    assert len(normals) == 3
    assert normals[0].order == 36


def test_example42_facts():
    ex = build_example42()
    facts = dict(ex.facts)
    assert facts["wreath product order"] == 648
    assert facts["2-residual order"] == 324
    assert facts["O_3 order"] == 27
    assert facts["quotient by O_3"] == "A4"
    assert facts["Sylow 3-subgroup order"] == 81
    assert facts["3-length of G"] == 2
    assert facts["O_3 complement order"] == 12
    assert ex.group.order == 324
    assert len(ex.lines()) == len(ex.facts)


def test_l2_1_builds_only_the_parent_lattice(monkeypatch):
    """L2.1 reads its quotient and subgroup cases off G's lattice: one
    enumeration, no quotient group and no subgroup materialized."""
    from permlat import reports, statements
    from permlat.groups import Subgroup

    calls = {"enumerate": 0}
    real = statements.enumerate_subgroups

    def counting(*args, **kwargs):
        calls["enumerate"] += 1
        return real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("rebuilt a quotient or subgroup")

    monkeypatch.setattr(statements, "enumerate_subgroups", counting)
    monkeypatch.setattr(Subgroup, "as_group", refuse)
    corpus = [(n, g) for n, g in builtin_corpus() if n == "S4"]
    rep = reports.run_verification(["L2.1"], corpus, "S4 only")
    assert calls["enumerate"] == 1
    assert [v.instance for v in rep.verdicts] == ["(i)", "(ii)", "(iii)"]
    assert all(v.consistent and v.hypothesis_satisfied for v in rep.verdicts)


def _verdict_key(v):
    return (v.instance, v.hypothesis_satisfied, v.conclusion_holds, v.consistent)


def test_l2_1_class_representatives_match_all_entries():
    """L2.1 over one K (and E) per conjugacy class gives the verdicts of
    the loops over every entry, on every builtin group of order <= 100."""
    groups = 0
    for name, g in builtin_corpus():
        if g.order > 100:
            continue
        groups += 1
        ga = GroupAnalysis(g, name)
        got = statement_spec("L2.1").checker(ga)
        want = l2_1_all_entries(ga)
        assert [_verdict_key(v) for v in got] == [_verdict_key(v) for v in want], name
    assert groups == 85


def test_nilpotent_and_solvable_entries_match_subgroup_groups():
    """Nilpotency from Sylow entry counts and solvability from the derived
    series on G's table, against each normal subgroup built as a group of
    its own, over the builtin groups of order <= 200."""
    normals = not_nilpotent = not_solvable = 0
    for name, g in builtin_corpus():
        if g.order > 200:
            continue
        lat = enumerate_subgroups(g)
        for n in lat.normal_subgroups():
            own = n.as_group()
            nilpotent = _is_nilpotent_entry(lat, n)
            solvable = _is_solvable_entry(g, n)
            assert nilpotent == is_nilpotent(own), (name, n)
            assert solvable == is_solvable(own), (name, n)
            normals += 1
            not_nilpotent += not nilpotent
            not_solvable += not solvable
    assert normals > 500
    assert not_nilpotent and not_solvable


def test_l2_5_and_c4_12_build_no_subgroup_group(monkeypatch):
    """L2.5 and C4.12 decide nilpotency and solvability of normal entries
    on G's lattice and table. L2.4 still builds subgroup groups, which
    shows that the counter sees the calls."""
    real = Subgroup.as_group
    callers = {}

    def counting(self):
        caller = sys._getframe(1).f_globals["__name__"]
        callers[sid, caller] = callers.get((sid, caller), 0) + 1
        return real(self)

    monkeypatch.setattr(Subgroup, "as_group", counting)
    for name, g in builtin_corpus():
        if g.order > 60:
            continue
        ga = GroupAnalysis(g, name, max_normal_e=1000)
        for sid in ("L2.5", "C4.12", "L2.4"):
            statement_spec(sid).checker(ga)
    assert callers.get(("L2.4", "permlat.statements"), 0) > 0
    assert callers.get(("L2.5", "permlat.statements"), 0) == 0
    assert callers.get(("C4.12", "permlat.statements"), 0) == 0


def _check_quotient_answers(ga):
    """(pairs, False answers, proper U-hypercenters) over every normal N
    of the analyzed group, each lattice answer checked against the
    rebuilt quotient."""
    pairs = falses = proper = 0
    full = ga.lat.top().members
    for n in ga.lat.normal_subgroups():
        supersolvable, zu = quotient_answers(ga.group, n)
        assert ga.supersolvable_mod(n) == supersolvable, (ga.name, n.members)
        assert ga.u_hypercenter_mod(n) == zu, (ga.name, n.members)
        pairs += 1
        falses += not supersolvable
        proper += zu != full
    return pairs, falses, proper


def test_quotient_answers_match_rebuilt_quotients():
    """supersolvable_mod and u_hypercenter_mod agree with G/N built as a
    group, on every normal N of every builtin group of order <= 400. The
    False counts keep an always-True or always-G stub from passing."""
    pairs = falses = proper = 0
    for name, g in builtin_corpus():
        if g.order <= 400:
            counts = _check_quotient_answers(GroupAnalysis(g, name))
            pairs, falses, proper = (a + b for a, b in zip((pairs, falses, proper), counts))
    assert pairs == 687
    assert falses >= 9
    assert proper >= 9


def test_quotient_answers_on_agl23_subgroups():
    """The same oracle over one subgroup per conjugacy class of AGL(2,3),
    which has many solvable groups that are not supersolvable."""
    g = agl23()
    assert g.order == 432
    lat = GroupAnalysis(g, lattice_cap=500).lat
    pairs = falses = proper = 0
    for cls in lat.conjugacy_classes:
        h = lat.subgroups[cls[0]].as_group()
        counts = _check_quotient_answers(GroupAnalysis(h, lattice_cap=500))
        pairs, falses, proper = (a + b for a, b in zip((pairs, falses, proper), counts))
    assert len(lat.conjugacy_classes) == 46
    assert pairs == 246
    assert falses >= 15
    assert proper >= 15


def test_supersolvable_mod_rejects_a_non_normal_subgroup():
    ga = analysis("S3")
    c2 = ga.lat.of_order(2)[0]
    with pytest.raises(NotNormalError):
        ga.supersolvable_mod(ga.lat.subgroups[c2])


# sha256 of the JSON report of every statement and the q13 scan over the
# builtin groups of order <= 24 with every normal E, as the code that
# built each quotient group gave it.
SMALL_REGISTRY_DIGEST = "c9c3a2440810ae24cec939d8d9ca02de086893b09e5eaebb191696d843afee05"


def test_registry_builds_no_quotient_group():
    import permlat
    from permlat import groups, reports, statements, structure

    for module in (permlat, groups, statements, structure):
        assert not hasattr(module, "quotient"), module.__name__
    corpus = [(n, g) for n, g in builtin_corpus() if g.order <= 24]
    rep = reports.run_verification(
        list(STATEMENT_IDS) + ["q13"], corpus, "order <= 24", max_normal_e=1000
    )
    assert len(rep.verdicts) == 4940
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == SMALL_REGISTRY_DIGEST


def test_lattice_phi_and_derived_match_subgroup_lattices():
    """Phi(P) as the meet of P's index-p entries of G's lattice, and P' on
    G's table, against P built as a group of its own: its lattice's
    Frattini subgroup and the commutator oracle. Over every p-subgroup
    entry of the builtin groups of order at most 200."""
    entries = phi_not_derived = nonabelian = 0
    for name, g in builtin_corpus():
        if g.order > 200:
            continue
        lat = enumerate_subgroups(g)
        for sub in lat.subgroups:
            pf = _factorize(sub.order)
            if len(pf) != 1:
                continue
            (p,) = pf
            entries += 1
            idxs = sub.element_indices()
            own = sub.as_group()
            own_phi = enumerate_subgroups(own).frattini().element_indices()
            phi = _frattini_bits(lat, sub, p)
            assert phi == sum(1 << idxs[j] for j in own_phi), (name, sub)
            derived = _derived_bits(g, sub.generator_indices)[0]
            assert derived == sum(1 << idxs[j] for j in commutator_closure(own)), (name, sub)
            phi_not_derived += phi != derived
            nonabelian += derived != 1
    assert entries == 898
    assert phi_not_derived and nonabelian


def test_p_subgroup_checkers_build_no_subgroup_group(monkeypatch):
    """thmB, thm12, L2.2, L2.3 and L3.3 read subgroup orders, Phi(P) and P'
    off G's lattice and table: statements never calls ``as_group``."""
    real = Subgroup.as_group
    callers = []

    def counting(self):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(self)

    monkeypatch.setattr(Subgroup, "as_group", counting)
    for name, g in builtin_corpus():
        if g.order > 24:
            continue
        ga = GroupAnalysis(g, name)
        for sid in ("thmB", "thm12", "L2.2", "L2.3", "L3.3"):
            statement_spec(sid).checker(ga)
    assert callers, "other layers still build subgroup groups"
    assert callers.count("permlat.statements") == 0
