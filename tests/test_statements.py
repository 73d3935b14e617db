"""Statement checkers on hand-picked control groups.

The positive and negative fixtures here pin down what each hypothesis
means on concrete groups; the whole-corpus sweeps live in
test_acceptance.py.
"""

import pytest

from permlat.corpus import builtin_corpus
from permlat.errors import NotNormalError, PermlatError
from permlat.groups import close_generators, direct_product
from permlat.perms import parse_cycle_string
from permlat.statements import (
    STATEMENT_IDS,
    STATEMENTS,
    GroupAnalysis,
    build_example42,
    check_thmB,
    check_thm12,
    scan_question13,
    thmB_hypothesis,
    verify_statement,
)


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
        verify_statement("L9.9", ga)
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
            for v in verify_statement(sid, ga):
                assert v.consistent, (name, sid, v.instance, v.witnesses)


def test_l2_6_simple_group_witnesses():
    ga = analysis("A5")
    verdicts = verify_statement("L2.6", ga)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.hypothesis_satisfied and v.conclusion_holds
    assert any("index 5" in w for w in v.witnesses)
    ga7 = analysis("PSL(2,7)")
    (v7,) = verify_statement("L2.6", ga7)
    assert v7.consistent
    assert any("index 7" in w for w in v7.witnesses)
    assert any("index 8" in w for w in v7.witnesses)
    # non-simple groups produce no verdicts
    assert verify_statement("L2.6", analysis("S4")) == []


def test_l2_8_minimal_non_p_nilpotent_sites():
    hits = []
    for name in ("S3", "A4", "D10", "S4", "Q8", "C12"):
        ga = analysis(name)
        for v in verify_statement("L2.8", ga):
            if v.hypothesis_satisfied:
                hits.append((name, v.instance))
                assert v.conclusion_holds, (name, v.witnesses)
    assert ("S3", "p=3") in hits
    assert ("A4", "p=2") in hits
    assert ("D10", "p=5") in hits
    assert not any(name == "S4" for name, _ in hits)


def test_remark1_instances():
    ga = analysis("Q8")
    verdicts = verify_statement("remark1", ga)
    assert verdicts and all(v.consistent for v in verdicts)
    assert all(v.statement_id == "remark1" for v in verdicts)
    # C6 has no Sylow with iota >= 2, so nothing to check
    assert verify_statement("remark1", analysis("C6")) == []


def test_group_analysis_helpers():
    ga = analysis("S4")
    normals, truncated = ga.normal_e()
    assert not truncated
    orders = [n.order for n in normals]
    assert orders == sorted(orders, reverse=True)
    assert orders[0] == 24
    assert ga.label(ga.lat.top()).endswith("(order 24)")
    qa, proj = ga.quotient_by(normals[-1])
    assert qa.group.order == 24 // normals[-1].order


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
