"""Statement checkers on hand-picked control groups.

The positive and negative fixtures here pin down what each hypothesis
means on concrete groups; the whole-corpus sweeps live in
test_acceptance.py.
"""

import hashlib
import json

import pytest

from permlat.cli import build_example42
from permlat.corpus import builtin_corpus, example_pair
from permlat.embedding import is_supersolvable_section
from permlat.errors import NotNormalError, PermlatError
from permlat.groups import Subgroup, _factorize, close_generators, direct_product
from permlat.lattice import enumerate_subgroups
from permlat.perms import parse_cycle_string
from permlat.reports import VerificationReport
from permlat.statements import (
    STATEMENT_IDS,
    STATEMENTS,
    GroupAnalysis,
    _frattini_bits,
    _hall_meet_bits,
    _is_p_nilpotent_entry,
    check_thmB,
    check_thm12,
    scan_question13,
    statement_spec,
    thmB_hypothesis,
)
from permlat.structure import (
    _derived_bits,
    _is_nilpotent_bits,
    derived_series,
    exponent,
    is_nilpotent,
    is_p_solvable,
    is_solvable,
    p_prime_core,
)

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


def test_shared_sylow_clause_matches_a_fresh_analysis():
    """The per-Sylow clause is memoized on the lattice per (P, mode): on
    every builtin group of order <= 200, the report for each normal E and
    mode from one shared analysis equals that of a fresh analysis. AGL(2,3)
    is the group where the two modes' reports differ."""
    cases = [(n, g) for n, g in builtin_corpus() if g.order <= 200]
    for name, g in cases + [("AGL(2,3)", agl23())]:
        shared = GroupAnalysis(g, name, lattice_cap=432)
        for e in shared.lat.normal_subgroups():
            for mode in ("supplemented", "permutable"):
                fresh = GroupAnalysis(g, name, lattice_cap=432)
                assert thmB_hypothesis(shared, e, mode) == thmB_hypothesis(
                    fresh, e, mode
                ), (name, e.order, mode)


def test_thmB_modes_differ_on_agl23():
    """The builtin corpus cannot tell weak s-supplementation from weak
    s-permutability inside the clause; AGL(2,3) at E of order 216 can.
    Every clause fails in both modes, but the first order-3 subgroup that
    fails differs, so a swapped predicate fails here."""
    ga = GroupAnalysis(agl23(), "AGL(2,3)", lattice_cap=432)
    (e,) = [n for n in ga.lat.normal_subgroups() if n.order == 216]
    reports = {mode: thmB_hypothesis(ga, e, mode) for mode in ("supplemented", "permutable")}
    assert reports["supplemented"] != reports["permutable"]
    order_3 = {}
    for mode, rep in reports.items():
        assert [(syl.p, syl.satisfied) for syl in rep.per_prime] == [(2, False), (3, False)]
        order_3[mode] = rep.per_prime[1].d_orders[0].failing_h
    assert order_3 == {
        "supplemented": "<order 3: (1 2 3)(4 5 6)(7 8 9)>",
        "permutable": "<order 3: (2 5 8)(3 9 6)>",
    }


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
    """A verdict's row in the JSON report, keys in schema order."""
    ga = analysis("S3")
    verdict = check_thmB(ga, ga.lat.top())
    rep = VerificationReport("S3", {}, verdicts=[verdict])
    (d,) = json.loads(rep.to_json())["verdicts"]
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
    normals = ga.normal_e()
    assert not ga.e_truncated
    assert ga.normal_e() is normals
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
    normals = ga.normal_e()
    assert ga.e_truncated
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


def test_example42_rejects_a_conjugate_outside_the_wreath(monkeypatch):
    from permlat import cli

    b, g = example_pair()
    c = parse_cycle_string("(1 2 4)", 9)
    assert c not in b
    moved = close_generators(9, [~c * x * c for x in g.generators], name="G324")
    assert moved.order == 324
    monkeypatch.setattr(cli, "example_pair", lambda cap: (b, moved))
    with pytest.raises(PermlatError, match="example reproduction failed"):
        build_example42()


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
            nilpotent = _is_nilpotent_bits(g, n.members)
            solvable = derived_series(g, n)[-1].order == 1
            assert nilpotent == is_nilpotent(own), (name, n)
            assert solvable == is_solvable(own), (name, n)
            normals += 1
            not_nilpotent += not nilpotent
            not_solvable += not solvable
    assert normals > 500
    assert not_nilpotent and not_solvable


def test_l2_4_hall_meet_matches_subgroup_groups():
    """L2.4's O_p'(H), the meet of H's entries of order |H|_p', against
    H built as a group of its own, for every entry H and prime p of the
    p-solvable builtin groups of order <= 200."""
    entries = nontrivial = 0
    for name, g in builtin_corpus():
        if g.order > 200:
            continue
        lat = enumerate_subgroups(g)
        for p in sorted(g.prime_factorization):
            if not is_p_solvable(g, p):
                continue
            for h in lat.subgroups:
                idxs = h.element_indices()
                core = p_prime_core(h.as_group(), p)
                want = sum(1 << idxs[j] for j in core.element_indices())
                got = _hall_meet_bits(lat, h, p)
                assert got == want, (name, p, h)
                entries += 1
                nontrivial += got != 1
    assert entries == 1811
    assert nontrivial == 859


def test_l2_8_entry_answers_match_subgroup_groups():
    """L2.8's p-nilpotency (one entry of order |T|_p' inside T) and
    exponent (lcm of G's element orders over T) against T built as a
    group of its own, for every entry T and prime p of the builtin groups
    of order <= 200. T = G is the p-nilpotency that L2.7 and L2.9
    conclude."""
    entries = not_p_nilpotent = 0
    for name, g in builtin_corpus():
        if g.order > 200:
            continue
        lat = enumerate_subgroups(g)
        for t in lat.subgroups:
            own = t.as_group()
            assert exponent(g, t) == exponent(own), (name, t)
            for p in sorted(g.prime_factorization):
                got = _is_p_nilpotent_entry(lat, t, p)
                e = own.prime_factorization.get(p, 0)
                assert got == (p_prime_core(own, p).order == own.order // p**e), (name, p, t)
                entries += 1
                not_p_nilpotent += not got
    assert entries == 2525
    assert not_p_nilpotent == 202


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


def test_supersolvable_mod_matches_huppert_on_the_section():
    """G/E is supersolvable iff its U-hypercenter is all of G/E, which is
    how ``supersolvable_mod`` decides it; Huppert's rule on the section
    (top, E) of G's lattice decides it independently. Checked for every
    normal E of every builtin group of order <= 200."""
    pairs = falses = 0
    for name, g in builtin_corpus():
        if g.order <= 200:
            ga = GroupAnalysis(g, name)
            for e in ga.lat.normal_subgroups():
                want = is_supersolvable_section(ga.lat, (ga.lat.top(), e))
                assert ga.supersolvable_mod(e) == want, (name, e.members)
                pairs += 1
                falses += not want
    assert pairs == 681
    assert falses == 6


def test_supersolvable_mod_rejects_a_non_normal_subgroup():
    ga = analysis("S3")
    c2 = ga.lat.of_order(2)[0]
    with pytest.raises(NotNormalError):
        ga.supersolvable_mod(c2)


# sha256 of the JSON report of every statement and the q13 scan over the
# builtin groups of order <= 24 with every normal E, as the code that
# built each quotient group gave it.
SMALL_REGISTRY_DIGEST = "c9c3a2440810ae24cec939d8d9ca02de086893b09e5eaebb191696d843afee05"


def test_registry_builds_no_quotient_group(monkeypatch):
    """Every statement, the q13 scan, the order-324 example and its corpus
    pair run without building a quotient or a subgroup as a group."""
    import permlat
    from permlat import groups, reports, statements, structure

    for module in (permlat, groups, statements, structure):
        assert not hasattr(module, "quotient"), module.__name__

    def refuse(self):
        raise AssertionError(f"built {self.describe()} as a group")

    monkeypatch.setattr(Subgroup, "as_group", refuse)
    corpus = [(n, g) for n, g in builtin_corpus() if g.order <= 24]
    rep = reports.run_verification(
        list(STATEMENT_IDS) + ["q13"], corpus, "order <= 24", max_normal_e=1000
    )
    assert len(rep.verdicts) == 4940
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == SMALL_REGISTRY_DIGEST
    assert build_example42().group.order == 324
    assert [g.order for g in example_pair()] == [648, 324]


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


# -- verdict-row pins ----------------------------------------------------------
#
# Full rows (statement, group, instance, hypothesis, conclusion, consistent,
# witnesses) for witness texts that no registry golden contains.


def _rows(verdicts):
    return [
        (
            v.statement_id,
            v.group_id,
            v.instance,
            v.hypothesis_satisfied,
            v.conclusion_holds,
            v.consistent,
            v.witnesses,
        )
        for v in verdicts
    ]


def _group_rows(sid, group="C1", hyp=True, concl=True, witnesses=()):
    return [(sid, group, "group", hyp, concl, True, witnesses)]


C1_ROWS = {
    "thmB": [("thmB", "C1", "E=#000(order 1)", True, True, True, ("formation U", "G/E in F: True"))],
    "thm12": [("thm12", "C1", "E=#000(order 1)", True, True, True, ("formation U", "G/E in F: True"))],
    "L2.1": [("L2.1", "C1", part, False, None, True, ()) for part in ("(i)", "(ii)", "(iii)")],
    "L2.2": [("L2.2", "C1", "all normal p-subgroups", False, None, True, ())],
    "L2.3": [("L2.3", "C1", "s-permutable p-subgroups", False, None, True, ())],
    "L2.5": [("L2.5", "C1", "nilpotent normal, Phi-avoiding", False, None, True, ())],
    **{sid: _group_rows(sid) for sid in ("C4.3", "C4.4", "C4.5", "C4.6", "C4.7", "C4.8", "C4.11")},
    "C4.9": _group_rows("C4.9", witnesses=("residual = #000(order 1)",)),
    "C4.10": [("C4.10", "C1", "E=#000(order 1)", True, True, True, ())],
    "C4.12": [("C4.12", "C1", "E=#000(order 1)", True, True, True, ())],
    "q13": [("q13", "C1", "E=#000(order 1)", True, True, True, ())],
}


def test_every_statement_on_the_trivial_group():
    ga = GroupAnalysis(close_generators(1, []), "C1")
    for sid, spec in STATEMENTS.items():
        assert _rows(spec.checker(ga)) == C1_ROWS.get(sid, []), sid


def test_c4_3_nonnormal_prime_order_witness():
    g = close_generators(7, gens(7, "(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"))
    assert g.order == 21
    rows = _rows(statement_spec("C4.3").checker(GroupAnalysis(g, "C7:C3")))
    assert rows == _group_rows(
        "C4.3", "C7:C3", False, None, ("nonnormal H = #001(order 3)",)
    )


def test_l3_3_clause_failure_witness():
    # SL(2,3) on the 8 nonzero vectors of F_3^2: a cyclic subgroup of
    # order 4 of Q8 has no supersolvable supplement and is not weakly
    # s-supplemented, so the 2|D| companion clause fails.
    g = close_generators(8, gens(8, "(1 4 7)(2 8 5)", "(1 6 2 3)(4 7 8 5)"))
    assert g.order == 24
    rows = _rows(statement_spec("L3.3").checker(GroupAnalysis(g, "SL(2,3)")))
    h = "<order 4: (1 2)(3 6)(4 8)(5 7), (1 3 2 6)(4 5 8 7)>"
    assert rows == [
        ("L3.3", "SL(2,3)", "P=#013(order 8) |D|=2", False, None, True, (f"clause fails at H = {h}",))
    ]


def _trivial_hypercenter(group):
    return group.trivial_subgroup()


def test_hypercenter_conclusion_failure_witnesses(monkeypatch):
    from permlat import statements

    monkeypatch.setattr(statements, "u_hypercenter", _trivial_hypercenter)
    escapes = ("P escapes the supersolvable hypercenter",)
    rows = _rows(statement_spec("C3.2").checker(analysis("C2xC2")))
    assert rows == [("C3.2", "C2xC2", "P=#004(order 4) |D|=2", True, False, False, escapes)]
    rows = _rows(statement_spec("L3.3").checker(analysis("C4")))
    assert rows == [("L3.3", "C4", "P=#002(order 4) |D|=2", True, False, False, escapes)]


def test_l3_1_conclusion_failure_witnesses(monkeypatch):
    from permlat import statements

    instance = ("L3.1", "C2xC2", "P=#004(order 4) |D|=2", True)
    cases = (
        (lambda ga, p: None, ("P is not a product of minimal normals of G",)),
        (lambda ga, p: [ga.lat.subgroups[1], p], ("mixed minimal normal orders [2, 4]",)),
        (
            lambda ga, p: [p],
            ("1 minimal normal factors of order 4", "iota(D)=1 not a multiple of s=2"),
        ),
    )
    for decomposition, witnesses in cases:
        monkeypatch.setattr(statements, "_direct_minimal_decomposition", decomposition)
        rows = _rows(statement_spec("L3.1").checker(analysis("C2xC2")))
        assert rows == [(*instance, False, False, witnesses)]


def test_l3_5_conclusion_failure_witness(monkeypatch):
    from permlat import statements
    from permlat.structure import PLengthResult

    monkeypatch.setattr(
        statements, "p_length", lambda g, p: PLengthResult(p, True, 2, [])
    )
    rows = _rows(statement_spec("L3.5").checker(analysis("C2xC2")))
    assert rows == [
        ("L3.5", "C2xC2", "p=2 |D|=2", True, False, False, ("p-solvable True, p-length 2",))
    ]
