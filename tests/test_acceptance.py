"""Acceptance gate: nine criteria, one printed pass/fail line each.

Each test prints its verdict through the capture so the line is visible
in a plain pytest run, then asserts. Criteria cover the worked example,
the two theorem suites, the lemma suite, spot checks, the embedding
hierarchy, oracle equivalences, report determinism, and the pinned
positive/negative control fixtures.
"""

import json
import time
from collections import Counter

import pytest

from permlat.cli import main
from permlat.corpus import builtin_corpus
from permlat.embedding import (
    has_supersolvable_supplement,
    is_c_normal,
    is_complemented,
    is_permutable,
    is_s_permutable,
    is_weakly_s_permutable,
    is_weakly_s_supplemented,
    subnormal_in,
)
from permlat.lattice import enumerate_subgroups
from permlat.perms import parse_cycle_string
from permlat.reports import run_verification
from permlat.statements import GroupAnalysis, build_example42, thmB_hypothesis
from permlat.structure import (
    chief_series,
    fingerprint,
    is_supersolvable,
    u_hypercenter,
)

import oracles

GROUPS = dict(builtin_corpus())


@pytest.fixture
def says(capsys):
    def emit(line):
        with capsys.disabled():
            print(line)

    return emit


def test_criterion_1_example_reconstruction(says):
    t0 = time.perf_counter()
    ex = build_example42()
    facts = dict(ex.facts)
    elapsed = time.perf_counter() - t0
    checks = [
        facts["wreath product order"] == 648,
        facts["2-residual order"] == 324,
        facts["O_3 order"] == 27,
        facts["O_3 elementary abelian"] is True,
        facts["quotient by O_3"] == "A4",
        facts["Sylow 3-subgroup order"] == 81,
        facts["each complemented in G"] is True,
        facts["3-length of G"] == 2,
        elapsed <= 300,
    ]
    ok = all(checks)
    says(
        f"[criterion 1] {'PASS' if ok else 'FAIL'}: example rebuilt, "
        f"|B|=648, |G|=324, |O_3|=27 elementary abelian, G/O_3 = A4, "
        f"all maximals of the order-81 Sylow complemented, 3-length 2 "
        f"({elapsed:.1f}s)"
    )
    assert ok, facts


def run_suite(ids, max_order=None):
    t0 = time.perf_counter()
    rep = run_verification(ids, builtin_corpus(), "builtin", max_order=max_order)
    return rep, time.perf_counter() - t0


def test_criterion_2_theoremB_suite(says):
    rep, elapsed = run_suite(["thmB"], max_order=200)
    row = rep.statements[0]
    ok = row["inconsistent"] == 0 and row["verdicts"] > 0 and elapsed <= 900
    says(
        f"[criterion 2] {'PASS' if ok else 'FAIL'}: thmB on builtin "
        f"max-order 200, {row['groups_checked']} groups, "
        f"{row['verdicts']} verdicts, {row['inconsistent']} inconsistent "
        f"({elapsed:.1f}s)"
    )
    assert ok, row


def test_criterion_3_theorem12_suite(says):
    rep, elapsed = run_suite(["thm12"], max_order=200)
    row = rep.statements[0]
    ok = row["inconsistent"] == 0 and row["verdicts"] > 0 and elapsed <= 900
    says(
        f"[criterion 3] {'PASS' if ok else 'FAIL'}: thm12 on builtin "
        f"max-order 200, {row['groups_checked']} groups, "
        f"{row['verdicts']} verdicts, {row['inconsistent']} inconsistent "
        f"({elapsed:.1f}s)"
    )
    assert ok, row


LEMMA_IDS = [
    "L2.1",
    "L2.2",
    "L2.3",
    "L2.4",
    "L2.5",
    "L2.7",
    "L2.8",
    "L2.9",
    "L3.1",
    "C3.2",
    "L3.3",
    "L3.5",
]


def test_criterion_4_lemma_suite(says):
    rep, elapsed = run_suite(LEMMA_IDS)
    rows = {r["statement"]: r for r in rep.statements}
    bad = [sid for sid, r in rows.items() if r["inconsistent"] != 0]
    restricted = sorted(
        f"{sid} at <= {r['max_order']}"
        for sid, r in rows.items()
        if r["max_order"] < 200
    )
    bounds_ok = all(r["max_order"] <= 200 for r in rows.values()) and all(
        rows[sid]["max_order"] == 100
        for sid in ("L2.1", "L3.1", "C3.2", "L3.3", "L3.5")
    )
    ok = not bad and set(rows) == set(LEMMA_IDS) and bounds_ok
    says(
        f"[criterion 4] {'PASS' if ok else 'FAIL'}: 12 lemma statements, "
        f"zero inconsistencies; restrictions in report: "
        f"{', '.join(restricted)} ({elapsed:.1f}s)"
    )
    assert ok, (bad, restricted)


def _is_prime_power(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


def prime_power_index_subgroups(group):
    lat = enumerate_subgroups(group)
    found = {}
    for sub in lat.subgroups:
        if sub.order == group.order:
            continue
        idx = group.order // sub.order
        if _is_prime_power(idx):
            found.setdefault(idx, []).append(sub)
    return found


def test_criterion_5_simple_group_spot_checks(says):
    a5 = prime_power_index_subgroups(GROUPS["A5"])
    a5_ok = (
        set(a5) == {5}
        and len(a5[5]) == 5
        and all(fingerprint(s.as_group()).name == "A4" for s in a5[5])
    )
    a6_ok = prime_power_index_subgroups(GROUPS["A6"]) == {}
    psl = prime_power_index_subgroups(GROUPS["PSL(2,7)"])
    psl_ok = set(psl) == {7, 8}
    ok = a5_ok and a6_ok and psl_ok
    says(
        f"[criterion 5] {'PASS' if ok else 'FAIL'}: A5 has exactly five "
        f"index-5 subgroups, all fingerprint A4; A6 has none; PSL(2,7) "
        f"prime-power indices are exactly {sorted(psl)}"
    )
    assert ok, (sorted(a5), sorted(psl))


def test_criterion_6_embedding_hierarchy(says):
    t0 = time.perf_counter()
    groups = subgroups = 0
    violations = []
    for name, g in builtin_corpus():
        if g.order > 100:
            continue
        lat = enumerate_subgroups(g)
        groups += 1
        for i, sub in enumerate(lat.subgroups):
            subgroups += 1
            normal = lat.normal_flags[i]
            perm = is_permutable(lat, sub)
            sp = is_s_permutable(lat, sub)
            wsp = is_weakly_s_permutable(lat, sub)
            wss = is_weakly_s_supplemented(lat, sub)
            cn = is_c_normal(lat, sub)
            comp = is_complemented(lat, sub)
            for label, a, b in (
                ("normal=>permutable", normal, perm),
                ("permutable=>s-permutable", perm, sp),
                ("normal=>s-permutable", normal, sp),
                # Kegel (Math. Z. 78, 1962).
                ("s-permutable=>subnormal", sp, subnormal_in(lat, sub)),
                ("s-permutable=>wsp", sp, wsp),
                ("normal=>c-normal", normal, cn),
                ("wsp=>wss", wsp, wss),
                ("c-normal=>wss", cn, wss),
                ("complemented=>wss", comp, wss),
            ):
                if a and not b:
                    violations.append((name, sub.describe(), label))
    elapsed = time.perf_counter() - t0
    ok = not violations and groups > 0
    says(
        f"[criterion 6] {'PASS' if ok else 'FAIL'}: hierarchy held for "
        f"{subgroups} subgroups across {groups} groups of order <= 100, "
        f"{len(violations)} violations ({elapsed:.1f}s)"
    )
    assert ok, violations[:5]


def test_criterion_7_oracle_equivalences(says):
    t0 = time.perf_counter()
    enum_groups = 0
    for name, g in builtin_corpus():
        if g.order > 48:
            continue
        fast = {
            frozenset(s.element_indices())
            for s in enumerate_subgroups(g).subgroups
        }
        slow = {frozenset(s) for s in oracles.brute_subgroups(g)}
        assert fast == slow, name
        enum_groups += 1

    chief_groups = 0
    for name, g in builtin_corpus():
        if g.order > 200:
            continue
        low = Counter(chief_series(g).factors)
        high = Counter(oracles.chain_factors(oracles.tower_chief_chain(g, prefer="high")))
        assert low == high, name
        chief_groups += 1

    hyper_groups = 0
    for name, g in builtin_corpus():
        if g.order > 100:
            continue
        if g.order <= 48:
            normal_sets = None
        else:
            lat = enumerate_subgroups(g)
            normal_sets = [
                set(lat.subgroups[i].element_indices())
                for i in range(len(lat.subgroups))
                if lat.normal_flags[i]
            ]
        want = set(u_hypercenter(g).element_indices())
        got = set(oracles.chain_hypercenter(g, normal_sets))
        assert got == want, name
        hyper_groups += 1

    elapsed = time.perf_counter() - t0
    says(
        f"[criterion 7] PASS: lattice = brute closure on {enum_groups} "
        f"groups <= 48; chief factor multisets agree low/high on "
        f"{chief_groups} groups <= 200; u-hypercenter = prime-chain "
        f"oracle on {hyper_groups} groups <= 100 ({elapsed:.1f}s)"
    )


def test_criterion_8_determinism(says, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--statement", "thmB", "--max-order", "100"]
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    n = len(json.loads(a.read_text())["verdicts"])
    says(
        f"[criterion 8] {'PASS' if same else 'FAIL'}: two consecutive "
        f"verify runs emitted byte-identical JSON ({n} verdicts)"
    )
    assert same


def test_criterion_9_control_fixtures(says):
    s4 = GROUPS["S4"]
    ga = GroupAnalysis(s4, "S4")
    e = max(
        (s for i, s in enumerate(ga.lat.subgroups) if ga.lat.normal_flags[i]),
        key=lambda s: s.order,
    )
    rep = thmB_hypothesis(ga, e, mode="supplemented")
    p2 = next(pp for pp in rep.per_prime if pp.p == 2)
    all_d_fail = not rep.hypothesis and all(
        not d.clause_holds for d in p2.d_orders
    )

    lat = ga.lat
    wit = s4.subgroup_generated_by(
        [parse_cycle_string("(1 2)", 4), parse_cycle_string("(3 4)", 4)]
    )
    _, sylows = lat.sylow(2)
    witness_ok = (
        wit.order == 4
        and any(
            set(wit.element_indices()) <= set(p.element_indices())
            for p in sylows
        )
        and is_weakly_s_supplemented(lat, wit) is None
        and has_supersolvable_supplement(lat, wit) is None
    )

    d8c3 = GROUPS["D8xC3"]
    ga2 = GroupAnalysis(d8c3, "D8xC3")
    e2 = max(
        (s for i, s in enumerate(ga2.lat.subgroups) if ga2.lat.normal_flags[i]),
        key=lambda s: s.order,
    )
    rep2 = thmB_hypothesis(ga2, e2, mode="supplemented")
    q2 = next(pp for pp in rep2.per_prime if pp.p == 2)
    d2 = next(d for d in q2.d_orders if d.d_order == 2)
    positive_ok = (
        rep2.hypothesis_with_condition
        and d2.clause_holds
        and d2.cond_ii
        and is_supersolvable(d8c3)
    )

    ok = all_d_fail and witness_ok and positive_ok
    says(
        f"[criterion 9] {'PASS' if ok else 'FAIL'}: S4 fails the "
        f"hypothesis for every |D| and {{e,(12),(34),(12)(34)}} is a "
        f"|D|=4 witness (not weakly s-supplemented, no supersolvable "
        f"supplement); D8xC3 satisfies it at |D|=2 under condition (ii) "
        f"and is supersolvable"
    )
    assert ok, (all_d_fail, witness_ok, positive_ok)
