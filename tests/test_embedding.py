import pytest

from permlat.embedding import (
    core_of,
    h_sG,
    has_supersolvable_supplement,
    is_c_normal,
    is_complemented,
    is_permutable,
    is_s_permutable,
    is_supersolvable_section,
    is_weakly_s_permutable,
    is_weakly_s_supplemented,
    subnormal_in,
    supplements,
    sylow_family,
)
from permlat.corpus import builtin_corpus
from permlat.errors import NotNormalError, PermlatError
from permlat.groups import close_generators, direct_product
from permlat.lattice import enumerate_subgroups
from permlat.perms import Perm, parse_cycle_string
from permlat.structure import is_supersolvable

from oracles import agl23, brute_is_normal, section_wss_oracle


def gens(degree, *texts):
    return [parse_cycle_string(t, degree) for t in texts]


def make(degree, *texts):
    g = close_generators(degree, gens(degree, *texts))
    return g, enumerate_subgroups(g)


def sub(lat, *texts):
    s = lat.group.subgroup_generated_by(gens(lat.group.degree, *texts))
    return lat.entry(s.members)


def test_s_permutable_examples():
    g, lat = make(3, "(1 2)", "(1 2 3)")
    assert not is_s_permutable(lat, sub(lat, "(1 2)"))
    g4, lat4 = make(4, "(1 2)", "(1 2 3 4)")
    v4 = sub(lat4, "(1 2)(3 4)", "(1 3)(2 4)")
    assert is_s_permutable(lat4, v4)
    # every normal subgroup is s-permutable
    for i, s in enumerate(lat4.subgroups):
        if lat4.normal_flags[i]:
            assert is_s_permutable(lat4, s)


def test_h_sG_values():
    g, lat = make(3, "(1 2)", "(1 2 3)")
    assert h_sG(lat, sub(lat, "(1 2)")).order == 1
    a3 = sub(lat, "(1 2 3)")
    assert h_sG(lat, a3).members == a3.members
    g4, lat4 = make(4, "(1 2)", "(1 2 3 4)")
    d8 = sub(lat4, "(1 2 3 4)", "(1 3)")
    got = h_sG(lat4, d8)
    assert got.order == 4
    v4 = sub(lat4, "(1 2)(3 4)", "(1 3)(2 4)")
    assert got.members == v4.members


def test_h_sG_join_coherent():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    for s in lat.subgroups:
        h = h_sG(lat, s)
        # contains every s-permutable subgroup inside s
        for i in lat.within(s.members):
            k = lat.subgroups[i]
            if is_s_permutable(lat, k):
                assert k.members & ~h.members == 0
        assert h_sG(lat, h).members == h.members


def test_supplements_s3():
    g, lat = make(3, "(1 2)", "(1 2 3)")
    h = sub(lat, "(1 2)")
    got = {(t.order, t.members) for t in supplements(lat, h)}
    a3 = sub(lat, "(1 2 3)")
    assert got == {(3, a3.members), (6, lat.top().members)}


def test_supplements_degenerate():
    g, lat = make(3, "(1 2)", "(1 2 3)")
    all_subs = {s.members for s in lat.subgroups}
    assert {t.members for t in supplements(lat, lat.top())} == all_subs
    for s in lat.subgroups:
        assert lat.top().members in {t.members for t in supplements(lat, s)}


def test_wss_examples():
    g, lat = make(3, "(1 2)", "(1 2 3)")
    ok, wit = is_weakly_s_supplemented(lat, sub(lat, "(1 2)"))
    assert ok
    assert wit.T.order == 3
    assert wit.intersection.order == 1
    g4, lat4 = make(4, "(1 2)", "(1 2 3 4)")
    bad = sub(lat4, "(1 2)", "(3 4)")
    assert bad.order == 4
    ok, wit = is_weakly_s_supplemented(lat4, bad)
    assert not ok
    assert wit is None


def test_wsp_examples():
    # A3 is a normal, hence subnormal, supplement of <(12)> with trivial
    # intersection, so the weak s-permutability scan accepts it.
    g, lat = make(3, "(1 2)", "(1 2 3)")
    ok, wit = is_weakly_s_permutable(lat, sub(lat, "(1 2)"))
    assert ok
    assert wit.T.order == 3
    g4, lat4 = make(4, "(1 2)", "(1 2 3 4)")
    bad = sub(lat4, "(1 2)", "(3 4)")
    ok, _ = is_weakly_s_permutable(lat4, bad)
    assert not ok


def test_normal_implies_everything():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    for i, s in enumerate(lat.subgroups):
        if not lat.normal_flags[i]:
            continue
        assert is_s_permutable(lat, s)
        assert is_weakly_s_permutable(lat, s)[0]
        assert is_weakly_s_supplemented(lat, s)[0]
        assert is_c_normal(lat, s)


def test_c_normal_examples():
    g, lat = make(3, "(1 2)", "(1 2 3)")
    assert is_c_normal(lat, sub(lat, "(1 2)"))
    q8, latq = make(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
    i_sub = sub(latq, "(1 2 3 4)(5 6 7 8)")
    assert i_sub.order == 4
    assert is_c_normal(latq, i_sub)
    # the quartet subgroup of S4 is not c-normal: core is trivial and no
    # normal supplement avoids it
    g4, lat4 = make(4, "(1 2)", "(1 2 3 4)")
    bad = sub(lat4, "(1 2)", "(3 4)")
    assert not is_c_normal(lat4, bad)


def test_core_of():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    d8 = sub(lat, "(1 2 3 4)", "(1 3)")
    v4 = sub(lat, "(1 2)(3 4)", "(1 3)(2 4)")
    assert core_of(lat, d8).members == v4.members
    assert core_of(lat, sub(lat, "(1 2)")).order == 1


def test_supersolvable_supplement_examples():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    v4 = sub(lat, "(1 2)(3 4)", "(1 3)(2 4)")
    ok, t = has_supersolvable_supplement(lat, v4)
    assert ok
    assert t.order == 6
    a4, lata = make(4, "(1 2 3)", "(2 3 4)")
    h = sub(lata, "(1 2)(3 4)")
    ok, t = has_supersolvable_supplement(lata, h)
    assert not ok
    assert t is None
    # supersolvable parent: T = G always works
    d12, latd = make(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")
    for s in latd.subgroups:
        assert has_supersolvable_supplement(latd, s)[0]


def test_supersolvable_section_matches_subgroup_groups():
    """Huppert's rule on the section (T, 1) against T built as a group of
    its own, for one entry per conjugacy class of every builtin group of
    order <= 400 and of AGL(2,3)."""
    lattices = [
        enumerate_subgroups(g) for _name, g in builtin_corpus() if g.order <= 400
    ]
    lattices.append(enumerate_subgroups(agl23(), cap=500))
    answers = falses = 0
    for lat in lattices:
        for cls in lat.conjugacy_classes:
            t = lat.subgroups[cls[0]]
            got = is_supersolvable_section(lat, (t, lat.bottom()))
            assert got == is_supersolvable(t.as_group()), (lat.group.name, t)
            answers += 1
            falses += not got
    assert answers == 911
    assert falses >= 20


def test_complemented():
    g, lat = make(3, "(1 2)", "(1 2 3)")
    assert is_complemented(lat, sub(lat, "(1 2)"))
    assert is_complemented(lat, sub(lat, "(1 2 3)"))
    q8, latq = make(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
    fr = latq.frattini()
    assert fr.order == 2
    assert not is_complemented(latq, latq.entry(fr.members))


def test_permutable_vs_s_permutable():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    for s in lat.subgroups:
        if is_permutable(lat, s):
            assert is_s_permutable(lat, s)


def test_subnormal_in():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    assert subnormal_in(lat, sub(lat, "(1 2)(3 4)"))
    assert not subnormal_in(lat, sub(lat, "(1 2)"))


def test_hierarchy_chain_s4():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    for s in lat.subgroups:
        if is_s_permutable(lat, s):
            assert is_weakly_s_permutable(lat, s)[0]
        if is_weakly_s_permutable(lat, s)[0]:
            assert is_weakly_s_supplemented(lat, s)[0]
        if is_c_normal(lat, s):
            assert is_weakly_s_supplemented(lat, s)[0]
        if is_complemented(lat, s):
            assert is_weakly_s_supplemented(lat, s)[0]


def test_nilpotent_group_everything_s_permutable():
    c3 = close_generators(3, [Perm.from_cycles(3, [(1, 2, 3)])])
    d8 = close_generators(4, gens(4, "(1 2 3 4)", "(1 3)"))
    g = direct_product(d8, c3)
    lat = enumerate_subgroups(g)
    for s in lat.subgroups:
        assert is_s_permutable(lat, s)
        assert subnormal_in(lat, s)


def test_l2_3_normalizer_property():
    # s-permutable p-subgroups are normalized by every p'-element
    from permlat.groups import p_residual

    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    for s in lat.subgroups:
        facs = s.as_group().prime_factorization
        if len(facs) != 1:
            continue
        (p,) = facs
        if not is_s_permutable(lat, s):
            continue
        from permlat.lattice import normalizer

        resid = p_residual(g, p)
        assert resid.members & ~normalizer(s).members == 0


# -- sections K/N read off the parent lattice --------------------------------


def test_section_wss_matches_rebuild_oracle():
    """Over the builtin groups of order <= 200, the in-lattice answer for
    K/N in G/N (every normal N < G, every K >= N) and for H in K (every
    1 < K < G, every H <= K) equals the rebuilt-group oracle."""
    pairs = {"quotient": 0, "subgroup": 0}
    false = {"quotient": 0, "subgroup": 0}
    mismatches = []
    for name, g in builtin_corpus():
        if g.order > 200:
            continue
        lat = enumerate_subgroups(g)
        top = lat.top()
        cases = [
            ("quotient", (top, n), [k for k in lat.subgroups if n.members & ~k.members == 0])
            for n in lat.normal_subgroups()
            if not n.is_full()
        ]
        cases += [
            ("subgroup", (k, lat.bottom()), [lat.subgroups[i] for i in lat.within(k.members)])
            for k in lat.subgroups
            if 1 < k.order < g.order
        ]
        for kind, section, subs in cases:
            oracle = section_wss_oracle(*section)
            for h in subs:
                got = is_weakly_s_supplemented(lat, h, section)[0]
                pairs[kind] += 1
                false[kind] += not got
                if got != oracle(h):
                    mismatches.append((name, kind, section[0].order, section[1].order, h.order))
    assert mismatches == []
    assert pairs == {"quotient": 3511, "subgroup": 5298}
    # A predicate that always said True would fail here.
    assert false == {"quotient": 190, "subgroup": 147}


def test_general_section_matches_rebuild_oracle():
    """Sections K/N with N normal in K but not necessarily in G, over the
    builtin groups of order <= 24."""
    checked = 0
    false = 0
    for name, g in builtin_corpus():
        if g.order > 24:
            continue
        lat = enumerate_subgroups(g)
        for k in lat.subgroups:
            k_elems = k.element_indices()
            for j in lat.within(k.members):
                n = lat.subgroups[j]
                if not brute_is_normal(g, set(n.element_indices()), over=k_elems):
                    continue
                oracle = section_wss_oracle(k, n)
                for i in lat.within(k.members):
                    h = lat.subgroups[i]
                    if n.members & ~h.members:
                        continue
                    got = is_weakly_s_supplemented(lat, h, (k, n))[0]
                    assert got == oracle(h), (name, k.order, n.order, h.order)
                    checked += 1
                    false += not got
    assert (checked, false) == (10596, 24)


def test_section_whole_group_is_the_default():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    section = (lat.top(), lat.bottom())
    for s in lat.subgroups:
        assert is_weakly_s_supplemented(lat, s, section) is is_weakly_s_supplemented(lat, s)
        assert h_sG(lat, s, section) is h_sG(lat, s)
    assert sylow_family(lat, section) is sylow_family(lat)
    assert not any(isinstance(key, tuple) and len(key) > 2 for key in lat._memo)


def test_section_quotient_s4_by_v4():
    # S4/V4 is S3: D8/V4 is a transposition's image, weakly s-supplemented
    # through A4/V4 with intersection V4, the section's trivial subgroup.
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    v4 = sub(lat, "(1 2)(3 4)", "(1 3)(2 4)")
    section = (lat.top(), v4)
    d8 = sub(lat, "(1 2 3 4)", "(1 3)")
    a4 = sub(lat, "(1 2 3)", "(1 2)(3 4)")
    ok, wit = is_weakly_s_supplemented(lat, d8, section)
    assert ok
    assert wit.T.members == a4.members
    assert wit.intersection.members == v4.members
    # Sylow subgroups of S3, as preimages: the three D8 and A4.
    family = sylow_family(lat, section)
    assert [(p, [s.order for s in c]) for p, c in family] == [(2, [8, 8, 8]), (3, [12])]
    assert h_sG(lat, d8, section).members == v4.members
    assert {t.order for t in supplements(lat, d8, section)} == {12, 24}


def test_section_rejects_bad_input():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    d8 = sub(lat, "(1 2 3 4)", "(1 3)")
    c2 = sub(lat, "(1 3)")
    with pytest.raises(NotNormalError):
        is_weakly_s_supplemented(lat, d8, (lat.top(), c2))
    with pytest.raises(PermlatError):
        is_weakly_s_supplemented(lat, lat.top(), (d8, lat.bottom()))
    with pytest.raises(PermlatError):
        is_weakly_s_supplemented(lat, d8, (c2, d8))
