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
    sylow_family,
)
from permlat.corpus import builtin_corpus
from permlat.errors import NotNormalError, PermlatError
from permlat.groups import (
    _conjugate_bits,
    close_generators,
    direct_product,
    p_residual,
)
from permlat.lattice import enumerate_subgroups
from permlat.perms import Perm, parse_cycle_string
from permlat.statements import GroupAnalysis, check_L2_1
from permlat.structure import is_supersolvable

from oracles import (
    agl23,
    brute_is_normal,
    c_normal_oracle,
    hsg_join_oracle,
    normalizer,
    section_wss_oracle,
    supersolvable_supplement_oracle,
    supplement_scan_oracle,
    supplements,
)


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
        for k in lat.within(s.members):
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
    h = sub(lat, "(1 2)")
    t = is_weakly_s_supplemented(lat, h)
    assert t.order == 3
    assert (t.members & h.members).bit_count() == 1
    g4, lat4 = make(4, "(1 2)", "(1 2 3 4)")
    bad = sub(lat4, "(1 2)", "(3 4)")
    assert bad.order == 4
    assert is_weakly_s_supplemented(lat4, bad) is None


def test_wsp_examples():
    # A3 is a normal, hence subnormal, supplement of <(12)> with trivial
    # intersection, so the weak s-permutability scan accepts it.
    g, lat = make(3, "(1 2)", "(1 2 3)")
    assert is_weakly_s_permutable(lat, sub(lat, "(1 2)")).order == 3
    g4, lat4 = make(4, "(1 2)", "(1 2 3 4)")
    bad = sub(lat4, "(1 2)", "(3 4)")
    assert is_weakly_s_permutable(lat4, bad) is None


def test_normal_implies_everything():
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    for i, s in enumerate(lat.subgroups):
        if not lat.normal_flags[i]:
            continue
        assert is_s_permutable(lat, s)
        assert is_weakly_s_permutable(lat, s)
        assert is_weakly_s_supplemented(lat, s)
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
    assert has_supersolvable_supplement(lat, v4).order == 6
    a4, lata = make(4, "(1 2 3)", "(2 3 4)")
    h = sub(lata, "(1 2)(3 4)")
    assert has_supersolvable_supplement(lata, h) is None
    # supersolvable parent: T = G always works
    d12, latd = make(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")
    for s in latd.subgroups:
        assert has_supersolvable_supplement(latd, s)


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
            assert is_weakly_s_permutable(lat, s)
        if is_weakly_s_permutable(lat, s):
            assert is_weakly_s_supplemented(lat, s)
        if is_c_normal(lat, s):
            assert is_weakly_s_supplemented(lat, s)
        if is_complemented(lat, s):
            assert is_weakly_s_supplemented(lat, s)


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
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    for s in lat.subgroups:
        facs = s.as_group().prime_factorization
        if len(facs) != 1:
            continue
        (p,) = facs
        if not is_s_permutable(lat, s):
            continue
        resid = p_residual(g, p)
        assert resid.members & ~normalizer(s).members == 0


def test_residual_generators_decide_normalizing():
    """L2.3's test, that every generator of O^p(G) conjugates H to
    itself, against O^p(G) <= N_G(H) from the oracle's normalizer, for
    every p-subgroup of the builtin groups of order <= 48."""
    checked = failing = 0
    for _name, g in builtin_corpus():
        if g.order > 48:
            continue
        t, inv = g.table(), g.inverse_table()
        lat = enumerate_subgroups(g)
        for s in lat.subgroups[1:]:
            facs = s.as_group().prime_factorization
            if len(facs) != 1:
                continue
            (p,) = facs
            resid = p_residual(g, p)
            by_gens = all(
                _conjugate_bits(t, inv, s.members, x) == s.members
                for x in resid.generator_indices
            )
            assert by_gens == (resid.members & ~normalizer(s).members == 0)
            checked += 1
            failing += not by_gens
    assert (checked, failing) == (749, 293)


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
            ("subgroup", (k, lat.bottom()), lat.within(k.members))
            for k in lat.subgroups
            if 1 < k.order < g.order
        ]
        for kind, section, subs in cases:
            oracle = section_wss_oracle(*section)
            for h in subs:
                got = is_weakly_s_supplemented(lat, h, section) is not None
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
            for n in lat.within(k.members):
                if not brute_is_normal(g, set(n.element_indices()), over=k_elems):
                    continue
                oracle = section_wss_oracle(k, n)
                for h in lat.within(k.members):
                    if n.members & ~h.members:
                        continue
                    got = is_weakly_s_supplemented(lat, h, (k, n)) is not None
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
    t = is_weakly_s_supplemented(lat, d8, section)
    assert t.members == a4.members
    assert t.members & d8.members == v4.members
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


def test_section_bottom_normal_in_k_but_not_in_g():
    """The conjugation check is skipped only for an N normal in G. In S4,
    <(1 3)(2 4)> is normal in D8 but not in S4: the section D8/N is
    accepted with the answers of the rebuilt section, and <(1 3)>,
    which D8 does not normalize, is still rejected."""
    g, lat = make(4, "(1 2)", "(1 2 3 4)")
    d8 = sub(lat, "(1 2 3 4)", "(1 3)")
    n = sub(lat, "(1 3)(2 4)")
    assert not lat.normal_flags[lat.index_of(n)]
    section = (d8, n)
    oracle = section_wss_oracle(d8, n)
    got = []
    for h in lat.within(d8.members):
        if n.members & ~h.members:
            continue
        t = is_weakly_s_supplemented(lat, h, section)
        assert oracle(h)
        got.append((lat.index_of(h), h.order, t.order, h_sG(lat, h, section).order))
    assert got == [
        (7, 2, 8, 2),
        (15, 4, 4, 4),
        (16, 4, 4, 4),
        (19, 4, 4, 4),
        (25, 8, 2, 8),
    ]
    assert [(p, [lat.index_of(s) for s in c]) for p, c in sylow_family(lat, section)] == [
        (2, [25])
    ]
    with pytest.raises(NotNormalError):
        is_weakly_s_supplemented(lat, d8, (d8, sub(lat, "(1 3)")))


# -- the early-exit supplement scan against the full-list oracle ---------------


def _scan_cases(lat):
    """(section, subgroups of the section) for the whole group, every
    G/N with N > 1 normal, and K/1 for the lowest entry K of each class."""
    top, bottom = lat.top(), lat.bottom()
    cases = [(None, lat.subgroups)]
    cases += [
        ((top, n), [e for e in lat.subgroups if n.members & ~e.members == 0])
        for n in lat.normal_subgroups()
        if n.order > 1
    ]
    cases += [
        ((k, bottom), lat.within(k.members))
        for k in (lat.subgroups[cls[0]] for cls in lat.conjugacy_classes)
        if not k.is_full()
    ]
    return cases


def _same_answer(lat, h, section, t, want):
    """The scan's T against the oracle's (T, H meet T, H_sG): both None,
    or the same entry of ``lat.subgroups`` with the same intersection and
    bound."""
    if t is None or want is None:
        return t is want
    want_t, inter, bound = want
    return (
        t is want_t
        and t is lat.subgroups[lat.index_of(t)]
        and (t.members & h.members, h_sG(lat, h, section).members)
        == (inter.members, bound.members)
    )


def test_scan_matches_full_list_oracle():
    """Weak s-supplementation in every section of ``_scan_cases`` (G, G/N
    and K/1), and weak s-permutability in G, for every entry of the
    builtin groups of order <= 100: None exactly when the scan that lists
    every supplement and computes H_sG first finds no T, else its first
    admissible T, as the same entry of ``lat.subgroups``, with the same
    intersection and bound."""
    answers = dict.fromkeys(("G", "G/N", "K/1", "wsp"), 0)
    false = dict(answers)
    wss_not_wsp = 0
    for name, g in builtin_corpus():
        if g.order > 100:
            continue
        lat = enumerate_subgroups(g)
        for section, subs in _scan_cases(lat):
            kind = "G" if section is None else "K/1" if section[1].order == 1 else "G/N"
            for h in subs:
                got = is_weakly_s_supplemented(lat, h, section)
                want = supplement_scan_oracle(lat, h, section=section)
                assert _same_answer(lat, h, section, got, want), (name, section, h)
                answers[kind] += 1
                false[kind] += got is None
        for h in lat.subgroups:
            got = is_weakly_s_permutable(lat, h)
            want = supplement_scan_oracle(lat, h, require_subnormal=True)
            assert _same_answer(lat, h, None, got, want), (name, h)
            answers["wsp"] += 1
            false["wsp"] += got is None
            wss_not_wsp += got is None and is_weakly_s_supplemented(lat, h) is not None
    assert answers == {"G": 1118, "G/N": 2299, "K/1": 2928, "wsp": 1118}
    # A scan that always said True, in any kind of section, would fail here.
    assert false == {"G": 61, "G/N": 3, "K/1": 9, "wsp": 84}
    assert wss_not_wsp == 23


def test_h_sG_matches_join_oracle():
    """H_sG in every section of ``_scan_cases``, for every entry of the
    builtin groups of order <= 100, equals the set closure of N and every
    s-permutable subgroup of the section inside H."""
    answers = below_h = strictly_between = 0
    for name, g in builtin_corpus():
        if g.order > 100:
            continue
        lat = enumerate_subgroups(g)
        for section, subs in _scan_cases(lat):
            join = hsg_join_oracle(lat, section)
            n_bits = lat.bottom().members if section is None else section[1].members
            for h in subs:
                got = h_sG(lat, h, section).members
                assert got == join(h), (name, section, h)
                answers += 1
                below_h += got != h.members
                strictly_between += got not in (h.members, n_bits)
    assert answers == 6345
    # An H_sG that was always H, or always N, would fail here.
    assert (below_h, strictly_between) == (842, 222)


def test_supersolvable_supplement_matches_oracle():
    """The supersolvable supplement T for every entry of the builtin groups
    of order <= 100: None exactly when the oracle finds none, else the
    first supplement in canonical order that is supersolvable as a group
    of its own, as the same entry of ``lat.subgroups``."""
    answers = false = 0
    for name, g in builtin_corpus():
        if g.order > 100:
            continue
        lat = enumerate_subgroups(g)
        for h in lat.subgroups:
            t = has_supersolvable_supplement(lat, h)
            assert t is supersolvable_supplement_oracle(lat, h), (name, h)
            assert t is None or t is lat.subgroups[lat.index_of(t)], (name, h)
            answers += 1
            false += t is None
    assert (answers, false) == (1118, 81)


def test_c_normal_matches_oracle():
    """c-normality of every entry of the builtin groups of order <= 100:
    True exactly when the oracle finds a normal supplement that meets H
    inside the intersection of H's conjugates, both taken on element
    sets."""
    answers = false = 0
    for name, g in builtin_corpus():
        if g.order > 100:
            continue
        lat = enumerate_subgroups(g)
        for h in lat.subgroups:
            got = is_c_normal(lat, h)
            assert got is (c_normal_oracle(lat, h) is not None), (name, h)
            answers += 1
            false += not got
    assert (answers, false) == (1118, 84)


def test_l2_1_computes_few_h_sG():
    """L2.1 reads only the yes/no answer, so H_sG is computed for a small
    share of its weak s-supplementation scans: fewer than a quarter, on
    the builtin groups of order <= 60."""
    scans = joins = 0
    for name, g in builtin_corpus():
        if g.order > 60:
            continue
        ga = GroupAnalysis(g, name)
        check_L2_1(ga)
        kinds = [key[0] for key in ga.lat._memo]
        scans += kinds.count(is_weakly_s_supplemented.__name__)
        joins += kinds.count(h_sG.__name__)
    assert scans > 1000
    assert 4 * joins < scans
