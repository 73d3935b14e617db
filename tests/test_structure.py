"""Structural invariants pinned to hand-derived values, plus the
independent supersolvability and hypercenter oracles on small groups, the
walks above a normal subgroup against the quotient-tower oracle, and the
same answers read off the normal-subgroup list a lattice hands over."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from permlat import corpus, embedding, groups, lattice, statements, structure
from permlat.corpus import builtin_corpus, builtin_group, load_group, parse_group_file
from permlat.embedding import h_sG, is_permutable, is_s_permutable, is_weakly_s_supplemented
from permlat.groups import Group, Subgroup, _normal_bits, close_generators, direct_product
from permlat.lattice import enumerate_subgroups
from permlat.perms import Perm, parse_cycle_string
from permlat.statements import GroupAnalysis, check_L2_1
from permlat.structure import (
    _derived_bits,
    _u_hypercenter_bits,
    abelian_invariants,
    center,
    chief_series,
    derived_series,
    exponent,
    fingerprint,
    fitting_subgroup,
    has_sylow_tower,
    hypercenter,
    iota,
    is_nilpotent,
    is_p_solvable,
    is_simple,
    is_solvable,
    is_supersolvable,
    minimal_normal_subgroups,
    p_core,
    p_length,
    p_prime_core,
    u_hypercenter,
)

from oracles import (
    agl23,
    brute_minimal_normals,
    brute_normal_subgroups,
    brute_supersolvable,
    chain_factors,
    chain_hypercenter,
    is_normal,
    tower_answers,
    tower_chief_chain,
)


def gens(degree, *texts):
    return [parse_cycle_string(t, degree) for t in texts]


def cyc(n):
    return close_generators(n, [Perm.from_cycles(n, [tuple(range(1, n + 1))])])


def s3():
    return close_generators(3, gens(3, "(1 2)", "(1 2 3)"))


def s4():
    return close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))


def a4():
    return close_generators(4, gens(4, "(1 2 3)", "(2 3 4)"))


def a5():
    return close_generators(5, gens(5, "(1 2 3)", "(3 4 5)"))


def d8():
    return close_generators(4, gens(4, "(1 2 3 4)", "(1 3)"))


def test_derived_chain():
    g = s4()
    d1_bits, d1_gens = _derived_bits(g, g.generator_indices())
    assert d1_bits.bit_count() == 12
    d2_bits, _ = _derived_bits(g, d1_gens)
    assert d2_bits.bit_count() == 4
    assert d2_bits & ~d1_bits == 0
    d = d8()
    assert _derived_bits(d, d.generator_indices())[0].bit_count() == 2
    series = derived_series(g)
    assert [s.order for s in series] == [24, 12, 4, 1]


def test_abelian_has_trivial_derived_full_center():
    g = direct_product(cyc(4), cyc(6))
    assert _derived_bits(g, g.generator_indices())[0] == 1
    assert center(g).order == 24


def test_solvability_classes():
    assert is_solvable(s4())
    assert not is_nilpotent(s4())
    assert not is_supersolvable(s4())
    g = direct_product(d8(), cyc(3))
    assert is_solvable(g) and is_nilpotent(g) and is_supersolvable(g)
    assert not is_solvable(a5())
    assert not is_nilpotent(a5())
    assert not is_supersolvable(a5())


def test_cores():
    g = s4()
    assert p_core(g, 2).order == 4
    assert p_prime_core(g, 2).order == 1
    assert p_core(s3(), 3).order == 3
    assert p_prime_core(s3(), 3).order == 1
    q = d8()
    assert p_core(q, 2).order == 8


def test_fitting():
    assert fitting_subgroup(s4()).order == 4
    assert fitting_subgroup(s3()).order == 3
    assert fitting_subgroup(a5()).order == 1


def test_chief_series_values():
    c6 = cyc(6)
    assert sorted(chief_series(c6).factors) == [2, 3]
    g = s4()
    cs = chief_series(g)
    assert cs.factors == [4, 3, 2]
    assert [s.order for s in cs.chain] == [1, 4, 12, 24]
    assert chief_series(a5()).factors == [60]


def test_chief_series_seed_independence():
    """Jordan-Holder: the package's chain and the quotient-tower chain that
    takes the highest minimal normal subgroup have the same factors."""
    for g in (s4(), direct_product(s3(), s3()), direct_product(cyc(6), cyc(2))):
        low = sorted(chief_series(g).factors)
        assert low == sorted(chain_factors(tower_chief_chain(g, prefer="high")))


def test_p_nilpotency():
    # A normal p-complement is O_p'(G), of order |G| over its p-part.
    for g, p, want in ((s3(), 2, True), (s3(), 3, False), (cyc(12), 2, True)):
        e = g.prime_factorization[p]
        assert (p_prime_core(g, p).order == g.order // p**e) == want


def test_p_solvable_and_length():
    r = p_length(s3(), 3)
    assert r.is_p_solvable and r.p_length == 1
    r = p_length(s4(), 2)
    assert r.is_p_solvable and r.p_length == 2
    r = p_length(s4(), 5)
    assert r.is_p_solvable and r.p_length == 0
    r = p_length(a5(), 2)
    assert not r.is_p_solvable
    assert r.p_length is None
    assert not is_p_solvable(a5(), 2)


def test_p_length_one_iff_quotient_p_closed():
    # for p-solvable G: length <= 1 iff G/O_p' has a normal Sylow p
    from permlat.structure import sylow_normal

    from oracles import quotient

    for g in (s3(), s4(), a4(), cyc(12), direct_product(s3(), cyc(4))):
        for p in g.prime_factorization:
            r = p_length(g, p)
            if not r.is_p_solvable:
                continue
            q = quotient(g, p_prime_core(g, p)).group
            assert (r.p_length <= 1) == sylow_normal(q, p)


def test_u_hypercenter_values():
    g = direct_product(d8(), cyc(3))
    assert u_hypercenter(g).order == g.order
    assert u_hypercenter(s4()).order == 1
    prod = direct_product(a4(), cyc(5))
    z = u_hypercenter(prod)
    assert z.order == 5
    orders = sorted(prod.elements[i].order() for i in z.element_indices())
    assert orders == [1, 5, 5, 5, 5]


def test_u_hypercenter_full_iff_supersolvable():
    for g in (s3(), s4(), a4(), d8(), cyc(30), direct_product(s3(), cyc(5))):
        assert (u_hypercenter(g).order == g.order) == is_supersolvable(g)


def test_hypercenter_values():
    assert hypercenter(d8()).order == 8
    assert hypercenter(s3()).order == 1
    g = direct_product(d8(), s3())
    z = hypercenter(g)
    assert z.order == 8
    assert center(g).order == 2


def test_supersolvable_matches_chain_oracle():
    """The Z_U(G) = G decision against the chain oracle, which shares no
    code with it, also on every builtin group of order <= 100 and on
    C2^4:C3."""
    data = Path(__file__).parent / "data" / "c2_4_c3.group"
    samples = [
        s3(),
        s4(),
        a4(),
        d8(),
        cyc(24),
        direct_product(s3(), s3()),
        direct_product(a4(), cyc(2)),
        direct_product(d8(), cyc(3)),
        *(g for _, g in builtin_corpus() if g.order <= 100),
        load_group(parse_group_file(data)),
    ]
    assert len(samples) == 94
    for g in samples:
        assert is_supersolvable(g) == brute_supersolvable(g)
    # S4, A4 and C2xA4, each twice, A5 and C2^4:C3 are not supersolvable.
    assert sum(not is_supersolvable(g) for g in samples) == 8


def test_u_hypercenter_matches_chain_oracle():
    samples = [
        s3(),
        s4(),
        a4(),
        direct_product(a4(), cyc(5)),
        direct_product(s3(), cyc(4)),
        direct_product(s3(), s3()),
    ]
    for g in samples:
        want = chain_hypercenter(g)
        got = set(u_hypercenter(g).element_indices())
        assert got == want


def test_exponent():
    ea8 = close_generators(
        6, gens(6, "(1 2)", "(3 4)", "(5 6)")
    )
    assert exponent(ea8) == 2
    assert exponent(cyc(4)) == 4
    assert exponent(d8()) == 4


def test_iota():
    assert iota(27, 3) == 3
    assert iota(1, 3) == 0
    assert iota(8, 2) == 3
    assert iota(1, 2) == 0


def test_sylow_tower():
    assert has_sylow_tower(s3())
    assert not has_sylow_tower(s4())
    assert has_sylow_tower(direct_product(d8(), cyc(3)))
    assert has_sylow_tower(cyc(30))


def test_tower_chain_implications():
    for g in (s3(), s4(), a4(), a5(), d8(), cyc(36), direct_product(s3(), s3())):
        if is_supersolvable(g):
            assert has_sylow_tower(g)
        if has_sylow_tower(g):
            assert is_solvable(g)


def test_minimal_normals():
    mins = minimal_normal_subgroups(s4())
    assert len(mins) == 1 and mins[0].order == 4
    mins = minimal_normal_subgroups(direct_product(s3(), s3()))
    assert sorted(m.order for m in mins) == [3, 3]
    assert minimal_normal_subgroups(a5())[0].order == 60


def test_is_simple():
    assert is_simple(a5())
    assert is_simple(cyc(7))
    assert not is_simple(s4())
    assert not is_simple(cyc(6))


def test_is_simple_matches_the_definition():
    """On fresh copies of every builtin group and S5, is_simple agrees
    with its definition: one minimal normal subgroup, the whole group."""
    s5 = close_generators(5, gens(5, "(1 2)", "(1 2 3 4 5)"))
    for g in [g for _, g in builtin_corpus()] + [s5]:
        mins = brute_minimal_normals(_fresh(g))
        want = len(mins) == 1 and mins[0].bit_count() == g.order
        assert is_simple(_fresh(g)) == want, g.name


def test_L2_6_builds_no_table_for_a_two_prime_order():
    """|G324| = 2^2 * 3^4, so Burnside's theorem says G324 is not simple
    before any table is built."""
    g = builtin_group("G324")
    assert g._table is None
    assert statements.check_L2_6(GroupAnalysis(g, "G324")) == []
    assert g._table is None


def test_L2_6_checks_each_class_once(monkeypatch):
    """A5's five index-5 subgroups are one conjugacy class: A4 is built
    once and one subgroup is rebuilt as a group, yet the verdict still
    lists each."""
    calls = {"alternating": 0, "as_group": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(statements, "_alternating_named", counted("alternating", statements._alternating_named))
    monkeypatch.setattr(Subgroup, "as_group", counted("as_group", Subgroup.as_group))
    (verdict,) = statements.check_L2_6(GroupAnalysis(builtin_group("A5"), "A5"))
    assert calls == {"alternating": 1, "as_group": 1}
    assert verdict.hypothesis_satisfied and verdict.conclusion_holds
    assert verdict.witnesses == ("index 5: alternating point stabilizer, n=5",)


def test_abelian_invariants_values():
    assert abelian_invariants(cyc(6)) == (6,)
    assert abelian_invariants(direct_product(cyc(2), cyc(4))) == (2, 4)
    g = direct_product(cyc(2), direct_product(cyc(2), cyc(2)))
    assert abelian_invariants(g) == (2, 2, 2)
    assert abelian_invariants(direct_product(cyc(6), cyc(4))) == (2, 12)


def test_fingerprint_recognition():
    assert fingerprint(s4()).name == "S4"
    assert fingerprint(a4()).name == "A4"
    assert fingerprint(d8()).name == "D8"
    assert fingerprint(s3()).name == "S3"
    assert fingerprint(a5()).name == "A5"
    assert fingerprint(cyc(12)).name == "C12"
    q8 = close_generators(
        8, gens(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
    )
    assert fingerprint(q8).name == "Q8"
    # Order 24 with one involution: C3:C8 has 2 elements of order 4,
    # SL(2,3) 6 and Dic6 14.
    c3_c8 = close_generators(11, gens(11, "(1 2 3)", "(1 2)(4 5 6 7 8 9 10 11)"))
    assert fingerprint(c3_c8).name == "unrecognized"
    assert fingerprint(corpus._dicyclic(6, "Dic6")).name == "Dic6"
    sl23 = close_generators(8, gens(8, "(1 4 7)(2 8 5)", "(1 6 2 3)(4 7 8 5)"))
    assert fingerprint(sl23).name == "SL(2,3)"


def test_fingerprint_equality_across_constructions():
    from permlat.groups import wreath_regular

    assert fingerprint(wreath_regular(cyc(2), 2)) == fingerprint(d8())
    assert fingerprint(direct_product(cyc(3), cyc(2))) == fingerprint(cyc(6))


# sha256 over every builtin group of the member bitsets of the hypercenter,
# the U-hypercenter, the lowest chief series chain, the quotient-tower
# chain that takes the highest minimal normal subgroup, and each upper
# p-series: the results of the quotient-tower pullback.
TOWER_DIGEST = "c1671e07f35c524eb750acc393208bcece70694d98c97d413602d6203702a301"


def test_quotient_tower_results_match_pin():
    import hashlib

    from permlat.corpus import builtin_corpus

    h = hashlib.sha256()
    for name, g in builtin_corpus():
        parts = [name, hypercenter(g).members, u_hypercenter(g).members]
        parts.append([s.members for s in chief_series(g).chain])
        parts.append(tower_chief_chain(g, prefer="high"))
        for p in sorted(g.prime_factorization):
            parts.append((p, [s.members for s in p_length(g, p).upper_p_series]))
        h.update(repr(parts).encode())
    assert h.hexdigest() == TOWER_DIGEST


def _structure_answers(g):
    """The package's answers, in the shape of ``oracles.tower_answers``."""
    primes = sorted(g.prime_factorization)
    series = {p: p_length(g, p) for p in primes}
    return {
        "hypercenter": hypercenter(g).members,
        "u_hypercenter": u_hypercenter(g).members,
        "O_p": {p: p_core(g, p).members for p in primes},
        "O_p'": {p: p_prime_core(g, p).members for p in primes},
        "fitting": fitting_subgroup(g).members,
        "upper_p_series": {
            p: [s.members for s in series[p].upper_p_series] for p in primes
        },
        "p_length": {p: series[p].p_length for p in primes},
        "supersolvable": is_supersolvable(g),
        "p_solvable": {p: is_p_solvable(g, p) for p in primes},
        "sylow_tower": has_sylow_tower(g),
        "chief_factors": sorted(chief_series(g).factors),
    }


def test_walks_match_quotient_tower_on_agl23_classes():
    """One subgroup per conjugacy class of AGL(2,3), which has many
    solvable groups that are not supersolvable: the walks on the group's
    own table give the quotient-tower oracle's answers, and the chief
    series is a chain of normal subgroups with nothing normal strictly
    between consecutive terms. The chains themselves are not compared:
    a tie between minimal normal subgroups may be broken otherwise."""
    lat = enumerate_subgroups(agl23(), cap=500)
    assert len(lat.conjugacy_classes) == 46
    not_supersolvable = no_tower = 0
    for cls in lat.conjugacy_classes:
        h = lat.subgroups[cls[0]].as_group()
        got = _structure_answers(h)
        assert got == tower_answers(h), h.order
        not_supersolvable += not got["supersolvable"]
        no_tower += not got["sylow_tower"]
        normal = {s.members for s in enumerate_subgroups(h, cap=500).normal_subgroups()}
        chain = [s.members for s in chief_series(h).chain]
        assert set(chain) <= normal
        for low, high in zip(chain, chain[1:]):
            assert not any(
                n not in (low, high) and low & ~n == 0 and n & ~high == 0 for n in normal
            ), h.order
    assert not_supersolvable >= 9
    assert no_tower >= 4


_S6_PERMS = st.permutations(range(1, 7)).map(Perm)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(_S6_PERMS, min_size=1, max_size=3))
def test_walks_match_quotient_tower_on_s6_subgroups(perms):
    """Subgroups of S6 generated by one to three permutations."""
    g = close_generators(6, perms)
    assert _structure_answers(g) == tower_answers(g)
    assert all(is_normal(s) for s in chief_series(g).chain)


def _fresh(g):
    """The same group with an empty memo, so nothing computed on ``g``
    carries over."""
    return Group(g.degree, g.generators, g.elements, name=g.name)


def test_lattice_hands_over_its_normal_entries():
    """A group has no normal-subgroup list until a lattice of it is built;
    then the list is the lattice's normal entries, on every builtin group,
    and the brute-force normal subgroups on those of order <= 48. The
    lattice's minimal normal entries are the ones the walks find."""
    brute_checked = 0
    for name, g in builtin_corpus():
        fresh = _fresh(g)
        assert _normal_bits(fresh) is None, name
        lat = enumerate_subgroups(fresh, cap=g.order)
        listed = _normal_bits(fresh)
        assert listed == [s.members for s in lat.normal_subgroups()], name
        walked = [s.members for s in minimal_normal_subgroups(_fresh(g))]
        assert [s.members for s in minimal_normal_subgroups(fresh)] == walked, name
        if g.order <= 48:
            brute = brute_normal_subgroups(g)
            assert listed == sorted(
                (sum(1 << i for i in s) for s in brute), key=lambda b: (b.bit_count(), b)
            ), name
            brute_checked += 1
    assert brute_checked == 84


def _normal_series_answers(g, normals):
    """Every normal-series answer ``structure`` gives, with the
    U-hypercenter of G/N for each of the given normal bitsets N."""
    chief = chief_series(g)
    return {
        **_structure_answers(g),
        "chief_chain": [s.members for s in chief.chain],
        "minimal_normal": [s.members for s in minimal_normal_subgroups(g)],
        "u_hypercenter_mod": [_u_hypercenter_bits(g, Subgroup(g, n)) for n in normals],
    }


def test_normal_series_answers_do_not_depend_on_whether_a_lattice_was_built():
    """On every builtin group, the per-class walks on a group with no
    lattice give the same answers as the scans of the normal-subgroup list
    a lattice hands over."""
    for name, g in builtin_corpus():
        handed = _fresh(g)
        enumerate_subgroups(handed, cap=g.order)
        normals = _normal_bits(handed)
        walked = _fresh(g)
        answers = _normal_series_answers(walked, normals)
        assert _normal_bits(walked) is None, name
        assert _normal_series_answers(handed, normals) == answers, name


def test_normal_series_questions_close_nothing_after_the_lattice(monkeypatch):
    """Once G's lattice is built, no normal-series question runs a
    closure: each is a scan of the normal-subgroup list the lattice
    handed over."""
    analyses = [GroupAnalysis(_fresh(g), name) for name, g in builtin_corpus() if g.order <= 200]
    for ga in analyses:
        ga.lat.normal_subgroups()
    close = groups._close_bits
    calls = []

    def counted(*args):
        calls.append(args)
        return close(*args)

    for module in (groups, lattice, structure, statements):
        monkeypatch.setattr(module, "_close_bits", counted, raising=False)
    for ga in analyses:
        g = ga.group
        chief_series(g)
        minimal_normal_subgroups(g)
        u_hypercenter(g)
        fitting_subgroup(g)
        for p in g.prime_factorization:
            p_core(g, p)
            p_prime_core(g, p)
            p_length(g, p)
        for n in ga.lat.normal_subgroups():
            ga.supersolvable_mod(n)
    assert len(analyses) == 86
    assert calls == []


def test_embedding_questions_close_nothing_after_the_lattice(monkeypatch):
    """Once G's lattice is built, products, joins and section normality
    are read off it: no s-permutability, permutability, H_sG or weak
    s-supplementation question runs a closure, in G, in any G/N or in any
    K/1, and neither does Lemma 2.1's checker."""
    analyses = [GroupAnalysis(_fresh(g), name) for name, g in builtin_corpus() if g.order <= 200]
    for ga in analyses:
        ga.lat.normal_subgroups()

    def fail(*args, **kwargs):
        raise AssertionError("closure run after the lattice was built")

    for module in (groups, lattice, structure, embedding, statements):
        monkeypatch.setattr(module, "_close_bits", fail, raising=False)
    for ga in analyses:
        lat = ga.lat
        top, bottom = lat.top(), lat.bottom()
        for h in lat.subgroups:
            is_s_permutable(lat, h)
            is_permutable(lat, h)
            h_sG(lat, h)
            is_weakly_s_supplemented(lat, h)
        for n in lat.normal_subgroups():
            for h in lat.subgroups:
                if n.members & ~h.members == 0:
                    is_weakly_s_supplemented(lat, h, (top, n))
        for cls in lat.conjugacy_classes:
            k = lat.subgroups[cls[0]]
            for h in lat.within(k.members):
                is_weakly_s_supplemented(lat, h, (k, bottom))
        check_L2_1(ga)
    assert len(analyses) == 86
