"""Structural invariants pinned to hand-derived values, plus the
independent supersolvability and hypercenter oracles on small groups."""

from permlat.groups import close_generators, direct_product
from permlat.lattice import enumerate_subgroups
from permlat.perms import Perm, parse_cycle_string
from permlat.structure import (
    abelian_invariants,
    agemo1,
    center,
    chief_series,
    derived_series,
    derived_subgroup,
    exponent,
    fingerprint,
    fitting_subgroup,
    has_sylow_tower,
    hypercenter,
    iota,
    is_nilpotent,
    is_p_nilpotent,
    is_p_solvable,
    is_simple,
    is_solvable,
    is_supersolvable,
    minimal_normal_subgroups,
    omega1,
    p_core,
    p_length,
    p_prime_core,
    phi_p_group,
    u_hypercenter,
)

from oracles import brute_supersolvable, chain_hypercenter


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
    d1 = derived_subgroup(g)
    assert d1.order == 12
    d2 = derived_subgroup(d1.as_group())
    assert d2.order == 4
    assert derived_subgroup(d8()).order == 2
    series = derived_series(g)
    assert [s.order for s in series] == [24, 12, 4, 1]


def test_abelian_has_trivial_derived_full_center():
    g = direct_product(cyc(4), cyc(6))
    assert derived_subgroup(g).order == 1
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
    assert sorted(f.order for f in chief_series(c6).factors) == [2, 3]
    g = s4()
    cs = chief_series(g)
    assert [f.order for f in cs.factors] == [4, 3, 2]
    assert [s.order for s in cs.chain] == [1, 4, 12, 24]
    assert [f.order for f in chief_series(a5()).factors] == [60]


def test_chief_series_seed_independence():
    for g in (s4(), direct_product(s3(), s3()), direct_product(cyc(6), cyc(2))):
        low = sorted(f.order for f in chief_series(g, prefer="low").factors)
        high = sorted(f.order for f in chief_series(g, prefer="high").factors)
        assert low == high


def test_p_nilpotency():
    assert is_p_nilpotent(s3(), 2)
    assert not is_p_nilpotent(s3(), 3)
    assert is_p_nilpotent(cyc(12), 2)


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
    from permlat.groups import quotient
    from permlat.structure import sylow_normal

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
    orders = sorted(e.order() for e in z.elements())
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
    samples = [
        s3(),
        s4(),
        a4(),
        d8(),
        cyc(24),
        direct_product(s3(), s3()),
        direct_product(a4(), cyc(2)),
        direct_product(d8(), cyc(3)),
    ]
    for g in samples:
        assert is_supersolvable(g) == brute_supersolvable(g)


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


def test_exponent_omega_agemo():
    ea8 = close_generators(
        6, gens(6, "(1 2)", "(3 4)", "(5 6)")
    )
    assert exponent(ea8) == 2
    assert omega1(ea8).order == 8
    assert agemo1(ea8).order == 1
    assert phi_p_group(ea8).order == 1
    c4 = cyc(4)
    assert exponent(c4) == 4
    assert omega1(c4).order == 2
    assert agemo1(c4).order == 2
    assert phi_p_group(c4).order == 2
    g = d8()
    assert exponent(g) == 4
    assert omega1(g).order == 8
    assert agemo1(g).order == 2
    assert phi_p_group(g).order == 2


def test_phi_p_group_equals_lattice_frattini():
    for g in (d8(), cyc(8), cyc(9), close_generators(6, gens(6, "(1 2)", "(3 4)", "(5 6)"))):
        lat = enumerate_subgroups(g)
        assert phi_p_group(g).members == lat.frattini().members


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


def test_fingerprint_equality_across_constructions():
    from permlat.groups import wreath_regular

    assert fingerprint(wreath_regular(cyc(2), 2)) == fingerprint(d8())
    assert fingerprint(direct_product(cyc(3), cyc(2))) == fingerprint(cyc(6))


# sha256 over every builtin group of the member bitsets of the hypercenter,
# the U-hypercenter, both chief series chains and each upper p-series: the
# results of the quotient-tower pullback.
TOWER_DIGEST = "c1671e07f35c524eb750acc393208bcece70694d98c97d413602d6203702a301"


def test_quotient_tower_results_match_pin():
    import hashlib

    from permlat.corpus import builtin_corpus

    h = hashlib.sha256()
    for name, g in builtin_corpus():
        parts = [name, hypercenter(g).members, u_hypercenter(g).members]
        for prefer in ("low", "high"):
            parts.append([s.members for s in chief_series(g, prefer).chain])
        for p in sorted(g.prime_factorization):
            parts.append((p, [s.members for s in p_length(g, p).upper_p_series]))
        h.update(repr(parts).encode())
    assert h.hexdigest() == TOWER_DIGEST
