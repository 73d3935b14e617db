"""Lattice enumeration cross-checked against the brute-force oracle,
plus the lattice-level predicate examples pinned to hand-derived values."""

import hashlib

import pytest

from permlat import lattice
from permlat.corpus import builtin_corpus
from permlat.embedding import core_of
from permlat.errors import LatticeCapError, PermlatError
from permlat.groups import (
    Group,
    Subgroup,
    _close_bits,
    _conjugate_bits,
    _factorize,
    close_generators,
    direct_product,
    wreath_regular,
)
from permlat.lattice import (
    _normal_closure_bits,
    enumerate_subgroups,
    is_subnormal,
)
from permlat.perms import Perm, parse_cycle_string
from permlat.structure import minimal_normal_subgroups

from oracles import (
    agl23,
    brute_is_normal,
    brute_subgroups,
    conjugation_partition,
    is_normal,
    is_subgroup_set,
    naive_product_set,
    normalizer,
    permutes,
)


def gens(degree, *texts):
    return [parse_cycle_string(t, degree) for t in texts]


def s4():
    return close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))


def s3():
    return close_generators(3, gens(3, "(1 2)", "(1 2 3)"))


def q8():
    return close_generators(
        8, gens(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
    )


def normal_closure_bits(h):
    g = h.parent
    return _normal_closure_bits(g, g.generator_indices(), h.members, h.generator_indices)[0]


def bits_to_set(bits):
    out = set()
    i = 0
    while bits:
        if bits & 1:
            out.add(i)
        bits >>= 1
        i += 1
    return out


def test_s4_lattice_counts():
    lat = enumerate_subgroups(s4())
    assert len(lat) == 30
    assert len(lat.conjugacy_classes) == 11


def test_cyclic_prime_has_two_subgroups():
    for p in (2, 3, 5, 7, 11):
        g = close_generators(p, [Perm.from_cycles(p, [tuple(range(1, p + 1))])])
        assert len(enumerate_subgroups(g)) == 2


def test_q8_all_normal():
    lat = enumerate_subgroups(q8())
    assert len(lat) == 6
    assert all(lat.normal_flags)


def test_enumeration_matches_brute_force():
    for g in (s3(), s4(), q8(), direct_product(s3(), s3())):
        lat = enumerate_subgroups(g)
        got = {frozenset(bits_to_set(s.members)) for s in lat.subgroups}
        assert got == brute_subgroups(g)


def test_normal_flags_match_brute_force():
    g = s4()
    lat = enumerate_subgroups(g)
    for i, sub in enumerate(lat.subgroups):
        assert lat.normal_flags[i] == brute_is_normal(g, bits_to_set(sub.members))
        assert lat.is_normal(sub) == lat.normal_flags[i]


def test_conjugation_closure():
    g = s4()
    lat = enumerate_subgroups(g)
    t, inv = g.table(), g.inverse_table()
    for sub in lat.subgroups:
        for e in range(g.order):
            assert _conjugate_bits(t, inv, sub.members, e) in lat.index_by_bits


def test_sylow_s4():
    lat = enumerate_subgroups(s4())
    rep2, conj2 = lat.sylow(2)
    assert rep2.order == 8
    assert len(conj2) == 3
    rep3, conj3 = lat.sylow(3)
    assert rep3.order == 3
    assert len(conj3) == 4


def test_sylow_of_p_group():
    lat = enumerate_subgroups(q8())
    rep, conj = lat.sylow(2)
    assert rep.order == 8
    assert len(conj) == 1


def test_join_meet():
    g = s4()
    lat = enumerate_subgroups(g)
    a = lat.entry(g.subgroup_generated_by(gens(4, "(1 2)")).members)
    b = lat.entry(g.subgroup_generated_by(gens(4, "(3 4)")).members)
    assert lat.product(a, b).order == 4
    assert lat.product(a, lat.bottom()) == a
    assert lat.product(a, lat.entry(g.subgroup_generated_by(gens(4, "(1 3)")).members)) is None
    a4 = lat.entry(g.subgroup_generated_by(gens(4, "(1 2 3)", "(2 3 4)")).members)
    d8 = lat.sylow(2)[0]
    v4 = lat.entry(a4.members & d8.members)
    assert v4.order == 4
    assert is_normal(v4)


def test_frattini():
    assert enumerate_subgroups(s4()).frattini().order == 1
    q = q8()
    lat = enumerate_subgroups(q)
    fr = lat.frattini()
    assert fr.order == 2
    from permlat.structure import center

    assert fr.members == center(q).members
    c4 = close_generators(4, [Perm.from_cycles(4, [(1, 2, 3, 4)])])
    assert enumerate_subgroups(c4).frattini().order == 2


def test_complements():
    g = s4()
    lat = enumerate_subgroups(g)
    assert lat.complements(lat.top()) == [lat.bottom()]
    a4 = lat.entry(g.subgroup_generated_by(gens(4, "(1 2 3)", "(2 3 4)")).members)
    comps = lat.complements(a4)
    assert len(comps) == 6
    assert all(c.order == 2 for c in comps)
    q = q8()
    qlat = enumerate_subgroups(q)
    minus_one = qlat.entry(qlat.frattini().members)
    assert qlat.complements(minus_one) == []


def test_normalizer_core_closure():
    g = s4()
    lat = enumerate_subgroups(g)
    h = g.subgroup_generated_by(gens(4, "(1 2)"))
    assert normalizer(h).order == 4
    assert core_of(lat, h).order == 1
    assert normal_closure_bits(h).bit_count() == 24
    d8 = g.subgroup_generated_by(gens(4, "(1 2 3 4)", "(1 3)"))
    assert normalizer(d8).members == d8.members
    v4 = g.subgroup_generated_by(gens(4, "(1 2)(3 4)", "(1 3)(2 4)"))
    assert normalizer(v4).order == 24
    assert core_of(lat, v4).members == v4.members
    assert normal_closure_bits(v4) == v4.members


def test_subnormal():
    g = s4()
    h = g.subgroup_generated_by(gens(4, "(1 2)(3 4)"))
    assert is_subnormal(h)
    k = g.subgroup_generated_by(gens(4, "(1 2)"))
    assert not is_subnormal(k)


def test_permutes():
    """The closure oracle and ``product`` on the same pairs."""
    cases = [
        (s3(), ["(1 2)"], ["(1 2 3)"], True),
        (s3(), ["(1 2)"], ["(1 3)"], False),
        (s4(), ["(1 2)"], ["(1 3 4)"], False),
        (s4(), ["(1 2)"], ["(1 2)(3 4)", "(1 3)(2 4)"], True),
    ]
    for g, h_gens, k_gens, expected in cases:
        lat = enumerate_subgroups(g)
        h = lat.entry(g.subgroup_generated_by(gens(g.degree, *h_gens)).members)
        k = lat.entry(g.subgroup_generated_by(gens(g.degree, *k_gens)).members)
        assert permutes(h, k) is expected
        assert (lat.product(h, k) is not None) is expected


def test_product_matches_the_set_product():
    """For every pair of entries of the builtin groups of order <= 60,
    ``product`` is the entry equal to the elementwise set product when
    that set is a subgroup, and None otherwise."""
    pairs = closed = 0
    for name, g in builtin_corpus():
        if g.order > 60:
            continue
        lat = enumerate_subgroups(g)
        elems = [s.element_indices() for s in lat.subgroups]
        for a, ea in zip(lat.subgroups, elems):
            for b, eb in zip(lat.subgroups, elems):
                prod = naive_product_set(g, ea, eb)
                got = lat.product(a, b)
                pairs += 1
                if is_subgroup_set(g, prod):
                    closed += 1
                    assert got is not None and bits_to_set(got.members) == prod, name
                else:
                    assert got is None, name
    assert (pairs, closed) == (29904, 22284)


def test_within_and_of_order():
    g = s4()
    lat = enumerate_subgroups(g)
    assert len(lat.of_order(2)) == 9
    d8 = lat.sylow(2)[0]
    inside = lat.within(d8.members)
    assert all(s.members & ~d8.members == 0 for s in inside)
    assert len(lat.within(d8.members, order=4)) == 3
    # Queries answer in the lattice's own entries, in canonical order.
    a4 = lat.of_order(12)[0]
    for got in (
        lat.of_order(2),
        inside,
        lat.within(d8.members, order=4),
        lat.complements(a4),
        lat.sylow(2)[1],
        lat.sylow(3)[1],
    ):
        pos = [lat.index_of(s) for s in got]
        assert all(s is lat.subgroups[i] for s, i in zip(got, pos))
        assert pos == sorted(set(pos))
    assert len(lat.complements(a4)) == 6
    assert lat.sylow(2)[0] is lat.sylow(2)[1][0]
    maximals = [s for s, f in zip(lat.subgroups, lat.maximal_flags) if f]
    assert lat.meet(maximals) is lat.frattini()
    assert lat.meet([d8, a4]).order == 4
    assert lat.meet([]) is lat.top()
    # <(1 2 3)> without its square is not closed, so it is no entry.
    not_entry = 1 | 1 << g.index_of(parse_cycle_string("(1 2 3)", 4))
    with pytest.raises(PermlatError):
        lat.entry(not_entry)
    with pytest.raises(PermlatError):
        lat.index_of(Subgroup(g, not_entry))


def test_maximal_and_minimal_normal():
    g = s4()
    lat = enumerate_subgroups(g)
    mins = minimal_normal_subgroups(g)
    walked = minimal_normal_subgroups(s4())
    assert [m.members for m in mins] == [m.members for m in walked]
    assert len(mins) == 1
    assert mins[0].order == 4
    orders = sorted(m.order for m, f in zip(lat.subgroups, lat.maximal_flags) if f)
    assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


@pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)", "A6"])
def test_maximal_flags_match_pairwise_definition(name):
    lat = enumerate_subgroups(s4() if name == "S4" else builtin(name))
    subs = lat.subgroups
    top = len(subs) - 1
    want = [
        i != top
        and not any(
            j != i and j != top and s.members & ~subs[j].members == 0
            for j in range(len(subs))
        )
        for i, s in enumerate(subs)
    ]
    assert lat.maximal_flags == want
    assert any(want)


def test_lattice_cap():
    g = direct_product(s3(), s3())
    with pytest.raises(LatticeCapError):
        enumerate_subgroups(g, cap=30)


def test_socle():
    g = s4()
    lat = enumerate_subgroups(g)
    assert lat.socle().order == 4
    q = q8()
    assert enumerate_subgroups(q).socle().order == 2


def builtin(name):
    return dict(builtin_corpus())[name]


def symmetric(n):
    cycle = Perm.from_cycles(n, [tuple(range(1, n + 1))])
    return close_generators(n, [Perm.from_cycles(n, [(1, 2)]), cycle])


# Published subgroup and conjugacy-class counts (OEIS A005432 for S_n);
# S4 is pinned by test_s4_lattice_counts.
@pytest.mark.parametrize(
    "make, cap, subgroups, classes",
    [
        (lambda: builtin("A5"), 400, 59, 9),
        (lambda: symmetric(5), 400, 156, 19),
        (lambda: builtin("PSL(2,7)"), 400, 179, 15),
        (lambda: builtin("A6"), 400, 501, 22),
        (lambda: symmetric(6), 720, 1455, 56),
    ],
    ids=["A5", "S5", "PSL(2,7)", "A6", "S6"],
)
def test_published_lattice_counts(make, cap, subgroups, classes):
    lat = enumerate_subgroups(make(), cap=cap)
    assert len(lat) == subgroups
    assert len(lat.conjugacy_classes) == classes


@pytest.mark.parametrize("name", ["S4", "A5", "D8xC3", "G324"])
def test_classes_match_conjugation_partition(name):
    g = builtin(name)
    lat = enumerate_subgroups(g)
    sets = [bits_to_set(s.members) for s in lat.subgroups]
    assert lat.conjugacy_classes == conjugation_partition(g, sets)
    for cid, cls in enumerate(lat.conjugacy_classes):
        assert all(lat.class_of[i] == cid for i in cls)


# sha256 over (name, entry bitsets, conjugacy classes) of every lattice
# below: the builtin groups of order <= 400 in corpus order, then S5 and S6
# at cap 720. Any change to the enumeration's output changes it.
LATTICE_DIGEST = "982b1b54a54d1f90ea6cfa1cff3a1cad03c84bdd25b1b6578e84fac1d89e3912"


def test_lattice_digest_pin():
    cases = [(name, g, 400) for name, g in builtin_corpus() if g.order <= 400]
    cases += [("S5", symmetric(5), 720), ("S6", symmetric(6), 720)]
    assert len(cases) == 90
    digest = hashlib.sha256()
    for name, g, cap in cases:
        lat = enumerate_subgroups(g, cap=cap)
        entries = [s.members for s in lat.subgroups]
        digest.update(repr((name, entries, lat.conjugacy_classes)).encode())
    assert digest.hexdigest() == LATTICE_DIGEST


def s4_wr_c2():
    return wreath_regular(symmetric(4), 2)


# The same digest over two larger lattices: AGL(2,3) (646 subgroups in 46
# classes) and S4 wr C2 (4,586 subgroups in 221 classes).
LARGE_LATTICE_DIGEST = "6b7adcac48a408537786bf20e9c77917380ee0e2cb631f0ea9186a979fa2688b"


def test_large_lattice_digest_pin():
    cases = [("AGL(2,3)", agl23(), 432), ("S4wrC2", s4_wr_c2(), 1152)]
    digest = hashlib.sha256()
    for name, g, cap in cases:
        lat = enumerate_subgroups(g, cap=cap)
        entries = [s.members for s in lat.subgroups]
        digest.update(repr((name, entries, lat.conjugacy_classes)).encode())
    assert digest.hexdigest() == LARGE_LATTICE_DIGEST


builtin_and_agl23 = pytest.mark.parametrize(
    "make, cap",
    [
        (lambda: [g for _, g in builtin_corpus() if g.order <= 400], 400),
        (lambda: [agl23()], 432),
    ],
    ids=["builtin", "AGL(2,3)"],
)


@builtin_and_agl23
def test_normalizer_generators_close_to_the_normalizer(make, cap):
    """For the lowest entry H of every conjugacy class, |N_G(H)| is |G|
    over the class size."""
    for g in make():
        lat = enumerate_subgroups(g, cap=cap)
        for cls in lat.conjugacy_classes:
            assert normalizer(lat.subgroups[cls[0]]).order == g.order // len(cls)


def recorded_joins(monkeypatch, g, cap):
    """The lattice of g, and (H's bitset, new generator) for every join
    that its enumeration closes."""
    joins = []

    def recording(table, base_bits, base_gens, new_gens, *rest):
        joins.extend((base_bits, x) for x in new_gens)
        return _close_bits(table, base_bits, base_gens, new_gens, *rest)

    g.table()
    monkeypatch.setattr(lattice, "_close_bits", recording)
    lat = enumerate_subgroups(g, cap=cap)
    monkeypatch.undo()
    return lat, joins


@builtin_and_agl23
def test_joins_take_cyclic_subgroups_whose_pth_power_lies_in_h(monkeypatch, make, cap):
    """Every join <H, x> has x of order a power of a prime p, x outside H
    and x^p in H."""
    for g in make():
        _, joins = recorded_joins(monkeypatch, g, cap)
        t, orders = g.table(), g.element_orders()
        assert joins
        for hb, x in joins:
            (p,) = _factorize(orders[x])
            power = x
            for _ in range(p - 1):
                power = t[power][x]
            assert not (hb >> x) & 1
            assert (hb >> power) & 1


def test_s4_wr_c2_enumeration_closes_at_most_9600_joins(monkeypatch):
    """S4 wr C2's lattice takes 9,553 closures (10,174 when each
    representative joined one cyclic subgroup per orbit of its normalizer,
    that count including the closures that built the normalizers)."""
    lat, joins = recorded_joins(monkeypatch, s4_wr_c2(), 1152)
    assert len(lat) == 4586
    assert len(joins) <= 9600


def fresh_copy(g):
    """The same group with no table attached, so table() is computed."""
    return Group(g.degree, g.generators, g.elements)


@pytest.mark.parametrize(
    "make",
    [
        s4,
        lambda: builtin("A5"),
        lambda: builtin("PSL(2,7)"),
        lambda: builtin("A6"),
        lambda: direct_product(s3(), q8()),
    ],
    ids=["S4", "A5", "PSL(2,7)", "A6", "S3xQ8"],
)
def test_index_tables_match_perm_arithmetic(make):
    g = fresh_copy(make())
    els = g.elements
    assert g.table() == [[g.index_of(a * b) for b in els] for a in els]
    assert g.inverse_table() == [g.index_of(p.inverse()) for p in els]
    assert g.element_orders() == [p.order() for p in els]


def test_table_needs_generating_set():
    g = s3()
    short = Group(g.degree, g.generators[:1], g.elements)
    with pytest.raises(PermlatError):
        short.table()
