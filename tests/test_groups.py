import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permlat.groups
from permlat.errors import BadTableError, GroupOrderCapError, PermlatError
from permlat.corpus import builtin_corpus, builtin_group, example_pair
from permlat.groups import (
    CayleyTable,
    Subgroup,
    _close_bits,
    _extract_generators,
    _iter_bits,
    close_generators,
    direct_product,
    group_from_cayley,
    p_residual,
    wreath_regular,
)
from permlat.lattice import enumerate_subgroups
from permlat.perms import Perm, parse_cycle_string
from permlat.structure import _derived_bits, fingerprint, is_nilpotent

from oracles import (
    brute_is_associative,
    close_set,
    commutator_closure,
    compose,
    is_normal,
    naive_closure,
    naive_product_set,
    quotient,
    reduced_latin_squares,
    wreath_by_semidirect,
)


def gens(degree, *texts):
    return [parse_cycle_string(t, degree) for t in texts]


def test_close_generators_s4():
    g = close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))
    assert g.order == 24


def test_close_generators_empty():
    g = close_generators(3, [])
    assert g.order == 1


def test_close_generators_s5():
    g = close_generators(5, gens(5, "(1 2 3 4 5)", "(1 2)"))
    assert g.order == 120


def test_close_generators_cap():
    with pytest.raises(GroupOrderCapError):
        close_generators(5, gens(5, "(1 2 3 4 5)", "(1 2)"), cap=100)


def test_element_orders():
    g = close_generators(5, gens(5, "(1 2)(3 4)", "(1 2 3)(4 5)"))
    e = g.elements[0]
    assert e.order() == 1
    assert parse_cycle_string("(1 2)(3 4)", 5).order() == 2
    assert parse_cycle_string("(1 2 3)(4 5)", 5).order() == 6


def test_canonical_element_order():
    g = close_generators(3, gens(3, "(1 2)", "(1 2 3)"))
    images = [p.images for p in g.elements]
    assert images == sorted(images)
    assert g.elements[0] == Perm.identity(3)


def c_n(n):
    return close_generators(n, [Perm.from_cycles(n, [tuple(range(1, n + 1))])])


def test_direct_product_orders():
    g = direct_product(c_n(2), c_n(3))
    assert g.order == 6
    assert g.is_abelian()


def test_direct_product_d8_c3_nilpotent():
    d8 = close_generators(4, gens(4, "(1 2 3 4)", "(1 3)"))
    assert d8.order == 8
    g = direct_product(d8, c_n(3))
    assert g.order == 24
    assert is_nilpotent(g)


def test_direct_product_with_trivial():
    s3 = close_generators(3, gens(3, "(1 2)", "(1 2 3)"))
    g = direct_product(s3, close_generators(1, []))
    assert g.order == 6
    assert sorted(p.order() for p in g.elements) == sorted(
        p.order() for p in s3.elements
    )


@pytest.mark.parametrize(
    "build",
    [
        # direct products: the table is supplied at construction
        lambda: builtin_group("C2xQ8"),
        lambda: builtin_group("S3xS3"),
        # closed from generators: the table is built on first use
        lambda: builtin_group("C3:C4"),
        lambda: group_from_cayley(CayleyTable(builtin_group("S4").table())),
    ],
    ids=["C2xQ8", "S3xS3", "C3:C4", "regular S4"],
)
def test_release_caches_rebuilds_a_supplied_table(build):
    """A direct product's table, given at construction, is dropped by
    release_caches and rebuilt from the generators, like the table of a
    group closed from its generators (C3:C4, a regular representation):
    the table, inverses and element orders come back equal."""
    g = build()
    before = (g.table(), g.inverse_table(), g.element_orders())
    g.release_caches()
    assert g._table is None and g._inv is None and g._orders is None
    assert not g._memo
    after = (g.table(), g.inverse_table(), g.element_orders())
    assert after == before
    assert after[0] is not before[0]


def test_wreath_orders():
    s3 = close_generators(3, gens(3, "(1 2)", "(1 2 3)"))
    assert wreath_regular(s3, 3, cap=1000).order == 648
    w = wreath_regular(c_n(2), 2)
    assert w.order == 8
    d8 = close_generators(4, gens(4, "(1 2 3 4)", "(1 3)"))
    assert fingerprint(w) == fingerprint(d8)


def test_wreath_degree_one():
    a4 = close_generators(4, gens(4, "(1 2 3)", "(2 3 4)"))
    assert fingerprint(wreath_regular(a4, 1)) == fingerprint(a4)


@pytest.fixture(scope="module")
def s3_wreath_pair():
    s3 = close_generators(3, gens(3, "(1 2 3)", "(1 2)"))
    return wreath_regular(s3, 3), wreath_by_semidirect(s3, 3)


def test_wreath_acts_on_blocks(s3_wreath_pair):
    w, regular = s3_wreath_pair
    assert (w.degree, w.order) == (9, 648)
    assert (regular.degree, regular.order) == (648, 648)
    assert fingerprint(w) == fingerprint(regular)


def test_wreath_two_residual_matches_regular_construction(s3_wreath_pair):
    residuals = [p_residual(g, 2).as_group() for g in s3_wreath_pair]
    assert [g.order for g in residuals] == [324, 324]
    assert fingerprint(residuals[0]) == fingerprint(residuals[1])
    assert [len(enumerate_subgroups(g).subgroups) for g in residuals] == [340, 340]


def test_g324_is_closed_from_the_residual_generators():
    b, g = example_pair()
    residual = p_residual(b, 2)
    assert g.generators == residual.generators
    assert {p.images for p in g.elements} == {
        b.elements[i].images for i in residual.element_indices()
    }


def test_wreath_cap_checked_before_closure(monkeypatch):
    s3 = close_generators(3, gens(3, "(1 2 3)", "(1 2)"))

    def no_closure(*args, **kwargs):
        raise AssertionError("closure started")

    monkeypatch.setattr(permlat.groups, "close_generators", no_closure)
    with pytest.raises(GroupOrderCapError):
        wreath_regular(s3, 3, cap=100)


def test_quotient_s4_by_v4():
    s4 = close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))
    v4 = s4.subgroup_generated_by(gens(4, "(1 2)(3 4)", "(1 3)(2 4)"))
    q = quotient(s4, v4)
    assert q.group.order == 6
    assert not q.group.is_abelian()
    s3 = close_generators(3, gens(3, "(1 2)", "(1 2 3)"))
    assert fingerprint(q.group) == fingerprint(s3)
    # projection is a homomorphism onto the quotient
    t = s4.table()
    qt = q.group.table()
    for a in range(24):
        for b in range(24):
            assert q.projection[t[a][b]] == qt[q.projection[a]][q.projection[b]]


def test_quotient_degenerate_cases():
    s4 = close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))
    assert quotient(s4, s4.full_subgroup()).group.order == 1
    assert quotient(s4, s4.trivial_subgroup()).group.order == 24


def test_p_residual_s4():
    s4 = close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))
    r = p_residual(s4, 2)
    assert r.order == 12
    assert is_normal(r)
    # A4 is the unique order-12 subgroup: all even permutations
    assert all(parity_even(s4.elements[i]) for i in r.element_indices())


def parity_even(p):
    flips = sum(1 for c in p.cycles() for _ in range(len(c) - 1))
    return flips % 2 == 0


def test_p_residual_of_p_group():
    d8 = close_generators(4, gens(4, "(1 2 3 4)", "(1 3)"))
    assert p_residual(d8, 2).order == 1


def test_p_residual_minimality():
    # normal, p-power index, inside every normal subgroup of p-power index
    for g in (
        close_generators(4, gens(4, "(1 2)", "(1 2 3 4)")),
        close_generators(3, gens(3, "(1 2)", "(1 2 3)")),
        direct_product(c_n(6), c_n(2)),
    ):
        for p in g.prime_factorization:
            r = p_residual(g, p)
            assert is_normal(r)
            index = g.order // r.order
            while index % p == 0:
                index //= p
            assert index == 1
            for sub in all_normal_index_p_power(g, p):
                assert r.members & ~sub == 0


def all_normal_index_p_power(g, p):
    from oracles import brute_normal_subgroups

    out = []
    for s in brute_normal_subgroups(g):
        index = g.order // len(s)
        while index % p == 0:
            index //= p
        if index == 1:
            bits = 0
            for i in s:
                bits |= 1 << i
            out.append(bits)
    return out


def test_cayley_table_rejects_non_group():
    with pytest.raises(BadTableError):
        CayleyTable([[0, 1], [1, 1]])
    with pytest.raises(BadTableError):
        CayleyTable([[1, 0], [0, 1], [0, 1]])


def test_cayley_table_matches_associativity_oracle_on_order_5_loops():
    loops = reduced_latin_squares(5)
    assert len(loops) == 56
    accepted = []
    for t in loops:
        try:
            CayleyTable(t)
        except BadTableError:
            accepted.append(False)
        else:
            accepted.append(True)
    assert accepted == [brute_is_associative(t) for t in loops]
    assert accepted.count(True) == 6  # Z5 up to relabelling its 4 generators


@pytest.mark.parametrize("a,b", [(1, 1), (123, 321), (399, 7)])
def test_cayley_table_rejects_order_800_loop(a, b):
    n, half = 800, 400
    t = [[(x + y) % n for y in range(n)] for x in range(n)]
    for r in (a, a + half):
        t[r][b], t[r][b + half] = t[r][b + half], t[r][b]
    with pytest.raises(BadTableError, match="associativity"):
        CayleyTable(t)


def test_group_from_cayley_closes_the_given_generators():
    s4 = builtin_group("S4")
    cay = CayleyTable(s4.table())
    a4 = [i for i in range(s4.order) if s4.elements[i].order() == 3]
    with pytest.raises(PermlatError, match="order 12, not 24"):
        group_from_cayley(cay, generator_indices=a4)
    with pytest.raises(PermlatError, match="order 1, not 24"):
        group_from_cayley(cay, generator_indices=[0])
    regular = group_from_cayley(cay, generator_indices=s4.generator_indices())
    assert regular.order == 24 and regular.degree == 24
    # With no indices, the generators are those CayleyTable.validate checks.
    default = group_from_cayley(cay)
    assert default.elements == regular.elements
    assert default.generators == tuple(
        Perm(tuple(row[g] + 1 for row in cay.table))
        for g in permlat.groups._right_generators(cay.table, 0)
    )


def test_cayley_table_accepts_order_648_semidirect(s3_wreath_pair):
    _, regular = s3_wreath_pair
    CayleyTable(regular.table())


def test_conjugacy_classes_partition():
    s4 = close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))
    classes, class_of = s4.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sorted(i for c in classes for i in c) == list(range(24))
    for c in classes:
        assert len({class_of[i] for i in c}) == 1


def test_derived_subgroup_matches_commutator_oracle():
    for g in (
        close_generators(3, gens(3, "(1 2)", "(1 2 3)")),
        close_generators(4, gens(4, "(1 2)", "(1 2 3 4)")),
        close_generators(4, gens(4, "(1 2 3 4)", "(1 3)")),
        direct_product(c_n(4), c_n(2)),
    ):
        bits, _ = _derived_bits(g, g.generator_indices())
        want = commutator_closure(g)
        assert {i for i in range(g.order) if (bits >> i) & 1} == want


def test_subgroup_is_abelian_matches_trivial_derived_subgroup():
    """Pairwise commuting generators on the parent's table, against a
    trivial derived subgroup, on every lattice entry of the builtin
    groups of order <= 100."""
    checked = abelian = 0
    for _name, g in builtin_corpus():
        if g.order > 100:
            continue
        for h in enumerate_subgroups(g).subgroups:
            want = _derived_bits(g, h.generator_indices)[0] == 1
            assert h.is_abelian() == want, (g, h)
            checked += 1
            abelian += want
    assert checked > 1000
    assert 0 < abelian < checked


def test_naive_closure_agrees_with_library_closure():
    s4 = close_generators(4, gens(4, "(1 2)", "(1 2 3 4)"))
    t = s4.table()
    a = s4.index_of(parse_cycle_string("(1 2)", 4))
    b = s4.index_of(parse_cycle_string("(1 3 4)", 4))
    assert len(close_set(t, [a, b])) == 24
    sub = s4.subgroup_generated_by(gens(4, "(1 2)", "(1 3 4)"))
    assert sub.order == 24


def _oracle_join_bits(t, h, c):
    return sum(1 << i for i in close_set(t, list(_iter_bits(h.members | c.members))))


def test_close_bits_matches_oracle_on_a6_joins():
    """Each class representative of A6 joined with a cyclic subgroup of
    order 3 and one of order 5: joins the oracle closes past |G|/2 are
    the full mask, and smaller ones are the oracle's closure."""
    g = builtin_group("A6")
    lat = enumerate_subgroups(g)
    t = g.table()
    full = (1 << g.order) - 1
    cyclics = [
        next(s for s in lat.subgroups if s.order == n and s.is_cyclic()) for n in (3, 5)
    ]
    seen_full = seen_proper = 0
    for cls in lat.conjugacy_classes:
        h = lat.subgroups[cls[0]]
        for c in cyclics:
            got = _close_bits(t, h.members, h.generator_indices, c.generator_indices)
            want = _oracle_join_bits(t, h, c)
            assert got == want
            if want.bit_count() * 2 > g.order:
                assert got == full
                seen_full += 1
            else:
                seen_proper += 1
    assert seen_full and seen_proper


def test_close_bits_stops_short_of_index_two():
    """A join of exactly |G|/2 elements is not mistaken for G: two
    3-cycles of S5 generate A5."""
    g = close_generators(5, gens(5, "(1 2)", "(1 2 3 4 5)"))
    t = g.table()
    h = g.subgroup_generated_by(gens(5, "(1 2 3)"))
    c = g.subgroup_generated_by(gens(5, "(3 4 5)"))
    got = _close_bits(t, h.members, h.generator_indices, c.generator_indices)
    assert got.bit_count() == 60
    assert got == _oracle_join_bits(t, h, c)


def test_product_set_sizes():
    s3 = close_generators(3, gens(3, "(1 2)", "(1 2 3)"))
    h = {0, s3.index_of(parse_cycle_string("(1 2)", 3))}
    k = {0, s3.index_of(parse_cycle_string("(1 3)", 3))}
    assert len(naive_product_set(s3, h, k)) == 4
    a3 = {0} | {
        s3.index_of(parse_cycle_string(c, 3)) for c in ["(1 2 3)", "(1 3 2)"]
    }
    assert len(naive_product_set(s3, h, a3)) == 6


def test_subgroup_generators_are_the_greedy_tuple_on_first_read():
    """An entry built from its bitset alone gets ``_extract_generators``'s
    tuple when its generators are first read, so witness strings are the
    same as when the tuple was built with the entry."""
    for name in ("S4", "A5"):
        g = builtin_group(name)
        t = g.table()
        for sub in enumerate_subgroups(g).subgroups:
            assert sub.generator_indices == _extract_generators(t, sub.members)
            assert sub.generator_indices is sub.generator_indices
    assert g.generator_indices() is g.generator_indices()


def test_unclosed_bitset_raises_on_first_generator_read():
    """{1, (1 2 3)} passes the order check in S4 but is not a subgroup:
    construction accepts it and the first generator read raises."""
    g = builtin_group("S4")
    bits = 1 | 1 << g.index_of(parse_cycle_string("(1 2 3)", 4))
    sub = Subgroup(g, bits)
    with pytest.raises(PermlatError, match="not closed"):
        sub.generator_indices


# -- gathers against the definition of composition --------------------------


@st.composite
def _generator_sets(draw, max_degree=6):
    degree = draw(st.integers(1, max_degree))
    perm = st.permutations(range(1, degree + 1)).map(tuple)
    return degree, draw(st.lists(perm, max_size=3))


def _check_table(group, data):
    """Every product of the table, up to order 120, and 300 drawn ones
    above it, against ``compose`` of the element images."""
    images = [p.images for p in group.elements]
    index = {im: i for i, im in enumerate(images)}
    n = group.order
    if n <= 120:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        ix = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(ix, ix), min_size=300, max_size=300))
    t = group.table()
    for i, j in pairs:
        assert t[i][j] == index[compose(images[i], images[j])]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_generator_sets(), st.data())
def test_closure_and_table_match_compose(case, data):
    degree, images = case
    perms = [Perm(im) for im in images]
    for a in perms:
        for b in perms:
            assert (a * b).images == compose(a.images, b.images)
    group = close_generators(degree, perms)
    assert [p.images for p in group.elements] == naive_closure(degree, images)
    _check_table(group, data)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_generator_sets(max_degree=4), _generator_sets(max_degree=4), st.data())
def test_direct_product_matches_compose(case_a, case_b, data):
    (da, gens_a), (db, gens_b) = case_a, case_b
    a = close_generators(da, [Perm(im) for im in gens_a])
    b = close_generators(db, [Perm(im) for im in gens_b])
    prod = direct_product(a, b)
    ident_a = tuple(range(1, da + 1))
    ident_b = tuple(range(da + 1, da + db + 1))
    product_gens = [im + ident_b for im in gens_a]
    product_gens += [ident_a + tuple(x + da for x in im) for im in gens_b]
    assert [p.images for p in prod.elements] == naive_closure(da + db, product_gens)
    _check_table(prod, data)
