import pytest

from permlat.errors import DegreeMismatchError, InvalidPermutationError
from permlat.perms import Perm, parse_cycle_string


def test_identity():
    e = Perm.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.order() == 1
    assert e.cycle_notation() == "()"


def test_from_cycles_basic():
    p = Perm.from_cycles(3, [(1, 2)])
    assert p.images == (2, 1, 3)
    q = Perm.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert q.images[5 - 1] == 1


def test_compose_left_to_right():
    # apply p first, then q: (1 2) followed by (2 3) sends 1 to 3
    p = Perm.from_cycles(3, [(1, 2)])
    q = Perm.from_cycles(3, [(2, 3)])
    r = p * q
    assert r == Perm.from_cycles(3, [(1, 3, 2)])
    assert r.images == (3, 1, 2)


def test_involution_squares_to_identity():
    p = Perm.from_cycles(4, [(1, 2)])
    assert p * p == Perm.identity(4)


def test_identity_laws():
    p = Perm.from_cycles(4, [(1, 2, 3)])
    e = Perm.identity(4)
    assert p * e == p
    assert e * p == p


def test_inverse():
    p = Perm.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert p * p.inverse() == Perm.identity(5)
    assert p.inverse() * p == Perm.identity(5)


def test_order():
    assert Perm.identity(3).order() == 1
    assert Perm.from_cycles(4, [(1, 2), (3, 4)]).order() == 2
    assert Perm.from_cycles(5, [(1, 2, 3), (4, 5)]).order() == 6


def test_cycles_roundtrip():
    p = Perm.from_cycles(6, [(1, 4, 2), (5, 6)])
    assert Perm.from_cycles(6, p.cycles()) == p
    assert p.cycle_notation() == "(1 4 2)(5 6)"


def test_degree_mismatch():
    p = Perm.from_cycles(3, [(1, 2)])
    q = Perm.from_cycles(4, [(1, 2)])
    with pytest.raises(DegreeMismatchError):
        p * q


def test_from_cycles_rejects_bad_points():
    with pytest.raises(InvalidPermutationError):
        Perm.from_cycles(3, [(1, 4)])
    with pytest.raises(InvalidPermutationError):
        Perm.from_cycles(3, [(1, 1)])


def test_from_cycles_overlapping_cycles_compose():
    # non-disjoint cycles are applied left to right, like *
    p = Perm.from_cycles(4, [(1, 2), (2, 3)])
    q = Perm.from_cycles(4, [(1, 2)]) * Perm.from_cycles(4, [(2, 3)])
    assert p == q


def test_parse_cycle_string():
    p = parse_cycle_string("(1 2 3)(4 5)", 5)
    assert p == Perm.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert parse_cycle_string("(1,2,3)", 3) == Perm.from_cycles(3, [(1, 2, 3)])


@pytest.mark.parametrize("text", ["()", "", "e", "id"])
def test_parse_identity_forms(text):
    assert parse_cycle_string(text, 4) == Perm.identity(4)


def test_parse_errors():
    with pytest.raises(InvalidPermutationError):
        parse_cycle_string("(1 2", 4)
    with pytest.raises(InvalidPermutationError):
        parse_cycle_string("(1 9)", 4)
    with pytest.raises(InvalidPermutationError):
        parse_cycle_string("(1 2)x", 4)


def test_lex_order_on_images():
    a = Perm.from_cycles(3, [(1, 2)])
    b = Perm.from_cycles(3, [(1, 2, 3)])
    assert (a < b) == (a.images < b.images)
    assert sorted([b, a, Perm.identity(3)])[0] == Perm.identity(3)
