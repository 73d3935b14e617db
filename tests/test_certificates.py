"""Supersolvability answers checked against certificates, on permutation
image tuples alone: no lattice, no memo, no ``structure`` call and no
Cayley table in the checker. This is a certifying check (McConnell,
Mehlhorn, Näher and Schweitzer, Computer Science Review 5, 2011).

The certificate of G is the chief series 1 = N_0 < ... < N_r = G that
``structure.chief_series`` returns. The checker closes each term's
generators and compares the result with the term's element set, and
conjugates those generators by G's generators. If G is supersolvable,
every factor has prime order. If not, some factor H/K has an order that
is not prime, and H/K is a chief factor: for one x per G-class of
H \\ K, the normal closure of K and x is H. By Jordan-Hölder every chief
series of G then has a factor of that order.

The supplements T that ``has_supersolvable_supplement`` returns are
certified the same way, with HT = G counted on element sets. An answer
of None would need every T to be ruled out; the oracles of
``test_embedding.py`` check those on the small groups.
"""

from math import isqrt

from permlat.corpus import builtin_corpus
from permlat.embedding import has_supersolvable_supplement
from permlat.lattice import enumerate_subgroups
from permlat.structure import chief_series, is_supersolvable


def _mul(a, b):
    """a * b, left to right as ``Perm`` composes: x goes to b(a(x))."""
    return tuple(b[i - 1] for i in a)


def _conj(x, g):
    inv = [0] * len(g)
    for i, v in enumerate(g, 1):
        inv[v - 1] = i
    return _mul(_mul(tuple(inv), x), g)


def _close(gens, degree):
    identity = tuple(range(1, degree + 1))
    seen = {identity}
    queue = [identity]
    for x in queue:
        for g in gens:
            y = _mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _normal_closure(gens, ambient, degree):
    """The smallest subgroup that holds ``gens`` and that conjugation by
    each of ``ambient`` maps into itself."""
    gens = list(gens)
    while True:
        elems = _close(gens, degree)
        new = [c for x in gens for g in ambient if (c := _conj(x, g)) not in elems]
        if not new:
            return elems
        gens += dict.fromkeys(new)


def _classes(elems, ambient):
    """The orbits of ``elems`` under conjugation by ``ambient``."""
    todo = set(elems)
    while todo:
        orbit = [todo.pop()]
        for y in orbit:
            for g in ambient:
                z = _conj(y, g)
                if z in todo:
                    todo.remove(z)
                    orbit.append(z)
        yield orbit


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _certify(group, chain, supersolvable):
    """Check that ``chain``, a list of subgroups of ``group``, is a normal
    series from 1 to G whose factors prove ``supersolvable``."""
    degree = group.degree
    ambient = [p.images for p in group.generators]
    terms = []
    for n in chain:
        elems = frozenset(
            group.elements[i].images for i in range(group.order) if n.members >> i & 1
        )
        gens = [p.images for p in n.generators]
        assert _close(gens, degree) == elems
        assert all(_conj(x, g) in elems for x in gens for g in ambient)
        terms.append((elems, gens))
    assert len(terms[0][0]) == 1
    assert terms[-1][0] == _close(ambient, degree)
    assert all(k < h for (k, _), (h, _) in zip(terms, terms[1:]))
    factors = [len(h) // len(k) for (k, _), (h, _) in zip(terms, terms[1:])]
    if supersolvable:
        assert all(_is_prime(f) for f in factors), factors
        return
    i = next(i for i, f in enumerate(factors) if not _is_prime(f))
    (k, k_gens), (h, _) = terms[i], terms[i + 1]
    for orbit in _classes(h - k, ambient):
        assert _normal_closure(k_gens + [orbit[0]], ambient, degree) == h


def test_supersolvability_is_certified():
    answers = {}
    for name, g in builtin_corpus():
        answers[name] = is_supersolvable(g)
        _certify(g, chief_series(g).chain, answers[name])
    assert len(answers) == 89
    assert sum(answers.values()) == 81
    assert not answers["S4"] and answers["D8"]


def test_supersolvable_supplements_are_certified():
    certified = none = 0
    for _name, g in builtin_corpus():
        if g.order > 200:
            continue
        lat = enumerate_subgroups(g)
        elements = [p.images for p in g.elements]
        for h in lat.subgroups:
            t = has_supersolvable_supplement(lat, h)
            if t is None:
                none += 1
                continue
            hs = [elements[i] for i in range(g.order) if h.members >> i & 1]
            ts = [elements[i] for i in range(g.order) if t.members >> i & 1]
            assert len({_mul(a, b) for a in hs for b in ts}) == g.order
            own = t.as_group()
            _certify(own, chief_series(own).chain, True)
            certified += 1
    assert (certified, none) == (1081, 216)
