"""Subgroup embedding predicates on top of the lattice: s-permutability,
the s-permutable join H_sG, weak s-supplementation, weak s-permutability,
c-normality, supersolvable supplements, permutability, complements.

Existential searches scan lattice entries in canonical order, so the first
witness found is deterministic. Predicates and witnesses are memoized on
the lattice by ``_per_section`` and ``_per_subgroup``, under the
function's name, H's bitset and the section's bitsets.

The weak s-supplementation family (``sylow_family``, ``is_s_permutable``,
``h_sG``, ``is_weakly_s_supplemented``) also evaluates in a section K/N of
the group, N normal in K, without building K/N: by the correspondence
theorem the subgroups of K/N are the entries X with N <= X <= K, and
every answer is read off the group's own lattice.

* The Sylow p-subgroups of K/N are the entries of order |N| times the
  p-part of |K:N|.
* T/N supplements H/N when |H||T| = |K||H meet T|; the trivial
  intersection is N.
* X/N is s-permutable when X permutes in G with every Sylow S of the
  section: (X/N)(S/N) is a subgroup exactly when XS is, which the
  lattice answers. A subgroup normal in G is normal in K, so the
  normality shortcut holds in every section.
* By Kegel (1962) the s-permutable subgroups of a group form a
  sublattice, so H_sG, their join inside H, is the largest of them inside
  H; in a section it contains N. Results are the preimages in G.

The weak supplement predicates answer with T, the first admissible
supplement in canonical order, as a lattice entry, or None when there is
none. T is the certificate, since H meet T and H_sG follow from H and T.
The scan walks the section's entries once and stops at T. An
intersection equal to N lies in H_sG, so H_sG is computed only when a
supplement meets H in more than N.

A section is passed as ``section=(K, N)``; the default is the whole group
(G, 1), whose memo keys and answers are those of the plain predicates.
"""

from __future__ import annotations

import functools
from typing import Optional

from .errors import NotNormalError, PermlatError
from .groups import Subgroup, _conjugate_bits, _factorize
from .lattice import SubgroupLattice, is_subnormal
from .structure import _is_prime

# Not called here, as supersolvability is decided on the lattice;
# perfbench/test_perfbench.py checks that its tracer rebinds this name.
from .structure import is_supersolvable  # noqa: F401


def _section_key(lat: SubgroupLattice, section: Optional[tuple]) -> tuple:
    """Memo-key suffix of a section: empty for the whole group (G, 1),
    else the bitsets of K and N."""
    if section is None:
        return ()
    k, n = section
    if n.order == 1 and k.order == lat.group.order:
        return ()
    if n.members & ~k.members:
        raise PermlatError("section bottom is not inside its top")
    return (k.members, n.members)


def _per_section(fn):
    """Memoize ``fn(lat, section=None)`` on the lattice per section. The
    whole group, however given, reaches ``fn`` as None."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(lat, section=None):
        skey = _section_key(lat, section)
        key = (name, *skey)
        store = lat._memo
        if key not in store:
            store[key] = fn(lat, section if skey else None)
        return store[key]

    return wrapper


def _per_subgroup(fn):
    """Memoize ``fn(lat, h, section=None)`` on the lattice per H and
    section. ``fn`` gets H's lattice entry, and a section only when it is
    not the whole group; an H outside the lattice or the section raises
    PermlatError."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(lat, h, section=None):
        skey = _section_key(lat, section)
        key = (name, h.members, *skey)
        store = lat._memo
        if key not in store:
            h = lat.entry(h.members)
            if skey and (skey[1] & ~h.members or h.members & ~skey[0]):
                raise PermlatError(f"{h.describe()} does not lie in the section")
            store[key] = fn(lat, h, section) if skey else fn(lat, h)
        return store[key]

    return wrapper


@_per_section
def _section(lat: SubgroupLattice, section: Optional[tuple] = None) -> tuple:
    """(K, N, the entries X with N <= X <= K in canonical order)."""
    if section is None:
        return lat.top(), lat.bottom(), lat.subgroups
    k, n = lat.entry(section[0].members), lat.entry(section[1].members)
    k_bits, n_bits = k.members, n.members
    # N normal in G (trivial N included) is normal in K.
    if not lat.is_normal(n):
        t, inv = lat.group.table(), lat.group.inverse_table()
        if any(_conjugate_bits(t, inv, n_bits, g) != n_bits for g in k.generator_indices):
            raise NotNormalError(f"{n.describe()} is not normal in {k.describe()}")
    return k, n, [e for e in lat.within(k_bits) if n_bits & ~e.members == 0]


@_per_section
def sylow_family(lat: SubgroupLattice, section: Optional[tuple] = None) -> list:
    """All Sylow subgroups of the group, or of the section K/N as their
    preimages: (p, list of conjugates) per prime."""
    k, n, entries = _section(lat, section)
    return [
        (p, [e for e in entries if e.order == n.order * p**a])
        for p, a in sorted(_factorize(k.order // n.order).items())
    ]


@_per_subgroup
def is_s_permutable(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> bool:
    """Whether H permutes with every Sylow subgroup of the group (of the
    section: H/N with every Sylow S/N of K/N, decided as HS = SH in G)."""
    if lat.is_normal(h):
        return True
    for _p, conjugates in sylow_family(lat, section):
        for q in conjugates:
            if lat.product(h, q) is None:
                return False
    return True


@_per_subgroup
def h_sG(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> Subgroup:
    """Join of all subgroups of H that are s-permutable in the group (in
    the section K/N: the preimage of the join of the s-permutable
    subgroups of H/N). By Kegel the join is itself s-permutable, so it is
    the first entry of the section, in reverse canonical order, that lies
    in H and is s-permutable; N/N always is."""
    _k, _n, entries = _section(lat, section)
    return next(
        e
        for e in reversed(entries)
        if e.members & ~h.members == 0 and is_s_permutable(lat, e, section)
    )


@_per_subgroup
def subnormal_in(lat: SubgroupLattice, h: Subgroup) -> bool:
    return lat.is_normal(h) or is_subnormal(h)


def _supplement_scan(lat, h, require_subnormal, section=None):
    """The first entry T of the section, in canonical order, with
    |H||T| = |K||H meet T|, subnormal if required, and H meet T equal to N
    or inside H_sG; None if there is none. H_sG contains N,
    and is computed at most once, when a supplement first meets H in more
    than N."""
    k, n, entries = _section(lat, section)
    k_order, h_order, h_bits, n_bits = k.order, h.order, h.members, n.members
    hsg = None
    for t in entries:
        if t.order * h_order < k_order:
            continue
        inter = t.members & h_bits
        if t.order * h_order != k_order * inter.bit_count():
            continue
        if require_subnormal and not subnormal_in(lat, t):
            continue
        if inter != n_bits:
            if hsg is None:
                hsg = h_sG(lat, h, section).members
            if inter & ~hsg:
                continue
        return t
    return None


@_per_subgroup
def is_weakly_s_supplemented(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> Optional[Subgroup]:
    """The first supplement T, a lattice entry, with H meet T inside
    h_sG(G, H), or None if H is not weakly s-supplemented. In the section
    K/N: the preimage T of the first such supplement T/N of H/N in K/N."""
    return _supplement_scan(lat, h, False, section)


@_per_subgroup
def is_weakly_s_permutable(
    lat: SubgroupLattice, h: Subgroup
) -> Optional[Subgroup]:
    """T or None as for weak s-supplementation, but T must be subnormal."""
    return _supplement_scan(lat, h, True)


@_per_subgroup
def core_of(lat: SubgroupLattice, h: Subgroup) -> Subgroup:
    """Largest normal subgroup inside H: intersection of H's conjugates."""
    cls = lat.conjugacy_classes[lat.class_of[lat.index_of(h)]]
    return lat.meet(lat.subgroups[i] for i in cls)


@_per_subgroup
def is_c_normal(lat: SubgroupLattice, h: Subgroup) -> bool:
    """Whether some normal T has HT = G and H meet T inside the core of H."""
    g_order = lat.group.order
    bound = core_of(lat, h).members
    for t in lat.normal_subgroups():
        if t.order * h.order < g_order:
            continue
        inter = h.members & t.members
        if t.order * h.order != g_order * inter.bit_count():
            continue
        if inter & ~bound == 0:
            return True
    return False


@_per_section
def is_supersolvable_section(
    lat: SubgroupLattice, section: Optional[tuple] = None
) -> bool:
    """Whether the group, or the section K/N, is supersolvable: by Huppert
    (1954) iff every maximal subgroup has prime index, so iff every proper
    entry of the section lies in an entry of prime index in K."""
    k, _n, entries = _section(lat, section)
    prime = [e.members for e in entries if _is_prime(k.order // e.order)]
    return all(
        any(e.members & ~m == 0 for m in prime)
        for e in reversed(entries)
        if e.order < k.order
    )


@_per_subgroup
def has_supersolvable_supplement(
    lat: SubgroupLattice, h: Subgroup
) -> Optional[Subgroup]:
    """The first entry T in canonical order with H*T = G, i.e.
    |H||T| = |G||H meet T|, that is supersolvable; None if there is none."""
    g_order, h_order, h_bits = lat.group.order, h.order, h.members
    for t in lat.subgroups:
        if t.order * h_order != g_order * (t.members & h_bits).bit_count():
            continue
        if is_supersolvable_section(lat, (t, lat.bottom())):
            return t
    return None


def is_complemented(lat: SubgroupLattice, h: Subgroup) -> bool:
    return bool(lat.complements(lat.entry(h.members)))


@_per_subgroup
def is_permutable(lat: SubgroupLattice, h: Subgroup) -> bool:
    """Whether H permutes with every subgroup of the group."""
    return all(lat.product(h, e) is not None for e in lat.subgroups)
