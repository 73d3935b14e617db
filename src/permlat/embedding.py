"""Subgroup embedding predicates on top of the lattice: s-permutability,
the s-permutable join H_sG, weak s-supplementation, weak s-permutability,
c-normality, supersolvable supplements, permutability, complements.

Existential searches scan lattice entries in canonical order, so the first
witness found is deterministic. Predicates and witnesses are memoized on
the lattice keyed by subgroup bitset.

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

The weak supplement predicates return (ok, T): T, the first admissible
supplement in canonical order, is the certificate, since H meet T and
H_sG follow from H and T. The scan walks the section's entries once and
stops at T. An intersection equal to N lies in H_sG, so H_sG is computed
only when a supplement meets H in more than N.

A section is passed as ``section=(K, N)``; the default is the whole group
(G, 1), whose memo keys and answers are those of the plain predicates.
"""

from __future__ import annotations

from typing import Optional

from .errors import NotNormalError, PermlatError
from .groups import Subgroup, _conjugate_bits, _factorize, _memo
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


def _section(lat: SubgroupLattice, key: tuple) -> tuple:
    """(K, N, the entries X with N <= X <= K in canonical order)."""
    if not key:
        return lat.top(), lat.bottom(), lat.subgroups

    def compute():
        k_bits, n_bits = key
        k, n = lat.entry(k_bits), lat.entry(n_bits)
        # N normal in G (trivial N included) is normal in K.
        if not lat.is_normal(n):
            t, inv = lat.group.table(), lat.group.inverse_table()
            if any(_conjugate_bits(t, inv, n_bits, g) != n_bits for g in k.generator_indices):
                raise NotNormalError(f"{n.describe()} is not normal in {k.describe()}")
        entries = [
            e for e in lat.subgroups
            if e.members & ~k_bits == 0 and n_bits & ~e.members == 0
        ]
        return k, n, entries

    return _memo(lat, ("section",) + key, compute)


def _resolve(lat: SubgroupLattice, h: Subgroup, key: tuple = ()) -> Subgroup:
    h = lat.subgroups[lat.index_of(h)]
    if key and (key[1] & ~h.members or h.members & ~key[0]):
        raise PermlatError(f"{h.describe()} does not lie in the section")
    return h


def sylow_family(lat: SubgroupLattice, section: Optional[tuple] = None) -> list:
    """All Sylow subgroups of the group, or of the section K/N as their
    preimages: (p, list of conjugates) per prime."""
    key = _section_key(lat, section)

    def compute():
        k, n, entries = _section(lat, key)
        return [
            (p, [e for e in entries if e.order == n.order * p**a])
            for p, a in sorted(_factorize(k.order // n.order).items())
        ]

    return _memo(lat, ("sylow_family",) + key, compute)


def is_s_permutable(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> bool:
    """Whether H permutes with every Sylow subgroup of the group (of the
    section: H/N with every Sylow S/N of K/N, decided as HS = SH in G)."""
    key = _section_key(lat, section)
    h = _resolve(lat, h, key)

    def compute():
        if lat.is_normal(h):
            return True
        for _p, conjugates in sylow_family(lat, section):
            for q in conjugates:
                if lat.product(h, q) is None:
                    return False
        return True

    return _memo(lat, ("sperm", h.members) + key, compute)


def h_sG(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> Subgroup:
    """Join of all subgroups of H that are s-permutable in the group (in
    the section K/N: the preimage of the join of the s-permutable
    subgroups of H/N). By Kegel the join is itself s-permutable, so it is
    the first entry of the section, in reverse canonical order, that lies
    in H and is s-permutable; N/N always is."""
    key = _section_key(lat, section)
    h = _resolve(lat, h, key)

    def compute():
        _k, _n, entries = _section(lat, key)
        return next(
            e
            for e in reversed(entries)
            if e.members & ~h.members == 0 and is_s_permutable(lat, e, section)
        )

    return _memo(lat, ("hsg", h.members) + key, compute)


def subnormal_in(lat: SubgroupLattice, h: Subgroup) -> bool:
    h = _resolve(lat, h)

    def compute():
        return lat.is_normal(h) or is_subnormal(h)

    return _memo(lat, ("subn", h.members), compute)


def _supplement_scan(lat, h, require_subnormal, section=None):
    """(True, T) for the first entry T of the section, in canonical order,
    with |H||T| = |K||H meet T|, subnormal if required, and H meet T equal
    to N or inside H_sG; (False, None) if there is none. H_sG contains N,
    and is computed at most once, when a supplement first meets H in more
    than N."""
    k, n, entries = _section(lat, _section_key(lat, section))
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
        return True, t
    return False, None


def is_weakly_s_supplemented(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> tuple[bool, Optional[Subgroup]]:
    """(ok, T): whether some supplement T has H meet T inside h_sG(G, H),
    with the first such T, an entry of the lattice, or None. In the
    section K/N, whether H/N is weakly s-supplemented in K/N, with T/N the
    supplement, given as its preimage T."""
    key = _section_key(lat, section)
    h = _resolve(lat, h, key)
    return _memo(
        lat,
        ("wss", h.members) + key,
        lambda: _supplement_scan(lat, h, False, section),
    )


def is_weakly_s_permutable(
    lat: SubgroupLattice, h: Subgroup
) -> tuple[bool, Optional[Subgroup]]:
    """(ok, T) as for weak s-supplementation, but T must be subnormal."""
    h = _resolve(lat, h)
    return _memo(
        lat,
        ("wsp", h.members),
        lambda: _supplement_scan(lat, h, True),
    )


def core_of(lat: SubgroupLattice, h: Subgroup) -> Subgroup:
    """Largest normal subgroup inside H: intersection of H's conjugates."""
    h = _resolve(lat, h)

    def compute():
        bits = (1 << lat.group.order) - 1
        for i in lat.conjugacy_classes[lat.class_of[lat.index_of(h)]]:
            bits &= lat.subgroups[i].members
        return lat.entry(bits)

    return _memo(lat, ("core", h.members), compute)


def is_c_normal(lat: SubgroupLattice, h: Subgroup) -> bool:
    """Whether some normal T has HT = G and H meet T inside the core of H."""
    h = _resolve(lat, h)

    def compute():
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

    return _memo(lat, ("cnorm", h.members), compute)


def is_supersolvable_section(
    lat: SubgroupLattice, section: Optional[tuple] = None
) -> bool:
    """Whether the group, or the section K/N, is supersolvable: by Huppert
    (1954) iff every maximal subgroup has prime index, so iff every proper
    entry of the section lies in an entry of prime index in K."""
    key = _section_key(lat, section)

    def compute():
        k, _n, entries = _section(lat, key)
        prime = [e.members for e in entries if _is_prime(k.order // e.order)]
        return all(
            any(e.members & ~m == 0 for m in prime)
            for e in reversed(entries)
            if e.order < k.order
        )

    return _memo(lat, ("ssolv",) + key, compute)


def has_supersolvable_supplement(
    lat: SubgroupLattice, h: Subgroup
) -> tuple[bool, Optional[Subgroup]]:
    """The first T in canonical order with H*T = G, i.e.
    |H||T| = |G||H meet T|, that is supersolvable."""
    h = _resolve(lat, h)

    def compute():
        g_order, h_order, h_bits = lat.group.order, h.order, h.members
        for t in lat.subgroups:
            if t.order * h_order != g_order * (t.members & h_bits).bit_count():
                continue
            if is_supersolvable_section(lat, (t, lat.bottom())):
                return True, t
        return False, None

    return _memo(lat, ("sss", h.members), compute)


def is_complemented(lat: SubgroupLattice, h: Subgroup) -> bool:
    h = _resolve(lat, h)
    return bool(lat.complements(h))


def is_permutable(lat: SubgroupLattice, h: Subgroup) -> bool:
    """Whether H permutes with every subgroup of the group."""
    h = _resolve(lat, h)

    def compute():
        return all(lat.product(h, e) is not None for e in lat.subgroups)

    return _memo(lat, ("perm", h.members), compute)
