"""Subgroup embedding predicates on top of the lattice: s-permutability,
the s-permutable join H_sG, weak s-supplementation, weak s-permutability,
c-normality, supersolvable supplements, permutability, complements.

Existential searches scan lattice entries in canonical order, so the first
witness found is deterministic. Predicates and witnesses are memoized on
the lattice keyed by subgroup bitset.

The weak s-supplementation family (``sylow_family``, ``is_s_permutable``,
``h_sG``, ``supplements``, ``is_weakly_s_supplemented``) also evaluates in
a section K/N of the group, N normal in K, without building K/N: by the
correspondence theorem the subgroups of K/N are the entries X with
N <= X <= K, and every answer is read off the group's own lattice.

* The Sylow p-subgroups of K/N are the entries of order |N| times the
  p-part of |K:N|.
* T/N supplements H/N when |H||T| = |K||H meet T|; the trivial
  intersection is N.
* X/N is s-permutable when X permutes in G with every Sylow S of the
  section: (X/N)(S/N) is a subgroup exactly when XS is. A subgroup normal
  in G is normal in K, so the normality shortcut holds in every section.
* The join H_sG starts from N, and results are the preimages in G.

A section is passed as ``section=(K, N)``; the default is the whole group
(G, 1), whose memo keys and witnesses are those of the plain predicates.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import NotNormalError, PermlatError
from .groups import Subgroup, _close_bits, _conjugate_bits, _factorize
from .lattice import SubgroupLattice, is_subnormal, permutes
from .structure import _is_prime

# Not called here, as supplements are decided on the lattice;
# perfbench/test_perfbench.py checks that its tracer rebinds this name.
from .structure import is_supersolvable  # noqa: F401


class SupplementWitness(NamedTuple):
    """Certificate that a supplement T satisfies an embedding predicate.

    ``bound`` is the subgroup the intersection was compared against
    (H_sG for the weak supplement properties, the core for c-normality,
    the trivial subgroup for plain complements).
    """

    property: str
    T: Subgroup
    intersection: Subgroup
    bound: Subgroup

    def describe(self) -> str:
        return (
            f"{self.property} via T = {self.T.describe()}, "
            f"intersection order {self.intersection.order}, "
            f"bound order {self.bound.order}"
        )


def _memo(lat: SubgroupLattice, key, compute):
    store = lat._memo
    if key not in store:
        store[key] = compute()
    return store[key]


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
        t = lat.group.table()
        inv = lat.group.inverse_table()
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
        if not key:
            return [
                (p, lat.sylow(p)[1])
                for p in sorted(lat.group.prime_factorization)
            ]
        k, n, entries = _section(lat, key)
        out = []
        for p, a in sorted(_factorize(k.order // n.order).items()):
            target = n.order * p**a
            out.append((p, [e for e in entries if e.order == target]))
        return out

    return _memo(lat, ("sylow_family",) + key if key else "sylow_family", compute)


def is_s_permutable(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> bool:
    """Whether H permutes with every Sylow subgroup of the group (of the
    section: H/N with every Sylow S/N of K/N, decided as HS = SH in G)."""
    key = _section_key(lat, section)
    h = _resolve(lat, h, key)

    def compute():
        if lat.normal_flags[lat.index_of(h)]:
            return True
        for _p, conjugates in sylow_family(lat, section):
            for q in conjugates:
                if not permutes(h, q):
                    return False
        return True

    return _memo(lat, ("sperm", h.members) + key, compute)


def h_sG(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> Subgroup:
    """Join of all subgroups of H that are s-permutable in the group (in
    the section K/N: the preimage of the join of the s-permutable
    subgroups of H/N, a join that starts from N)."""
    key = _section_key(lat, section)
    h = _resolve(lat, h, key)

    def compute():
        if is_s_permutable(lat, h, section):
            return h
        t = lat.group.table()
        _k, n, entries = _section(lat, key)
        bits = n.members
        gens = n.generator_indices
        for e in entries:
            if e.members & ~h.members or e.members & ~bits == 0:
                continue
            if is_s_permutable(lat, e, section):
                bits = _close_bits(t, bits, gens, e.generator_indices)
                gens = gens + e.generator_indices
        return lat.entry(bits)

    return _memo(lat, ("hsg", h.members) + key, compute)


def supplements(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> list:
    """All T with H*T = G as a set, i.e. |H||T| = |G||H meet T| (in the
    section K/N: the T between N and K with |H||T| = |K||H meet T|)."""
    key = _section_key(lat, section)
    h = _resolve(lat, h, key)

    def compute():
        k, _n, entries = _section(lat, key)
        k_order = k.order
        out = []
        for e in entries:
            if e.order * h.order < k_order:
                continue
            inter = (e.members & h.members).bit_count()
            if e.order * h.order == k_order * inter:
                out.append(e)
        assert out and out[-1] is k, "the top itself must always supplement"
        return out

    return _memo(lat, ("supps", h.members) + key, compute)


def subnormal_in(lat: SubgroupLattice, h: Subgroup) -> bool:
    h = _resolve(lat, h)

    def compute():
        if lat.normal_flags[lat.index_of(h)]:
            return True
        return is_subnormal(h)

    return _memo(lat, ("subn", h.members), compute)


def _supplement_scan(lat, h, prop, require_subnormal, section=None):
    # In a section K/N the intersection contains N, and so does H_sG: an
    # intersection equal to N, the section's trivial one, always passes.
    hsg = None
    for t in supplements(lat, h, section):
        if require_subnormal and not subnormal_in(lat, t):
            continue
        inter = h.members & t.members
        if inter != 1 and hsg is None:
            hsg = h_sG(lat, h, section)
        if inter == 1 or inter & ~hsg.members == 0:
            if hsg is None:
                hsg = h_sG(lat, h, section)
            return True, SupplementWitness(prop, t, lat.entry(inter), hsg)
    return False, None


def is_weakly_s_supplemented(
    lat: SubgroupLattice, h: Subgroup, section: Optional[tuple] = None
) -> tuple[bool, Optional[SupplementWitness]]:
    """Whether some supplement T has H meet T inside h_sG(G, H); in the
    section K/N, whether H/N is weakly s-supplemented in K/N, with the
    witness's subgroups given as preimages."""
    key = _section_key(lat, section)
    h = _resolve(lat, h, key)
    return _memo(
        lat,
        ("wss", h.members) + key,
        lambda: _supplement_scan(lat, h, "weakly_s_supplemented", False, section),
    )


def is_weakly_s_permutable(
    lat: SubgroupLattice, h: Subgroup
) -> tuple[bool, Optional[SupplementWitness]]:
    """Same as weak s-supplementation but T must be subnormal."""
    h = _resolve(lat, h)
    return _memo(
        lat,
        ("wsp", h.members),
        lambda: _supplement_scan(lat, h, "weakly_s_permutable", True),
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
    h = _resolve(lat, h)

    def compute():
        for t in supplements(lat, h):
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
        return all(permutes(h, e) for e in lat.subgroups)

    return _memo(lat, ("perm", h.members), compute)
