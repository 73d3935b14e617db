"""Structural series and predicates: solvability, nilpotency,
supersolvability, chief series, cores, hypercenters, p-group operators,
Sylow towers, and invariant fingerprints.

Everything works on Group objects and element-index bitsets, without a
subgroup lattice, so these functions stay usable on quotients produced
mid-computation. Results are memoized on the group object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import NotPGroupError, PermlatError
from .groups import Group, Subgroup, _close_bits, quotient
from .lattice import _normal_closure_bits


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _prime_power_base(n: int) -> Optional[int]:
    """The prime p with n = p^a (a >= 1), or None."""
    if n < 2:
        return None
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d if _is_p_power(n, d) else None
        d += 1
    return n


def iota(m: int, p: int) -> int:
    """The exponent a with m = p^a. Errors unless m is a power of p."""
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    if m != 1:
        raise PermlatError(f"{m * p**a} is not a power of {p}")
    return a


def _p_of(group: Group) -> int:
    pf = group.prime_factorization
    if len(pf) != 1:
        raise NotPGroupError(f"group of order {group.order} is not a p-group")
    return next(iter(pf))


def iota_group(p_group: Group) -> int:
    return iota(p_group.order, _p_of(p_group))


def _memo(group: Group, key, compute):
    store = group._memo
    if key not in store:
        store[key] = compute()
    return store[key]


# -- derived series, center ---------------------------------------------


def _commutator_indices(t, inv, gens) -> list[int]:
    out = set()
    for x in gens:
        for y in gens:
            c = t[t[t[inv[x]][inv[y]]][x]][y]
            if c:
                out.add(c)
    return sorted(out)


def _derived_bits(group: Group, gens) -> tuple[int, tuple[int, ...]]:
    """Derived subgroup of <gens>: normal closure (in <gens>) of the
    generator commutators."""
    t = group.table()
    inv = group.inverse_table()
    bits = 1
    cgens: list[int] = []
    for c in _commutator_indices(t, inv, gens):
        if not (bits >> c) & 1:
            bits = _close_bits(t, bits, tuple(cgens), (c,))
            cgens.append(c)
    return _normal_closure_bits(group, gens, bits, tuple(cgens))


def derived_subgroup(group: Group) -> Subgroup:
    def compute():
        bits, gens = _derived_bits(group, group.generator_indices())
        return Subgroup(group, bits, gens)

    return _memo(group, "derived", compute)


def derived_series(group: Group) -> list[Subgroup]:
    """G >= G' >= G'' >= ... down to the stable term."""

    def compute():
        series = [group.full_subgroup()]
        gens = group.generator_indices()
        bits = (1 << group.order) - 1
        while True:
            nbits, ngens = _derived_bits(group, gens)
            if nbits == bits:
                break
            series.append(Subgroup(group, nbits, ngens))
            bits, gens = nbits, ngens
        return series

    return _memo(group, "derived_series", compute)


def is_solvable(group: Group) -> bool:
    return _memo(group, "solvable", lambda: derived_series(group)[-1].order == 1)


def center(group: Group) -> Subgroup:
    def compute():
        t = group.table()
        gens = group.generator_indices()
        bits = 0
        for x in range(group.order):
            if all(t[x][g] == t[g][x] for g in gens):
                bits |= 1 << x
        return Subgroup(group, bits)

    return _memo(group, "center", compute)


def _quotient_tower(group: Group, step):
    """Walk down G -> G/N1 -> G/N2 -> ..., where ``step(Q)`` names the
    next normal subgroup of the current quotient Q (None or the trivial
    subgroup to stop). Yields each such subgroup with the bits of its
    preimage in G; stops once the quotient is trivial."""
    cur = group
    proj = list(range(group.order))
    while cur.order > 1:
        n = step(cur)
        if n is None or n.order == 1:
            return
        bits = 0
        for i, j in enumerate(proj):
            if (n.members >> j) & 1:
                bits |= 1 << i
        yield n, bits
        if n.order == cur.order:
            return
        qr = quotient(cur, n)
        proj = [qr.projection[j] for j in proj]
        cur = qr.group


def hypercenter(group: Group) -> Subgroup:
    """Fixed point of iterated center pullbacks (the ordinary Z-infinity)."""

    def compute():
        z_bits = 1  # the last preimage the tower yields
        for _, z_bits in _quotient_tower(group, center):
            pass
        return Subgroup(group, z_bits)

    return _memo(group, "hypercenter", compute)


# -- nilpotency, Sylow towers --------------------------------------------


def _p_element_bits(group: Group, p: int) -> int:
    orders = group.element_orders()
    bits = 0
    for i in range(group.order):
        if _is_p_power(orders[i], p):
            bits |= 1 << i
    return bits


def is_nilpotent(group: Group) -> bool:
    """Every Sylow subgroup normal, tested by p-element counts: the set of
    p-elements has exactly p-part size iff the Sylow p-subgroup is unique."""

    def compute():
        for p, e in group.prime_factorization.items():
            if _p_element_bits(group, p).bit_count() != p**e:
                return False
        return True

    return _memo(group, "nilpotent", compute)


def sylow_normal(group: Group, p: int) -> bool:
    e = group.prime_factorization.get(p, 0)
    return _p_element_bits(group, p).bit_count() == p**e


def has_sylow_tower(group: Group) -> bool:
    """Sylow tower of supersolvable type: peel normal Sylow subgroups off
    largest prime first, descending through quotients."""

    def compute():
        cur = group
        while cur.order > 1:
            q = max(cur.prime_factorization)
            qpart = q ** cur.prime_factorization[q]
            bits = _p_element_bits(cur, q)
            if bits.bit_count() != qpart:
                return False
            cur = quotient(cur, Subgroup(cur, bits)).group
        return True

    return _memo(group, "sylow_tower", compute)


# -- minimal normal subgroups, cores, chief series ------------------------


def minimal_normal_subgroups(group: Group) -> list[Subgroup]:
    """All minimal normal subgroups, found as the minimal elements among
    normal closures of single elements (one per conjugacy class)."""

    def compute():
        if group.order == 1:
            return []
        t = group.table()
        gidx = group.generator_indices()
        classes, _ = group.conjugacy_classes()
        cand: dict[int, tuple[int, ...]] = {}
        for cls in classes:
            rep = cls[0]
            if rep == 0:
                continue
            cb = 1
            x = rep
            while x != 0:
                cb |= 1 << x
                x = t[x][rep]
            bits, gens = _normal_closure_bits(group, gidx, cb, (rep,))
            cand.setdefault(bits, gens)
        minimal = []
        for bits, gens in cand.items():
            if not any(o != bits and o & ~bits == 0 for o in cand):
                minimal.append(Subgroup(group, bits, gens))
        minimal.sort(key=lambda s: (s.order, s.members))
        return minimal

    return _memo(group, "minnorm", compute)


def is_simple(group: Group) -> bool:
    mins = minimal_normal_subgroups(group)
    return len(mins) == 1 and mins[0].order == group.order


def _core_by(group: Group, keep) -> Subgroup:
    """Join of all normal closures of single elements that satisfy ``keep``
    (a predicate on the closure's bitset). Used for O_p and O_{p'}."""
    t = group.table()
    gidx = group.generator_indices()
    orders = group.element_orders()
    classes, _ = group.conjugacy_classes()
    bits = 1
    gens: tuple[int, ...] = ()
    for cls in classes:
        rep = cls[0]
        if rep == 0 or (bits >> rep) & 1:
            continue
        if not keep(orders[rep]):
            continue
        cb = 1
        x = rep
        while x != 0:
            cb |= 1 << x
            x = t[x][rep]
        nb, ngens = _normal_closure_bits(group, gidx, cb, (rep,))
        if keep(nb.bit_count()):
            bits = _close_bits(t, bits, gens, ngens)
            gens = gens + ngens
    return Subgroup(group, bits, gens)


def p_core(group: Group, p: int) -> Subgroup:
    """O_p(G), the largest normal p-subgroup."""

    def compute():
        sub = _core_by(group, lambda n: _is_p_power(n, p))
        if not _is_p_power(sub.order, p):
            raise PermlatError("join of normal p-subgroups is not a p-group")
        return sub

    return _memo(group, ("opcore", p), compute)


def p_prime_core(group: Group, p: int) -> Subgroup:
    """O_{p'}(G), the largest normal subgroup of order coprime to p."""

    def compute():
        sub = _core_by(group, lambda n: n % p != 0)
        if sub.order % p == 0:
            raise PermlatError("join of normal p'-subgroups is not a p'-group")
        return sub

    return _memo(group, ("oppcore", p), compute)


def fitting_subgroup(group: Group) -> Subgroup:
    def compute():
        t = group.table()
        bits = 1
        gens: tuple[int, ...] = ()
        for p in sorted(group.prime_factorization):
            sub = p_core(group, p)
            if sub.order > 1:
                bits = _close_bits(t, bits, gens, sub.generator_indices)
                gens = gens + sub.generator_indices
        sub = Subgroup(group, bits, gens)
        if not is_nilpotent(sub.as_group()):
            raise PermlatError("Fitting subgroup failed its nilpotency check")
        return sub

    return _memo(group, "fitting", compute)


class ChiefFactor(NamedTuple):
    order: int
    is_prime_order: bool
    is_abelian: bool
    prime: Optional[int]


class ChiefSeries(NamedTuple):
    chain: list[Subgroup]
    factors: list[ChiefFactor]


def chief_series(group: Group, prefer: str = "low") -> ChiefSeries:
    """A chief series 1 = N0 < N1 < ... < Nk = G as subgroups of G.

    At each step the minimal normal subgroup of the current quotient with
    lowest (order, bitset) is chosen; prefer="high" takes the highest
    instead (used to cross-check Jordan-Holder factor multisets).
    """
    if prefer not in ("low", "high"):
        raise PermlatError(f"unknown chief series preference {prefer!r}")

    def step(cur):
        mins = minimal_normal_subgroups(cur)
        return mins[0] if prefer == "low" else mins[-1]

    def compute():
        chain = [group.trivial_subgroup()]
        factors: list[ChiefFactor] = []
        for chosen, bits in _quotient_tower(group, step):
            factors.append(
                ChiefFactor(
                    chosen.order,
                    _is_prime(chosen.order),
                    chosen.as_group().is_abelian(),
                    _prime_power_base(chosen.order),
                )
            )
            chain.append(Subgroup(group, bits))
        return ChiefSeries(chain, factors)

    return _memo(group, ("chief", prefer), compute)


def is_supersolvable(group: Group) -> bool:
    """Solvable with every chief factor of prime order."""

    def compute():
        if group.is_abelian() or is_nilpotent(group):
            return True
        if not is_solvable(group):
            return False
        return all(f.is_prime_order for f in chief_series(group).factors)

    return _memo(group, "supersolvable", compute)


def is_p_solvable(group: Group, p: int) -> bool:
    def compute():
        return all(
            _is_p_power(f.order, p) or f.order % p != 0
            for f in chief_series(group).factors
        )

    return _memo(group, ("psolvable", p), compute)


def is_p_nilpotent(group: Group, p: int) -> bool:
    """Whether a normal p-complement exists: |O_{p'}(G)| = |G| / p-part."""

    def compute():
        e = group.prime_factorization.get(p, 0)
        return p_prime_core(group, p).order == group.order // p**e

    return _memo(group, ("pnilpotent", p), compute)


class PLengthResult(NamedTuple):
    p: int
    is_p_solvable: bool
    p_length: Optional[int]
    upper_p_series: list[Subgroup]


def p_length(group: Group, p: int) -> PLengthResult:
    """Upper p-series 1 <= O_{p'} <= O_{p'p} <= ... with the count of
    p-layers; undefined (p_length None) when G is not p-solvable."""

    def compute():
        if not is_p_solvable(group, p):
            return PLengthResult(p, False, None, [])
        # One flag per step, True for a p-layer. O_p' of G/O_p'(G) is
        # trivial, so a p'-step is always followed by a p-step.
        layers: list[bool] = []

        def step(cur):
            if not layers or layers[-1]:
                opp = p_prime_core(cur, p)
                if opp.order > 1:
                    layers.append(False)
                    return opp
            op = p_core(cur, p)
            if op.order == 1:
                raise PermlatError("upper p-series stalled on a p-solvable group")
            layers.append(True)
            return op

        series = [group.trivial_subgroup()]
        series += [Subgroup(group, bits) for _, bits in _quotient_tower(group, step)]
        return PLengthResult(p, True, sum(layers), series)

    return _memo(group, ("plength", p), compute)


# -- hypercenter for the supersolvable formation ---------------------------


def u_hypercenter(group: Group) -> Subgroup:
    """Largest normal subgroup all of whose chief factors (as G-chief
    factors) have prime order.

    Iterates: pull back the product of all prime-order minimal normal
    subgroups of the current quotient, until none remain. On exit the
    quotient by the result has no prime-order minimal normal subgroup,
    which certifies maximality.
    """

    def step(cur):
        layer_subs = [m for m in minimal_normal_subgroups(cur) if _is_prime(m.order)]
        if not layer_subs:
            return None
        t = cur.table()
        layer = layer_subs[0].members
        gens = layer_subs[0].generator_indices
        for m in layer_subs[1:]:
            if m.members & ~layer:
                layer = _close_bits(t, layer, gens, m.generator_indices)
                gens = gens + m.generator_indices
        return Subgroup(cur, layer, gens)

    def compute():
        z_bits = 1  # the last preimage the tower yields
        for _, z_bits in _quotient_tower(group, step):
            pass
        return Subgroup(group, z_bits)

    return _memo(group, "uhypercenter", compute)


# -- p-group operators ------------------------------------------------------


def exponent(group: Group) -> int:
    return _memo(group, "exponent", lambda: math.lcm(*group.element_orders()))


def omega1(p_group: Group) -> Subgroup:
    """Omega_1(P) = <x : x^p = 1>."""
    p = _p_of(p_group)

    def compute():
        t = p_group.table()
        orders = p_group.element_orders()
        bits = 1
        gens: list[int] = []
        for i in range(1, p_group.order):
            if orders[i] == p and not (bits >> i) & 1:
                bits = _close_bits(t, bits, tuple(gens), (i,))
                gens.append(i)
        return Subgroup(p_group, bits, tuple(gens))

    return _memo(p_group, "omega1", compute)


def agemo1(p_group: Group) -> Subgroup:
    """Mho_1(P) = <x^p : x in P>."""
    p = _p_of(p_group)

    def compute():
        t = p_group.table()
        bits = 1
        gens: list[int] = []
        for i in range(1, p_group.order):
            y = 0
            for _ in range(p):
                y = t[y][i]
            if y and not (bits >> y) & 1:
                bits = _close_bits(t, bits, tuple(gens), (y,))
                gens.append(y)
        return Subgroup(p_group, bits, tuple(gens))

    return _memo(p_group, "agemo1", compute)


def phi_p_group(p_group: Group) -> Subgroup:
    """Frattini subgroup of a p-group via Phi(P) = P' * Mho_1(P)."""
    _p_of(p_group)

    def compute():
        d = derived_subgroup(p_group)
        a = agemo1(p_group)
        t = p_group.table()
        bits = _close_bits(
            t, d.members, d.generator_indices, a.generator_indices
        )
        return Subgroup(p_group, bits)

    return _memo(p_group, "phi", compute)


# -- fingerprints ------------------------------------------------------------


def abelian_invariants(group: Group) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an abelian group, ascending."""
    if not group.is_abelian():
        raise PermlatError("abelian invariants of a non-abelian group")

    def compute():
        if group.order == 1:
            return ()
        orders = group.element_orders()
        primary: dict[int, list[int]] = {}
        for p, e in sorted(group.prime_factorization.items()):
            m = []
            for k in range(e + 1):
                pk = p**k
                cnt = sum(1 for o in orders if pk % o == 0)
                m.append(iota(cnt, p))
            counts = [m[k] - m[k - 1] for k in range(1, e + 1)]
            lam = []
            for i in range(1, counts[0] + 1):
                lam.append(max(k for k in range(1, e + 1) if counts[k - 1] >= i))
            primary[p] = lam
        width = max(len(lam) for lam in primary.values())
        factors = []
        for j in range(width):
            d = 1
            for p, lam in primary.items():
                if j < len(lam):
                    d *= p ** lam[j]
            factors.append(d)
        factors.sort()
        return tuple(factors)

    return _memo(group, "abinv", compute)


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant record used in place of isomorphism testing.

    Equality compares the invariants; ``name`` is derived from them by the
    recognition rules in _recognize.
    """
    order: int
    abelian: bool
    invariants: Optional[tuple[int, ...]]
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int
    derived_orders: tuple[int, ...]
    sylow_normal: tuple[tuple[int, bool], ...]
    nilpotent: bool
    solvable: bool
    supersolvable: bool

    @property
    def name(self) -> str:
        return _recognize(self)


def fingerprint(group: Group) -> Fingerprint:
    def compute():
        orders = group.element_orders()
        hist: dict[int, int] = {}
        for o in orders:
            hist[o] = hist.get(o, 0) + 1
        return Fingerprint(
            order=group.order,
            abelian=group.is_abelian(),
            invariants=abelian_invariants(group) if group.is_abelian() else None,
            order_histogram=tuple(sorted(hist.items())),
            center_order=center(group).order,
            derived_orders=tuple(s.order for s in derived_series(group)),
            sylow_normal=tuple(
                (p, sylow_normal(group, p))
                for p in sorted(group.prime_factorization)
            ),
            nilpotent=is_nilpotent(group),
            solvable=is_solvable(group),
            supersolvable=is_supersolvable(group),
        )

    return _memo(group, "fingerprint", compute)


def _recognize(fp: Fingerprint) -> str:
    """Name a group from its fingerprint.

    Abelian groups are named exactly from their invariant factors. For
    non-abelian groups a hand-written rule table covers orders up to 24
    (plus Q16/D16 at 16); anything else is reported as unrecognized.
    Rules, keyed on the element-order histogram h and center order z:
      6  -> S3
      8  -> Q8 if h[2]=1 else D8
      10 -> D10;  14 -> D14;  22 -> D22;  21 -> C7:C3
      12 -> A4 if Sylow-3 not normal; Dic3 if h[2]=1; else D12
      16 -> Q16 if h[2]=1; D16 if h[2]=9 and h[8]=4
      18 -> D18 if h[9]>0 and h[2]=9; (C3xC3):C2 if h[2]=9; else C3 x S3
      20 -> D20 if h[2]=11; Dic5 if h[2]=1; C5:C4 if h[4]=10
      24 -> S4 if z=1; C3 x Q8 if h[2]=1 and nilpotent;
            SL(2,3) if h[2]=1,h[4]=6; Dic6 if h[2]=1;
            D24 if h[2]=13; C2 x A4 if h[2]=7,h[6]=8;
            C3 x D8 if h[2]=5,h[12]=4
    Perfect groups of order 60, 168 and 360 are A5, PSL(2,7) and A6;
    each is the unique perfect group of its order.
    """
    if fp.abelian:
        if fp.order == 1:
            return "C1"
        return " x ".join(f"C{d}" for d in fp.invariants)
    h = dict(fp.order_histogram)
    n = fp.order
    sylnorm = dict(fp.sylow_normal)
    if n == 6:
        return "S3"
    if n == 8:
        return "Q8" if h.get(2) == 1 else "D8"
    if n == 10:
        return "D10"
    if n == 12:
        if not sylnorm[3]:
            return "A4"
        return "Dic3" if h.get(2) == 1 else "D12"
    if n == 14:
        return "D14"
    if n == 16:
        if h.get(2) == 1:
            return "Q16"
        if h.get(2) == 9 and h.get(8) == 4:
            return "D16"
    if n == 18:
        if h.get(2) == 9:
            return "D18" if h.get(9) else "(C3xC3):C2"
        return "C3 x S3"
    if n == 20:
        if h.get(2) == 11:
            return "D20"
        if h.get(2) == 1:
            return "Dic5"
        if h.get(4) == 10:
            return "C5:C4"
    if n == 21:
        return "C7:C3"
    if n == 22:
        return "D22"
    if n == 24:
        if fp.center_order == 1:
            return "S4"
        if h.get(2) == 1:
            if fp.nilpotent:
                return "C3 x Q8"
            return "SL(2,3)" if h.get(4) == 6 else "Dic6"
        if h.get(2) == 13:
            return "D24"
        if h.get(2) == 7 and h.get(6) == 8:
            return "C2 x A4"
        if h.get(2) == 5 and h.get(12) == 4:
            return "C3 x D8"
    if fp.derived_orders == (n,):
        if n == 60:
            return "A5"
        if n == 168:
            return "PSL(2,7)"
        if n == 360:
            return "A6"
    return "unrecognized"
