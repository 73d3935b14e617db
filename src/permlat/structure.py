"""Structural series and predicates: solvability, nilpotency,
supersolvability, chief series, cores, hypercenters, the exponent,
Sylow towers, and invariant fingerprints.

Everything works on a Group's own table and element-index bitsets. The
normal-series questions (chief series, O_p, O_p', the upper p-series, the
U-hypercenter, also of G/N) build no quotient: the normal subgroups of G/N
are those of G above N, so each answer is a preimage in G. Each step scans
the list of G's normal subgroups once a lattice of G has made it, and
otherwise joins normal closures of N and one element per conjugacy class:
the list can be exponentially long (C2^n). Results are memoized on G
by ``groups._memoized``, under the function's name and arguments, until
G releases its derived data (``Group.release_caches``, which the
registry runner calls once a group's entries have run); a later call
recomputes them. Those no caller asks for twice are not: the Fitting
subgroup, O_{p'}, the hypercenter, Sylow towers and fingerprints.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import PermlatError
from .groups import Group, Subgroup, _close_bits, _factorize, _iter_bits, _memoized
from .groups import _minimal_bits, _normal_bits
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


def iota(m: int, p: int) -> int:
    """The exponent a with m = p^a. Errors unless m is a power of p."""
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    if m != 1:
        raise PermlatError(f"{m * p**a} is not a power of {p}")
    return a


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


@_memoized
def derived_series(group: Group, top: Optional[Subgroup] = None) -> list[Subgroup]:
    """H >= H' >= H'' >= ... down to the stable term, where H is the
    subgroup ``top`` of G (G itself by default), on G's own table."""
    top = top or group.full_subgroup()
    series = [top]
    bits, gens = top.members, top.generator_indices
    while True:
        nbits, ngens = _derived_bits(group, gens)
        if nbits == bits:
            return series
        series.append(Subgroup(group, nbits, ngens))
        bits, gens = nbits, ngens


@_memoized
def is_solvable(group: Group) -> bool:
    return derived_series(group)[-1].order == 1


def _central_step(group: Group, bits: int) -> int:
    """Bits of Z_{i+1} from those of Z_i: Z_i and the x with [x, g] in Z_i
    for every generator g."""
    t = group.table()
    inv = group.inverse_table()
    gens = group.generator_indices()
    grown = bits
    for x in range(group.order):
        if not (bits >> x) & 1 and all(
            (bits >> t[inv[t[g][x]]][t[x][g]]) & 1 for g in gens
        ):
            grown |= 1 << x
    return grown


@_memoized
def center(group: Group) -> Subgroup:
    """Z_1, the first step of ``hypercenter``'s walk from the identity."""
    return Subgroup(group, _central_step(group, 1))


def _order_mod(t, x: int, n_bits: int) -> int:
    """Order of xN in G/N: the least k >= 1 with x^k in N."""
    k, y = 1, x
    while not (n_bits >> y) & 1:
        y = t[y][x]
        k += 1
    return k


def _closure_over(group: Group, n: Subgroup, x: int):
    """Bits and generators of the normal closure of N and x, for N normal;
    the generators start with N's."""
    n_gens = n.generator_indices
    bits = _close_bits(group.table(), n.members, n_gens, (x,))
    return _normal_closure_bits(group, group.generator_indices(), bits, n_gens + (x,))


def _minimal_over(group: Group, n: Subgroup) -> list[Subgroup]:
    """The normal subgroups of G minimal over the normal subgroup N, by
    (order, bitset): the minimal entries above N in G's normal-subgroup
    list, or, with no list, the minimal normal closures of N and x for one
    x per conjugacy class outside N (each of them is such a closure)."""
    normals = _normal_bits(group)
    if normals is not None:
        cand = {b: None for b in normals if b != n.members and b & n.members == n.members}
    else:
        cand = {}
        for cls in group.conjugacy_classes()[0]:
            if not (n.members >> cls[0]) & 1:
                cand.setdefault(*_closure_over(group, n, cls[0]))
    above = sorted(cand, key=lambda b: (b.bit_count(), b))
    return [Subgroup(group, b, cand[b]) for b in _minimal_bits(above)]


def _core_over(group: Group, n: Subgroup, keep) -> Subgroup:
    """The join of N with every normal M >= N with ``keep(|M:N|)``: for a
    pi-test the preimage of O_pi(G/N), for ``_is_prime`` one U-hypercenter
    step. It is the smallest entry of G's normal-subgroup list containing
    them; with no list, the walk joins the passing closures of N and x, one
    x per class outside the join so far, skipping x whose order mod N fails."""
    normals = _normal_bits(group)
    n_order = n.order
    if normals is not None:
        want = n.members
        for b in normals:
            if b & n.members == n.members and keep(b.bit_count() // n_order):
                want |= b
        return Subgroup(group, next(b for b in normals if b & want == want))
    t = group.table()
    bits, gens = n.members, n.generator_indices
    for cls in group.conjugacy_classes()[0]:
        x = cls[0]
        if (bits >> x) & 1 or not keep(_order_mod(t, x, n.members)):
            continue
        cb, cgens = _closure_over(group, n, x)
        if keep(cb.bit_count() // n_order):
            new = cgens[len(n.generator_indices):]
            bits = _close_bits(t, bits, gens, new)
            gens = gens + new
    return Subgroup(group, bits, gens)


def hypercenter(group: Group) -> Subgroup:
    """The ordinary Z-infinity: the upper central series from the center,
    one ``_central_step`` at a time, until it stops growing."""
    bits = center(group).members
    while (grown := _central_step(group, bits)) != bits:
        bits = grown
    return Subgroup(group, bits)


# -- nilpotency, Sylow towers --------------------------------------------


def _p_element_count(group: Group, p: int, bits: int) -> int:
    """Number of p-elements, the identity included, among these bits."""
    orders = group.element_orders()
    return sum(1 for i in _iter_bits(bits) if _is_p_power(orders[i], p))


def _is_nilpotent_bits(group: Group, bits: int) -> bool:
    """Whether the subgroup with these bits has every Sylow subgroup
    normal, tested by p-element counts: its p-elements number exactly the
    p-part of its order iff its Sylow p-subgroup is unique."""
    return all(
        _p_element_count(group, p, bits) == p**e
        for p, e in _factorize(bits.bit_count()).items()
    )


@_memoized
def is_nilpotent(group: Group) -> bool:
    return _is_nilpotent_bits(group, (1 << group.order) - 1)


def sylow_normal(group: Group, p: int) -> bool:
    e = group.prime_factorization.get(p, 0)
    return _p_element_count(group, p, (1 << group.order) - 1) == p**e


def has_sylow_tower(group: Group) -> bool:
    """Sylow tower of supersolvable type: for each k a normal Hall
    subgroup for the k largest primes. Given one for the k - 1 largest,
    the next exists iff the elements whose order divides its order h
    number exactly h (the p-element count test of ``sylow_normal``, read
    in the quotient by the previous one)."""
    orders = group.element_orders()
    hall = 1
    for q in sorted(group.prime_factorization, reverse=True):
        hall *= q ** group.prime_factorization[q]
        if sum(1 for o in orders if hall % o == 0) != hall:
            return False
    return True


# -- minimal normal subgroups, cores, chief series ------------------------


@_memoized
def minimal_normal_subgroups(group: Group) -> list[Subgroup]:
    """All minimal normal subgroups, by (order, bitset)."""
    return _minimal_over(group, group.trivial_subgroup())


def is_simple(group: Group) -> bool:
    """By Burnside's p^a q^b theorem (1904) a group whose order has at most
    two prime divisors is solvable, so simple iff of prime order."""
    if len(group.prime_factorization) <= 2:
        return _is_prime(group.order)
    mins = minimal_normal_subgroups(group)
    return len(mins) == 1 and mins[0].order == group.order


@_memoized
def p_core(group: Group, p: int) -> Subgroup:
    """O_p(G), the largest normal p-subgroup."""
    sub = _core_over(group, group.trivial_subgroup(), lambda n: _is_p_power(n, p))
    if not _is_p_power(sub.order, p):
        raise PermlatError("join of normal p-subgroups is not a p-group")
    return sub


def p_prime_core(group: Group, p: int) -> Subgroup:
    """O_{p'}(G), the largest normal subgroup of order coprime to p."""
    sub = _core_over(group, group.trivial_subgroup(), lambda n: n % p != 0)
    if sub.order % p == 0:
        raise PermlatError("join of normal p'-subgroups is not a p'-group")
    return sub


def fitting_subgroup(group: Group) -> Subgroup:
    """The product of the O_p(G), normal of coprime orders."""
    t = group.table()
    members = [0]
    for p in group.prime_factorization:
        o_p = list(_iter_bits(p_core(group, p).members))
        members = [t[a][b] for a in members for b in o_p]
    bits = sum(1 << i for i in members)
    if not _is_nilpotent_bits(group, bits):
        raise PermlatError("Fitting subgroup failed its nilpotency check")
    return Subgroup(group, bits)


class ChiefSeries(NamedTuple):
    chain: list[Subgroup]
    factors: list[int]


@_memoized
def chief_series(group: Group) -> ChiefSeries:
    """A chief series 1 = N0 < N1 < ... < Nk = G as subgroups of G, where
    N_{i+1} is the normal subgroup minimal over N_i with lowest (order,
    bitset)."""
    chain = [group.trivial_subgroup()]
    factors: list[int] = []
    while chain[-1].order < group.order:
        n = chain[-1]
        m = _minimal_over(group, n)[0]
        factors.append(m.order // n.order)
        chain.append(m)
    return ChiefSeries(chain, factors)


@_memoized
def is_supersolvable(group: Group) -> bool:
    """Every chief factor has prime order: Z_U(G) = G."""
    return u_hypercenter(group).is_full()


@_memoized
def is_p_solvable(group: Group, p: int) -> bool:
    return all(_is_p_power(f, p) or f % p != 0 for f in chief_series(group).factors)


class PLengthResult(NamedTuple):
    p: int
    is_p_solvable: bool
    p_length: Optional[int]
    upper_p_series: list[Subgroup]


@_memoized
def p_length(group: Group, p: int) -> PLengthResult:
    """Upper p-series 1 <= O_{p'} <= O_{p'p} <= ... with the count of
    p-layers; undefined (p_length None) when G is not p-solvable."""
    if not is_p_solvable(group, p):
        return PLengthResult(p, False, None, [])
    # One flag per step, True for a p-layer. O_p' of G/O_p'(G) is
    # trivial, so a p'-step is always followed by a p-step.
    layers: list[bool] = []
    series = [group.trivial_subgroup()]
    while series[-1].order < group.order:
        n = grown = series[-1]
        if not layers or layers[-1]:
            grown = _core_over(group, n, lambda k: k % p != 0)
        p_layer = grown.members == n.members
        if p_layer:
            grown = _core_over(group, n, lambda k: _is_p_power(k, p))
            if grown.members == n.members:
                raise PermlatError("upper p-series stalled on a p-solvable group")
        layers.append(p_layer)
        series.append(grown)
    return PLengthResult(p, True, sum(layers), series)


# -- hypercenter for the supersolvable formation ---------------------------


@_memoized
def u_hypercenter(group: Group) -> Subgroup:
    """Largest normal subgroup all of whose chief factors (as G-chief
    factors) have prime order.

    From Z = 1, joins Z with every normal subgroup of prime index over Z
    (the preimage of the product of the prime-order minimal normal
    subgroups of G/Z) until there is none. G/Z then has no prime-order
    minimal normal subgroup, which certifies maximality.
    """
    return Subgroup(group, _u_hypercenter_bits(group, group.trivial_subgroup()))


@_memoized
def _u_hypercenter_bits(group: Group, n: Subgroup) -> int:
    """Bits of the preimage of the U-hypercenter of G/N, for N normal:
    ``u_hypercenter``'s walk started at N."""
    z = n
    while True:
        grown = _core_over(group, z, _is_prime)
        if grown.members == z.members:
            return z.members
        z = grown


# -- exponent ---------------------------------------------------------------


def exponent(group: Group, sub: Optional[Subgroup] = None) -> int:
    """The lcm of the element orders of G, or of its subgroup ``sub``."""
    bits = (1 << group.order) - 1 if sub is None else sub.members
    orders = group.element_orders()
    return math.lcm(*(orders[i] for i in _iter_bits(bits)))


# -- fingerprints ------------------------------------------------------------


@_memoized
def abelian_invariants(group: Group) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an abelian group, ascending."""
    if not group.is_abelian():
        raise PermlatError("abelian invariants of a non-abelian group")
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


class Fingerprint(NamedTuple):
    """Isomorphism-invariant record used in place of isomorphism testing.

    Equality compares the invariants field by field; ``name`` is derived
    from them by the recognition rules in _recognize.
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
            SL(2,3) if h[2]=1,h[4]=6; Dic6 if h[2]=1,h[4]=14;
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
            if h.get(4) == 6:
                return "SL(2,3)"
            if h.get(4) == 14:
                return "Dic6"
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
