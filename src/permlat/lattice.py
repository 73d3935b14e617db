"""Exhaustive subgroup lattices over element-index bitsets.

Subgroups are enumerated one conjugacy class at a time by cyclic extension
(Neubüser's method): starting from the trivial subgroup, each class
representative H is joined with prime-power cyclic subgroups C, and a
join not seen before contributes its whole conjugation orbit at once while
only the join itself goes on the work list. The orbits are the conjugacy
classes of subgroups.

H is joined only with the C outside H whose p-th power C^p lies in H.
Every subgroup K is still reached: list K's prime-power cyclic subgroups
by order. Each one's p-th power comes earlier in that list (it is trivial
for order p), so each one outside the subgroup that the earlier ones
generate meets the rule for it, and K ends a chain of such joins. Working
up to conjugacy loses nothing: if K = <H^g, C> then
K^(g^-1) = <H, C^(g^-1)>, and C^(g^-1) meets the rule for H as C does for
H^g. H joins one C per orbit under conjugation by H itself, or by G when
H is normal: for n normalizing H, <H, C^n> = <H, C>^n, which the orbit
recorded for <H, C> holds, and C^n meets the rule iff C does, so a C that
fails is skipped alone. Joins stop as soon as they pass half the group
(see ``groups._close_bits``), since such a join is the group. Equivalence
with a brute-force oracle is part of the test suite.

Queries answer in entries, the lattice's own ``Subgroup`` objects:
``within``, ``of_order``, ``sylow`` and ``complements`` return them in
canonical (order, bitset) order, ``entry`` looks one up by its bitset, and
``meet`` intersects them.
"""

from __future__ import annotations

from typing import Optional

from .errors import LatticeCapError, PermlatError
from .groups import (
    Group,
    Subgroup,
    _close_bits,
    _factorize,
    _iter_bits,
    _minimal_bits,
    _set_normal_bits,
)

DEFAULT_LATTICE_CAP = 400
# Normal subgroups E paired with each group by the E-paired statements.
DEFAULT_MAX_NORMAL_E = 20


class SubgroupLattice:
    """All subgroups of a group, sorted by (order, bitset), plus conjugacy
    classes and normality/maximality flags."""

    def __init__(self, group: Group, orbits: list[list[int]]):
        """``orbits`` are the conjugacy classes of subgroups, as bitsets."""
        self.group = group
        entries = sorted(
            (b for orbit in orbits for b in orbit),
            key=lambda b: (b.bit_count(), b),
        )
        self.subgroups = [Subgroup(group, b) for b in entries]
        self.index_by_bits = {b: i for i, b in enumerate(entries)}
        self._by_order: dict[int, list[Subgroup]] = {}
        for sub in self.subgroups:
            self._by_order.setdefault(sub.order, []).append(sub)
        self._memo: dict = {}
        # Classes are numbered by their lowest entry, members ascending.
        classes = sorted(
            sorted(self.index_by_bits[b] for b in orbit) for orbit in orbits
        )
        class_of = [0] * len(entries)
        for cid, cls in enumerate(classes):
            for i in cls:
                class_of[i] = cid
        self.conjugacy_classes = classes
        self.class_of = class_of
        self.normal_flags = [len(classes[c]) == 1 for c in class_of]
        _set_normal_bits(group, [b for b, f in zip(entries, self.normal_flags) if f])
        self._compute_flags()

    # -- construction helpers --------------------------------------------

    def _compute_flags(self) -> None:
        n = len(self.subgroups)
        top = n - 1
        maximal = [False] * n
        # Maximality is invariant under conjugation: decide it for the
        # lowest entry of each class and copy the flag to the rest.
        for cls in self.conjugacy_classes:
            i = cls[0]
            if i == top:
                continue
            mi = self.subgroups[i].members
            oi = self.subgroups[i].order
            is_max = True
            for j in range(i + 1, top):
                sj = self.subgroups[j]
                if sj.order > oi and mi & ~sj.members == 0:
                    is_max = False
                    break
            for k in cls:
                maximal[k] = is_max
        self.maximal_flags = maximal

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.subgroups)

    def index_of(self, sub: Subgroup) -> int:
        try:
            return self.index_by_bits[sub.members]
        except KeyError:
            raise PermlatError("subgroup not found in lattice") from None

    def entry(self, bits: int) -> Subgroup:
        """The entry with the given bitset; raises as ``index_of`` does."""
        i = self.index_by_bits.get(bits)
        if i is None:
            raise PermlatError("subgroup not found in lattice")
        return self.subgroups[i]

    def of_order(self, order: int) -> list[Subgroup]:
        """The entries of the given order, in canonical order."""
        return self._by_order.get(order, [])

    def within(self, bits: int, order: Optional[int] = None) -> list[Subgroup]:
        """The entries contained in the given bitset, in canonical order."""
        subs = self.of_order(order) if order is not None else self.subgroups
        return [s for s in subs if s.members & ~bits == 0]

    def top(self) -> Subgroup:
        return self.subgroups[-1]

    def bottom(self) -> Subgroup:
        return self.subgroups[0]

    # -- lattice operations -------------------------------------------------

    def product(self, a: Subgroup, b: Subgroup) -> Optional[Subgroup]:
        """The entry equal to the set AB of entries A and B, or None when AB
        is not a subgroup. An entry of order |A||B|/|A meet B| that holds
        A and B contains the set AB, which has that many elements."""
        size = a.order * b.order // (a.members & b.members).bit_count()
        if size == a.order or size == b.order:
            return a if size == a.order else b
        both = a.members | b.members
        for c in self._by_order.get(size, ()):
            if both & ~c.members == 0:
                return c
        return None

    def is_normal(self, sub: Subgroup) -> bool:
        return self.normal_flags[self.index_of(sub)]

    def normal_subgroups(self) -> list[Subgroup]:
        return [s for s, f in zip(self.subgroups, self.normal_flags) if f]

    def meet(self, entries) -> Subgroup:
        """The entry equal to the intersection of the entries; G for none."""
        bits = self.top().members
        for s in entries:
            bits &= s.members
        return self.entry(bits)

    def frattini(self) -> Subgroup:
        return self.meet(s for s, f in zip(self.subgroups, self.maximal_flags) if f)

    def socle(self) -> Subgroup:
        """The smallest normal entry holding every minimal normal one."""
        normal = [s.members for s in self.normal_subgroups()]
        want = 0
        for b in _minimal_bits(normal[1:]):
            want |= b
        return self.entry(next(b for b in normal if b & want == want))

    def sylow(self, p: int) -> tuple[Subgroup, list[Subgroup]]:
        """A Sylow p-subgroup (lowest-index) and the list of its conjugates.

        Sylow's theorems are asserted: the count is 1 mod p and divides |G|.
        """
        e = self.group.prime_factorization.get(p, 0)
        target = p**e
        subs = self.of_order(target)
        if not subs:
            raise PermlatError(f"no subgroup of order {target} found")
        # The members of a class share one order, so the first entry's
        # class holds every entry of that order iff it is as large.
        count = len(subs)
        cls = self.conjugacy_classes[self.class_of[self.index_of(subs[0])]]
        if len(cls) != count:
            raise PermlatError(f"Sylow {p}-subgroups are not all conjugate")
        if count % p != 1 % p or self.group.order % count:
            raise PermlatError(f"Sylow count {count} violates Sylow's theorems")
        return subs[0], list(subs)

    def complements(self, h: Subgroup) -> list[Subgroup]:
        """All T with H*T = G and trivial intersection, in canonical order."""
        want = self.group.order // h.order
        return [t for t in self.of_order(want) if h.members & t.members == 1]


def enumerate_subgroups(group: Group, cap: int = DEFAULT_LATTICE_CAP) -> SubgroupLattice:
    """Every subgroup of ``group``. Hard error if |G| exceeds ``cap``."""
    if group.order > cap:
        raise LatticeCapError(
            f"group order {group.order} exceeds lattice cap {cap}", cap
        )
    n = group.order
    t = group.table()
    inv = group.inverse_table()
    gidx = group.generator_indices()
    orders = group.element_orders()
    # x -> g^-1 x g for each generator g of G.
    gmaps = [[t[t[inv[g]][x]][g] for x in range(n)] for g in gidx]

    # The prime-power cyclic subgroups, numbered in the order of their
    # lowest generating element: cyc_gen[c] is that element, cyc_pow[c] its
    # p-th power (the identity for order p), and cyc_of[x] the number of the
    # cyclic subgroup that x generates (-1 if x has no prime-power order).
    cyc_gen: list[int] = []
    cyc_pow: list[int] = []
    cyc_of = [-1] * n
    for i in range(1, n):
        if cyc_of[i] != -1:
            continue
        fac = _factorize(orders[i])
        if len(fac) != 1:
            continue
        (p,) = fac
        c = len(cyc_gen)
        x = i
        k = 1
        power = 0
        while x != 0:
            if k % p:
                cyc_of[x] = c
            elif k == p:
                power = x
            x = t[x][i]
            k += 1
        cyc_gen.append(i)
        cyc_pow.append(power)

    orbits = [[1]]
    seen = {1}
    # Each class representative H with its generators and whether it is normal.
    work: list[tuple[int, tuple[int, ...], bool]] = [(1, (), True)]
    while work:
        hb, hgens, normal = work.pop()
        hmem = list(_iter_bits(hb))
        # How conjugation by H, or by G when H is normal, permutes the
        # cyclic subgroups.
        acts = [
            [cyc_of[t[t[inv[g]][x]][g]] for x in cyc_gen]
            for g in (gidx if normal else hgens)
        ]
        marked = bytearray(len(cyc_gen))
        for c, cg in enumerate(cyc_gen):
            if marked[c] or (hb >> cg) & 1 or not (hb >> cyc_pow[c]) & 1:
                continue
            # Mark c's orbit; only c is joined.
            marked[c] = 1
            stack = [c]
            while stack:
                x = stack.pop()
                for act in acts:
                    d = act[x]
                    if not marked[d]:
                        marked[d] = 1
                        stack.append(d)
            jb = _close_bits(t, hb, hgens, (cg,), hmem)
            if jb not in seen:
                orbit = _conjugation_orbit(gmaps, jb)
                seen.update(orbit)
                orbits.append(orbit)
                work.append((jb, hgens + (cg,), len(orbit) == 1))
    return SubgroupLattice(group, orbits)


def _conjugation_orbit(maps, bits: int) -> list[int]:
    """Bitsets of all conjugates of a subgroup, by BFS over the conjugation
    maps of G's generators."""
    orbit = [bits]
    seen = {bits}
    for b in orbit:
        members = list(_iter_bits(b))
        for m in maps:
            c = 0
            for x in members:
                c |= 1 << m[x]
            if c not in seen:
                seen.add(c)
                orbit.append(c)
    return orbit


# -- subgroup operations that do not need the full lattice -------------------


def _normal_closure_bits(group: Group, ambient_gens, h_bits: int, h_gens):
    """Closure of H under conjugation by the given ambient generators."""
    t = group.table()
    inv = group.inverse_table()
    bits = h_bits
    gens = list(h_gens)
    stack = list(h_gens)
    while stack:
        x = stack.pop()
        for g in ambient_gens:
            y = t[t[inv[g]][x]][g]
            if not (bits >> y) & 1:
                bits = _close_bits(t, bits, tuple(gens), (y,))
                gens.append(y)
                stack.append(y)
    return bits, tuple(gens)


def is_subnormal(h: Subgroup) -> bool:
    """Whether iterated normal closures descend from G exactly to H."""
    g = h.parent
    cur_bits = (1 << g.order) - 1
    cur_gens = g.generator_indices()
    while True:
        nb, ngens = _normal_closure_bits(g, cur_gens, h.members, h.generator_indices)
        if nb == cur_bits:
            return cur_bits == h.members
        cur_bits, cur_gens = nb, ngens


# -- DOT export --------------------------------------------------------------


def lattice_dot(lat: SubgroupLattice, title: str = "lattice") -> str:
    """DOT digraph of the subgroup lattice up to conjugacy: one node per
    conjugacy class labeled with the order and class size, edges for
    covering containments between classes, taken in the lattice's order."""
    classes = [[lat.subgroups[i] for i in cls] for cls in lat.conjugacy_classes]
    n = len(classes)

    def contained(i: int, j: int) -> bool:
        # Some entry of class i lies in one of class j iff the lowest
        # does: a conjugation carries the one containment to the other.
        low = classes[i][0]
        return low.order < classes[j][0].order and any(
            low.members & ~b.members == 0 for b in classes[j]
        )

    le = [[contained(i, j) for j in range(n)] for i in range(n)]
    quoted = title.replace("\\", "\\\\").replace('"', '\\"')
    lines = [
        f'digraph "{quoted}" {{',
        "  rankdir=BT;",
        "  node [shape=box];",
    ]
    for i, reps in enumerate(classes):
        lines.append(f'  c{i} [label="order {reps[0].order} x{len(reps)}"];')
    for i in range(n):
        for j in range(n):
            if not le[i][j]:
                continue
            if any(le[i][k] and le[k][j] for k in range(n)):
                continue
            lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_lattice_dot(
    group: Group, path, lattice_cap: int = DEFAULT_LATTICE_CAP
) -> SubgroupLattice:
    lat = enumerate_subgroups(group, cap=lattice_cap)
    text = lattice_dot(lat, title=group.name or f"order{group.order}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return lat
