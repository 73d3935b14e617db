"""Finite permutation groups.

A Group owns a canonically sorted element table (lexicographic on image
tuples, so the identity is always index 0) and, lazily, an index-level
multiplication table, inverses, element orders and memos, which
``Group.release_caches`` drops and the next read rebuilds. All heavier
algorithms in the package work on element indices and bitsets over them;
permutations are the construction layer.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence

from .errors import (
    BadTableError,
    DegreeMismatchError,
    GroupOrderCapError,
    NotAnElementError,
    PermlatError,
)
from .perms import Perm

DEFAULT_GROUP_CAP = 2000


def _memoized(fn):
    """Memoize ``fn(owner, *args)`` in ``owner._memo``, a group's or a
    lattice's, under ``(fn.__name__, *args)`` with each Subgroup argument
    keyed by its bitset; a keyword argument adds its (name, value) pair.
    ``Group.release_caches`` drops every entry."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(owner, *args, **kwargs):
        key = (name, *[a.members if isinstance(a, Subgroup) else a for a in args])
        if kwargs:
            key += tuple(
                (k, v.members if isinstance(v, Subgroup) else v) for k, v in kwargs.items()
            )
        store = owner._memo
        if key not in store:
            store[key] = fn(owner, *args, **kwargs)
        return store[key]

    return wrapper


def _normal_bits(group) -> Optional[list[int]]:
    """The normal subgroups' bitsets by (order, bitset) once a lattice set them."""
    return group._memo.get("normal_bits")


def _set_normal_bits(group, bits: list[int]) -> None:
    group._memo.setdefault("normal_bits", bits)


def _minimal_bits(bits: list[int]) -> list[int]:
    """The minimal members of a list of bitsets sorted by order."""
    return [b for i, b in enumerate(bits) if not any(o & ~b == 0 for o in bits[:i])]


def _iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _close_bits(table, base_bits: int, base_gens, new_gens, base_members=None) -> int:
    """Bitset of the subgroup generated by a subgroup and extra elements.

    ``base_bits`` must be the bitset of an actual subgroup with generator
    indices ``base_gens``; ``base_members``, if given, lists its elements,
    for a caller that closes many joins over one base. Grows by whole right
    cosets of the base, so the cost is linear in the size of the result.
    The cosets are counted: once they hold more than half of the group the
    closure is a subgroup of index below 2, which by Lagrange is the group
    itself, so the full mask is returned without filling in the rest.
    """
    bits = base_bits
    gens = tuple(dict.fromkeys((*base_gens, *new_gens)))
    if not gens:
        return bits
    if base_members is None:
        base_members = list(_iter_bits(base_bits))
    n = len(table)
    # More cosets than this hold more than n/2 elements.
    coset_limit = n // (2 * len(base_members))
    cosets = 1
    stack = [0]
    while stack:
        row = table[stack.pop()]
        for g in gens:
            w = row[g]
            if not (bits >> w) & 1:
                cosets += 1
                if cosets > coset_limit:
                    return (1 << n) - 1
                for b in base_members:
                    bits |= 1 << table[b][w]
                stack.append(w)
    return bits


def _extract_generators(table, bits: int) -> tuple[int, ...]:
    """Greedy generator indices for the subgroup bitset, scanned ascending."""
    if bits == 1:
        return ()
    gens: list[int] = []
    cur = 1
    for i in _iter_bits(bits):
        if not (cur >> i) & 1:
            cur = _close_bits(table, cur, tuple(gens), (i,))
            gens.append(i)
            if cur == bits:
                break
    if cur != bits:
        raise PermlatError("bitset is not closed under multiplication")
    return tuple(gens)


def _conjugate_bits(table, inv, bits: int, g: int) -> int:
    """Bitset of g^-1 * H * g."""
    row = table[inv[g]]
    out = 0
    for x in _iter_bits(bits):
        out |= 1 << table[row[x]][g]
    return out


def _right_generators(table, e: int) -> list[int]:
    """Greedy indices whose right-multiplication words from ``e`` reach all.

    Scans indices ascending and takes each one that the words
    ``((e*s1)*s2)*...`` over the indices taken so far do not yet reach.
    """
    n = len(table)
    reached = [False] * n
    reached[e] = True
    members = [e]
    gens: list[int] = []
    for s in range(n):
        if reached[s]:
            continue
        gens.append(s)
        # Old members need only the new index; new members need all of them.
        old = len(members)
        i = 0
        while i < len(members):
            row = table[members[i]]
            for g in (s,) if i < old else gens:
                w = row[g]
                if not reached[w]:
                    reached[w] = True
                    members.append(w)
            i += 1
    return gens


class CayleyTable:
    """Multiplication table over element indices 0..order-1.

    Validated on construction, in pure Python and exactly at every order:
    every row and column is a permutation, a two-sided identity exists,
    and the product is associative (Light's test, see ``validate``).
    """

    __slots__ = ("order", "table", "identity_index")

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        if any(len(row) != self.order for row in self.table):
            raise BadTableError("table is not square")
        self.identity_index = self._find_identity()
        self.validate()

    def _find_identity(self) -> int:
        n = self.order
        for i, row in enumerate(self.table):
            if all(row[j] == j for j in range(n)):
                # left identity; require it to be two-sided
                if all(self.table[j][i] == j for j in range(n)):
                    return i
        raise BadTableError("table has no identity element")

    def validate(self) -> None:
        """Raise BadTableError unless the table is a group's.

        Rows and columns must be permutations of 0..n-1. Associativity is
        Light's test: (x*s)*y == x*(s*y) for all x, y and each s of a
        greedy generating set. The elements s that pass are closed under
        products (if a and b pass, x*(ab) = (xa)*b, so
        (x*(ab))*y = (xa)*(by) = x*(a*(by)) = x*((ab)*y)), and they
        contain the identity, so when the generators pass every element
        does. The cost is n^2 per generator instead of n^3.
        """
        t = self.table
        full = set(range(self.order))
        if any(set(row) != full for row in t):
            raise BadTableError("some row is not a permutation")
        if any(set(col) != full for col in zip(*t)):
            raise BadTableError("some column is not a permutation")
        for s in _right_generators(t, self.identity_index):
            row_s = t[s]
            for x, row_x in enumerate(t):
                left = t[row_x[s]]
                right = list(map(row_x.__getitem__, row_s))
                if left != right:
                    y = next(y for y, (a, b) in enumerate(zip(left, right)) if a != b)
                    raise BadTableError(f"associativity fails at ({x},{s},{y})")


class Group:
    """An immutable finite permutation group with canonical element order."""

    __slots__ = (
        "degree",
        "generators",
        "elements",
        "order",
        "name",
        "_index",
        "_table",
        "_inv",
        "_gidx",
        "_orders",
        "_memo",
    )

    def __init__(
        self,
        degree: int,
        generators: Sequence[Perm],
        elements: Sequence[Perm],
        name: Optional[str] = None,
        table: Optional[list[list[int]]] = None,
    ):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.name = name
        if self.order == 0 or not self.elements[0].is_identity():
            raise PermlatError("element list must start with the identity")
        for i in range(self.order - 1):
            if not self.elements[i].images < self.elements[i + 1].images:
                raise PermlatError("elements are not canonically sorted")
        self._index = {p.images: i for i, p in enumerate(self.elements)}
        self._table = table
        self._inv = None
        self._gidx = None
        self._orders = None
        self._memo: dict = {}

    # -- element access -------------------------------------------------

    def index_of(self, p: Perm) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise NotAnElementError(f"{p!r} is not an element of this group") from None

    def __contains__(self, p: Perm) -> bool:
        return isinstance(p, Perm) and p.images in self._index

    def generator_indices(self) -> tuple[int, ...]:
        if self._gidx is None:
            self._gidx = tuple(self.index_of(g) for g in self.generators)
        return self._gidx

    # -- index-level machinery -------------------------------------------

    def table(self) -> list[list[int]]:
        """``table()[a][b]`` is the index of a*b.

        Left multiplication by each generator is taken once from the
        permutations, g*x being x's images gathered through g's 0-based
        images; every other row then follows along a breadth-first word
        tree, since row g*a is row a mapped through x -> g*x.
        """
        if self._table is None:
            idx = self._index
            images = [x.images for x in self.elements]
            lefts = []
            for g in self.generators:
                through = [v - 1 for v in g.images]
                lefts.append([idx[tuple(map(im.__getitem__, through))] for im in images])
            rows: list = [None] * self.order
            rows[0] = list(range(self.order))
            reached = [0]
            for a in reached:
                row = rows[a]
                for left in lefts:
                    c = left[a]
                    if rows[c] is None:
                        rows[c] = [left[x] for x in row]
                        reached.append(c)
            if len(reached) != self.order:
                raise PermlatError("generators do not generate the group")
            self._table = rows
        return self._table

    def inverse_table(self) -> list[int]:
        if self._inv is None:
            self._inv = [row.index(0) for row in self.table()]
        return self._inv

    def element_orders(self) -> list[int]:
        if self._orders is None:
            t = self.table()
            orders = [1] * self.order
            for x in range(1, self.order):
                k = 1
                y = x
                while y != 0:
                    y = t[y][x]
                    k += 1
                orders[x] = k
            self._orders = orders
        return self._orders

    def release_caches(self) -> None:
        """Drop the data built on demand: the multiplication and inverse
        tables, the element orders and every memo. The elements, their
        index and the generators stay, so a later call rebuilds what it
        reads from the generators, with the same values; a table given
        at construction is rebuilt the same way."""
        self._table = None
        self._inv = None
        self._orders = None
        self._memo.clear()

    @property
    @_memoized
    def prime_factorization(self) -> dict[int, int]:
        return _factorize(self.order)

    @_memoized
    def is_abelian(self) -> bool:
        return all(
            (a * b).images == (b * a).images
            for i, a in enumerate(self.generators)
            for b in self.generators[i + 1:]
        )

    @_memoized
    def conjugacy_classes(self) -> tuple[list[list[int]], list[int]]:
        """Element conjugacy classes (sorted index lists) and class index map."""
        t = self.table()
        inv = self.inverse_table()
        gidx = self.generator_indices()
        class_of = [-1] * self.order
        classes: list[list[int]] = []
        for x in range(self.order):
            if class_of[x] != -1:
                continue
            cid = len(classes)
            class_of[x] = cid
            orbit = [x]
            stack = [x]
            while stack:
                y = stack.pop()
                for g in gidx:
                    z = t[t[inv[g]][y]][g]
                    if class_of[z] == -1:
                        class_of[z] = cid
                        orbit.append(z)
                        stack.append(z)
            classes.append(sorted(orbit))
        return classes, class_of

    # -- subgroup handles -------------------------------------------------

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1, ())

    def full_subgroup(self) -> "Subgroup":
        bits = (1 << self.order) - 1
        return Subgroup(self, bits, self.generator_indices())

    def subgroup_generated_by(self, perms: Iterable[Perm]) -> "Subgroup":
        idxs = tuple(self.index_of(p) for p in perms)
        t = self.table()
        bits = _close_bits(t, 1, (), idxs)
        gens = tuple(dict.fromkeys(i for i in idxs if i != 0))
        return Subgroup(self, bits, gens if gens else ())

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"Group<{label}, order {self.order}>"


class Subgroup:
    """A subgroup, held as a bitset over the parent's element indices.

    Without explicit generators, ``generator_indices`` is the greedy tuple
    of ``_extract_generators``, computed on first read; a bitset that is
    not closed under multiplication raises PermlatError there, not here.
    """

    __slots__ = ("parent", "members", "order", "_gens")

    def __init__(self, parent: Group, members: int, generator_indices=None):
        self.parent = parent
        self.members = members
        self.order = members.bit_count()
        if not members & 1:
            raise PermlatError("subgroup must contain the identity")
        if parent.order % self.order:
            raise PermlatError(
                f"order {self.order} does not divide group order {parent.order}"
            )
        self._gens = None if generator_indices is None else tuple(generator_indices)

    @property
    def generator_indices(self) -> tuple[int, ...]:
        if self._gens is None:
            self._gens = _extract_generators(self.parent.table(), self.members)
        return self._gens

    @property
    def generators(self) -> tuple[Perm, ...]:
        return tuple(self.parent.elements[i] for i in self.generator_indices)

    def element_indices(self) -> list[int]:
        return list(_iter_bits(self.members))

    def is_full(self) -> bool:
        return self.order == self.parent.order

    def is_cyclic(self) -> bool:
        orders = self.parent.element_orders()
        return any(orders[i] == self.order for i in _iter_bits(self.members))

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise on the parent's table."""
        t = self.parent.table()
        gens = self.generator_indices
        return all(t[a][b] == t[b][a] for i, a in enumerate(gens) for b in gens[i + 1:])

    def as_group(self) -> Group:
        """A fresh standalone Group, whose table is built from the
        subgroup's generators on first use."""
        elements = tuple(self.parent.elements[i] for i in self.element_indices())
        return Group(self.parent.degree, self.generators, elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def describe(self) -> str:
        gens = ", ".join(p.cycle_notation() for p in self.generators) or "()"
        return f"<order {self.order}: {gens}>"

    def __repr__(self) -> str:
        return f"Subgroup{self.describe()}"


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def close_generators(
    degree: int,
    gens: Sequence[Perm],
    cap: int = DEFAULT_GROUP_CAP,
    name: Optional[str] = None,
) -> Group:
    """Group generated by ``gens`` via breadth-first closure.

    The search runs on image tuples: each generator g becomes one gather
    through g's images, so x*g is ``tuple(map(step, x.images))``, and the
    permutations are built once, in sorted order, at the end. Raises
    GroupOrderCapError as soon as the element count exceeds ``cap``.
    """
    if degree < 1:
        raise PermlatError("degree must be at least 1")
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(
                f"generator degree {g.degree} != group degree {degree}"
            )
    identity = Perm.identity(degree).images
    seen = {identity}
    steps = [((0,) + g.images).__getitem__ for g in gens if not g.is_identity()]
    queue = [identity]
    while queue:
        x = queue.pop()
        for step in steps:
            y = tuple(map(step, x))
            if y not in seen:
                seen.add(y)
                queue.append(y)
                if len(seen) > cap:
                    raise GroupOrderCapError(
                        f"group order exceeds cap {cap}", cap
                    )
    elems = [Perm._unchecked(y) for y in sorted(seen)]
    return Group(degree, gens, elems, name=name)


def group_from_cayley(
    cay: CayleyTable,
    name: Optional[str] = None,
    generator_indices: Optional[Sequence[int]] = None,
) -> Group:
    """Permutation group of degree ``order`` via the regular representation.

    Element g becomes the permutation x -> x*g of the index set, which makes
    the representation a homomorphism under left-to-right composition. The
    group is closed from the images of ``generator_indices``, by default the
    generators that ``CayleyTable.validate`` checks; PermlatError unless
    they generate the table's whole group.
    """
    n = cay.order
    t = cay.table
    if generator_indices is None:
        generator_indices = _right_generators(t, cay.identity_index)
    gens = [Perm._unchecked(tuple(row[g] + 1 for row in t)) for g in generator_indices]
    group = close_generators(n, gens, cap=n, name=name)
    if group.order != n:
        raise PermlatError(f"the generators give order {group.order}, not {n}")
    return group


def direct_product(a: Group, b: Group, cap: int = DEFAULT_GROUP_CAP) -> Group:
    """Direct product acting on the disjoint union of the two point sets."""
    order = a.order * b.order
    if order > cap:
        raise GroupOrderCapError(f"product order {order} exceeds cap {cap}", cap)
    da = a.degree
    identity_b = tuple(range(da + 1, da + b.degree + 1))

    shifted = [tuple(x + da for x in q.images) for q in b.elements]
    elements = [Perm._unchecked(p.images + s) for p in a.elements for s in shifted]
    ta, tb = a.table(), b.table()
    nb = b.order
    table = [[x * nb + y for x in row_a for y in row_b] for row_a in ta for row_b in tb]
    identity_a = tuple(range(1, da + 1))
    gens = [Perm._unchecked(p.images + identity_b) for p in a.generators]
    gens += [
        Perm._unchecked(identity_a + tuple(x + da for x in q.images))
        for q in b.generators
    ]
    name = f"{a.name} x {b.name}" if a.name and b.name else None
    return Group(da + b.degree, gens, elements, name=name, table=table)


def wreath_regular(bottom: Group, k: int, cap: int = DEFAULT_GROUP_CAP) -> Group:
    """Regular wreath product of ``bottom`` by C_k, in its imprimitive action.

    With d = bottom.degree the group acts on k*d points split into the
    blocks {i*d+1, ..., (i+1)*d}. Its generators are bottom's generators
    copied onto each block, plus the block shift i*d+x -> ((i+1) mod k)*d+x.
    S3 wr C3 thus has degree 9 rather than the 648 of its regular
    representation. The order |bottom|^k * k is checked against ``cap``
    before anything is closed.
    """
    if k < 1:
        raise PermlatError("wreath degree must be at least 1")
    order = bottom.order**k * k
    if order > cap:
        raise GroupOrderCapError(f"wreath order {order} exceeds cap {cap}", cap)
    d = bottom.degree
    points = tuple(range(1, k * d + 1))
    gens = [
        Perm._unchecked(
            points[: i * d] + tuple(x + i * d for x in g.images) + points[(i + 1) * d:]
        )
        for i in range(k)
        for g in bottom.generators
    ]
    if k > 1:
        gens.append(Perm._unchecked(points[d:] + points[:d]))
    return close_generators(k * d, gens, cap=cap)


def p_residual(group: Group, p: int) -> Subgroup:
    """Smallest normal subgroup with p-power index.

    Computed as the subgroup generated by all elements of order coprime to
    p; equality with the normal-subgroup characterization is covered by the
    test suite.
    """
    t = group.table()
    orders = group.element_orders()
    bits = 1
    gens: list[int] = []
    for i in range(1, group.order):
        if orders[i] % p and not (bits >> i) & 1:
            bits = _close_bits(t, bits, tuple(gens), (i,))
            gens.append(i)
    return Subgroup(group, bits, tuple(gens))
