"""Slow reference implementations used to cross-check the fast code.

Everything here works directly on a group's multiplication table with
plain Python sets of element indices. No bitsets, no shared closure
code, and a different enumeration strategy, so agreement with the
library is a meaningful check rather than the same bug twice.

The exceptions are ``section_wss_oracle``, ``quotient_answers`` and
``tower_answers``: they answer questions about a section K/N or a
quotient G/N the long way, by building it as a group of its own with
``quotient`` (the library builds none), and so cross-check the library's
in-table and in-lattice answers against an independent construction. In
the same way
``wreath_by_semidirect`` builds a wreath product from its multiplication
rule rather than from permutations of blocks, ``dicyclic_table`` writes
a dicyclic group's full table from the rule on normal forms rather than
from two generators, and ``l2_1_all_entries``
runs Lemma 2.1's loops over every lattice entry with the library's own
predicates, to cross-check the checker's one-entry-per-class loops; it
closes each product NE itself rather than reading it off the lattice.
``supplement_scan_oracle`` likewise builds the full supplement list
(``supplements``) and H_sG (``hsg_join_oracle``) before it looks for
a witness, to cross-check the library's early-exit scan. The join oracle
takes the set closure of N and every s-permutable subgroup inside H, so
it also cross-checks the library's reading of H_sG as the largest
s-permutable subgroup inside H (Kegel). ``supersolvable_supplement_oracle``
walks the same list with each supplement built as a group of its own, and
``c_normal_oracle`` with normality and the core taken on element sets.
``compose`` and ``naive_closure`` work below the table, on image tuples:
they pin the package's gathered products and closures to the definition
of left-to-right composition. ``report_dict`` and ``verdict_dict`` give
the JSON report as plain dicts, from the schema's key lists, so that
``json.dumps`` can be the reference the package's writer is checked
against.
"""

from __future__ import annotations

import itertools
import math
import weakref

from typing import NamedTuple

from permlat import __version__
from permlat.embedding import is_weakly_s_supplemented, subnormal_in
from permlat.errors import NotNormalError, PermlatError
from permlat.groups import (
    CayleyTable,
    Group,
    Subgroup,
    _conjugate_bits,
    close_generators,
    group_from_cayley,
)
from permlat.lattice import enumerate_subgroups
from permlat.perms import Perm
from permlat.reports import SCHEMA_VERSION, TOOL_NAME
from permlat.statements import _implication
from permlat.structure import is_supersolvable, u_hypercenter


def compose(a, b):
    """Image tuple of a followed by b, straight from the definition:
    x goes to b(a(x))."""
    return tuple(b[x - 1] for x in a)


def naive_closure(degree, gens):
    """Sorted image tuples of the group generated by the image tuples
    ``gens``: every element found so far times every generator, by
    ``compose``, until a round adds nothing."""
    cur = {tuple(range(1, degree + 1))}
    while True:
        new = {compose(x, g) for x in cur for g in gens} - cur
        if not new:
            return sorted(cur)
        cur |= new


def close_set(t, seed):
    """Product closure of a set of element indices. 0 is the identity.

    Rescans the whole current set each round. Quadratic and proud of it.
    """
    cur = {0} | set(seed)
    while True:
        add = set()
        for a in cur:
            row = t[a]
            for b in cur:
                c = row[b]
                if c not in cur:
                    add.add(c)
        if not add:
            return frozenset(cur)
        cur |= add


def is_subgroup_set(group, elems):
    t = group.table()
    inv = group.inverse_table()
    if 0 not in elems:
        return False
    for a in elems:
        if inv[a] not in elems:
            return False
        for b in elems:
            if t[a][b] not in elems:
                return False
    return True


def brute_subgroups(group):
    """Every subgroup of the group, as frozensets of element indices.

    Seeds with every cyclic subgroup, then joins each known subgroup
    with each cyclic one until nothing new appears. Any subgroup
    <x1,...,xk> is reached through the prefix chain of those joins.
    """
    t = group.table()
    cyclics = {close_set(t, [i]) for i in range(1, group.order)}
    found = {frozenset([0])} | cyclics
    work = list(found)
    while work:
        base = work.pop()
        for cyc in cyclics:
            if cyc <= base:
                continue
            joined = close_set(t, base | cyc)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    for sub in found:
        assert is_subgroup_set(group, sub)
    return found


def brute_is_normal(group, elems, over=None):
    """Conjugates every member by every group element (or every element
    of ``over``), no orbit tricks."""
    t = group.table()
    inv = group.inverse_table()
    for g in range(group.order) if over is None else over:
        gi = inv[g]
        for x in elems:
            if t[t[gi][x]][g] not in elems:
                return False
    return True


def is_normal(sub):
    """Whether the subgroup is normal in its parent: each generator of the
    parent conjugates it onto itself."""
    g = sub.parent
    t, inv = g.table(), g.inverse_table()
    return all(
        _conjugate_bits(t, inv, sub.members, x) == sub.members
        for x in g.generator_indices()
    )


def conjugation_partition(group, sets):
    """Classes of the given subgroups under conjugation by the generators.

    Joins each set with its conjugate by every generator in a union-find,
    then returns the classes as sorted position lists, ordered by their
    lowest position.
    """
    t = group.table()
    inv = group.inverse_table()
    gens = [group.index_of(p) for p in group.generators]
    pos = {frozenset(s): i for i, s in enumerate(sets)}
    parent = list(range(len(sets)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, s in enumerate(sets):
        for g in gens:
            conj = frozenset(t[t[inv[g]][x]][g] for x in s)
            a, b = find(i), find(pos[conj])
            if a != b:
                parent[max(a, b)] = min(a, b)
    classes = {}
    for i in range(len(sets)):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values())


def brute_normal_subgroups(group):
    return [s for s in brute_subgroups(group) if brute_is_normal(group, s)]


def prime_chain_reachable(group, normal_sets):
    """Normal subgroups reachable from the trivial one by prime-index steps.

    A step goes from N to M when N < M and [M:N] is prime; both ends
    must be normal in the whole group. Reachability from 1 says exactly
    that every chief factor below the endpoint has prime order.
    """
    sets = sorted({frozenset(s) for s in normal_sets}, key=len)
    reached = {frozenset([0])}
    grew = True
    while grew:
        grew = False
        for m in sets:
            if m in reached:
                continue
            for n in reached:
                if len(m) % len(n) != 0:
                    continue
                if _is_prime(len(m) // len(n)) and n < m:
                    reached.add(m)
                    grew = True
                    break
    return reached


def chain_hypercenter(group, normal_sets=None):
    """Largest normal subgroup reachable through prime-index refinement.

    With normal_sets omitted the normal subgroups are found by brute
    force too (fine up to order ~50); callers with bigger groups pass
    their own list.
    """
    if normal_sets is None:
        normal_sets = brute_normal_subgroups(group)
    reached = prime_chain_reachable(group, normal_sets)
    best = max(reached, key=len)
    for r in reached:
        assert r <= best, "reachable set has two maximal elements"
    return best


def brute_supersolvable(group, normal_sets=None):
    return len(chain_hypercenter(group, normal_sets)) == group.order


def commutator_closure(group):
    """Subgroup generated by all commutators a^-1 b^-1 a b."""
    t = group.table()
    inv = group.inverse_table()
    n = group.order
    comms = set()
    for a in range(n):
        for b in range(n):
            comms.add(t[t[t[inv[a]][inv[b]]][a]][b])
    return close_set(t, comms)


def permutes(h, k):
    """True iff HK = KH, i.e. the closure of H and K, which holds the set
    HK, has exactly the |H||K|/|H meet K| elements of that set."""
    hs, ks = set(h.element_indices()), set(k.element_indices())
    return len(close_set(h.parent.table(), hs | ks)) == len(hs) * len(ks) // len(hs & ks)


def naive_product_set(group, a_elems, b_elems):
    t = group.table()
    return {t[a][b] for a in a_elems for b in b_elems}


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_is_associative(table):
    """(a*b)*c == a*(b*c) on every triple, one triple at a time."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1.

    With 0 as the identity these are exactly the loops of order n on a
    fixed labelling. Plain backtracking, cell by cell in row order.
    """
    rows = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]
    out = []

    def fill(cell):
        if cell == n * n:
            out.append([list(r) for r in rows])
            return
        r, c = divmod(cell, n)
        if rows[r][c] is not None:
            fill(cell + 1)
            return
        used = set(rows[r][:c]) | {rows[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                rows[r][c] = v
                fill(cell + 1)
                rows[r][c] = None

    fill(0)
    return out


def section_wss_oracle(k, n):
    """Predicate on the subgroups H with N <= H <= K of G (N normal in K):
    whether H/N is weakly s-supplemented in K/N.

    Rebuilds the section: K as a group of its own (``as_group``) unless it
    is G, then its quotient by N (``quotient``) unless N is trivial, then
    that group's own lattice.
    """
    if k.is_full():
        ambient, pos = k.parent, list(range(k.parent.order))
    else:
        ambient = k.as_group()
        pos = {gi: ki for ki, gi in enumerate(k.element_indices())}
    proj = list(range(ambient.order))
    if n.order > 1:
        n_bits = sum(1 << pos[gi] for gi in n.element_indices())
        qr = quotient(ambient, Subgroup(ambient, n_bits))
        ambient, proj = qr.group, qr.projection
    lat = enumerate_subgroups(ambient)

    def wss(h):
        images = {proj[pos[gi]] for gi in h.element_indices()}
        bits = sum(1 << i for i in images)
        return is_weakly_s_supplemented(lat, lat.entry(bits)) is not None

    return wss


def _section_sets(lat, section):
    """(K, N, [(X, elements of X)] for the entries N <= X <= K), the whole
    group when ``section`` is None."""
    k, n = section or (lat.top(), lat.bottom())
    entries = [
        (x, frozenset(x.element_indices()))
        for x in lat.subgroups
        if n.members & ~x.members == 0 and x.members & ~k.members == 0
    ]
    return k, n, entries


def supplements(lat, h, section=None):
    """Every entry T of the section, in canonical order, with H*T = K as
    a set: |H||T| = |K||H meet T|, since H*T lies in K."""
    k, _n, entries = _section_sets(lat, section)
    hs = set(h.element_indices())
    return [
        t for t, ts in entries if h.order * t.order == k.order * len(hs & ts)
    ]


_JOIN_ORACLES = weakref.WeakKeyDictionary()


def hsg_join_oracle(lat, section=None):
    """H -> bits of H_sG in the section K/N (the whole group when None):
    the set closure of N and of every entry X with N <= X <= H that is
    s-permutable in the section. X/N is s-permutable when XS = SX as
    product sets for every Sylow S/N of K/N, the entries of order |N|
    times the p-part of |K:N|. Kept per lattice and section, since every
    call for one section shares that work."""
    key = None if section is None else (section[0].members, section[1].members)
    per_lat = _JOIN_ORACLES.setdefault(lat, {})
    if key in per_lat:
        return per_lat[key]
    g = lat.group
    t = g.table()
    k, n, entries = _section_sets(lat, section)
    index = k.order // n.order
    sylow_orders = {
        n.order * _p_part(index, p)
        for p in range(2, index + 1)
        if index % p == 0 and _is_prime(p)
    }
    sylows = [xs for x, xs in entries if x.order in sylow_orders]
    s_permutable = [
        xs
        for _x, xs in entries
        if all(naive_product_set(g, xs, ss) == naive_product_set(g, ss, xs) for ss in sylows)
    ]
    n_elems = frozenset(n.element_indices())
    closures = {}

    def join(h):
        hs = frozenset(h.element_indices())
        seed = n_elems.union(*(xs for xs in s_permutable if xs <= hs))
        if seed not in closures:
            closures[seed] = sum(1 << i for i in close_set(t, seed))
        return closures[seed]

    per_lat[key] = join
    return join


def supplement_scan_oracle(lat, h, require_subnormal=False, section=None):
    """Weak s-supplementation of H (weak s-permutability when
    ``require_subnormal``) from the full list of H's supplements and
    H_sG, both computed up front by the oracles above: (T, H meet T,
    H_sG) for the first admissible T in canonical order, else None."""
    hsg = hsg_join_oracle(lat, section)(h)
    for t in supplements(lat, h, section):
        if require_subnormal and not subnormal_in(lat, t):
            continue
        inter = h.members & t.members
        if inter & ~hsg == 0:
            return t, lat.entry(inter), lat.entry(hsg)
    return None


def supersolvable_supplement_oracle(lat, h):
    """The first supplement T of H in G, in canonical order, that is
    supersolvable as a group of its own, else None."""
    for t in supplements(lat, h):
        if is_supersolvable(t.as_group()):
            return t
    return None


def c_normal_oracle(lat, h):
    """The first supplement T of H in G, in canonical order, that is
    normal (every element conjugates it onto itself) and meets H inside
    the intersection of H's conjugates, taken on element sets; else None."""
    g = lat.group
    t, inv = g.table(), g.inverse_table()
    hs = frozenset(h.element_indices())
    core = frozenset.intersection(
        *(frozenset(t[t[inv[x]][y]][x] for y in hs) for x in range(g.order))
    )
    for sup in supplements(lat, h):
        ts = frozenset(sup.element_indices())
        if brute_is_normal(g, ts) and hs & ts <= core:
            return sup
    return None


def quotient_answers(g, n):
    """(G/N supersolvable, bits of the preimage in G of the supersolvable
    hypercenter of G/N), from G/N built as a group of its own."""
    qr = quotient(g, n)
    z = u_hypercenter(qr.group).members
    bits = sum(1 << i for i, j in enumerate(qr.projection) if (z >> j) & 1)
    return is_supersolvable(qr.group), bits


def wreath_by_semidirect(bottom, k):
    """bottom^k x| C_k through its regular representation.

    Pairs (f, c) of a k-tuple f of bottom's elements and c in Z_k multiply
    by (f1, c1)(f2, c2) = (f1 * shift_c1(f2), c1 + c2), where shift_c
    moves coordinate i to i + c mod k. Pair (f, c) has index f * k + c,
    with f numbered in ``itertools.product`` order.
    """
    t = bottom.table()
    fs = list(itertools.product(range(bottom.order), repeat=k))
    index = {f: i for i, f in enumerate(fs)}
    shift = [
        [index[tuple(f[(i - c) % k] for i in range(k))] for f in fs] for c in range(k)
    ]
    mul = [[index[tuple(t[a][b] for a, b in zip(f, g))] for g in fs] for f in fs]
    table = [
        [mul[f1][shift[c1][f2]] * k + (c1 + c2) % k for f2 in range(len(fs)) for c2 in range(k)]
        for f1 in range(len(fs))
        for c1 in range(k)
    ]
    return group_from_cayley(CayleyTable(table))


def dicyclic_table(m):
    """The Cayley table of the dicyclic group of order 4m (a of order 2m,
    b^2 = a^m, b inverts a) on its normal forms a^i b^j, with a^i b^j the
    index j*2m + i, and the indices of a and b."""
    two_m = 2 * m

    def pack(i, j):
        return j * two_m + i

    table = [[0] * (4 * m) for _ in range(4 * m)]
    for i1, j1, i2, j2 in itertools.product(range(two_m), (0, 1), range(two_m), (0, 1)):
        if j1 == 0:
            r = pack((i1 + i2) % two_m, j2)
        elif j2 == 0:
            r = pack((i1 - i2) % two_m, 1)
        else:
            r = pack((i1 - i2 + m) % two_m, 0)
        table[pack(i1, j1)][pack(i2, j2)] = r
    return table, (pack(1, 0), pack(0, 1))


def l2_1_all_entries(ga):
    """Lemma 2.1's three verdicts with K, and E, running over every entry
    of G's lattice rather than one per conjugacy class."""
    lat = ga.lat
    top = lat.top()
    bottom = lat.bottom()
    wss = is_weakly_s_supplemented
    verdicts = []

    fails = []
    count = 0
    for h in lat.normal_subgroups():
        if h.is_full():
            continue
        for k in lat.subgroups:
            if h.members & ~k.members:
                continue
            count += 1
            in_quotient = wss(lat, k, (top, h)) is not None
            in_group = wss(lat, k) is not None
            if in_quotient != in_group:
                fails.append(f"H={ga.label(h)} K={ga.label(k)}")
    verdicts.append(_implication("L2.1", ga.name, "(i)", count > 0, fails))

    fails = []
    count = 0
    for k in lat.subgroups:
        if k.is_full() or k.order == 1:
            continue
        for h in lat.within(k.members):
            if not wss(lat, h):
                continue
            count += 1
            if not wss(lat, h, (k, bottom)):
                fails.append(f"H={ga.label(h)} K={ga.label(k)}")
    verdicts.append(_implication("L2.1", ga.name, "(ii)", count > 0, fails))

    fails = []
    count = 0
    for n in lat.normal_subgroups():
        if n.is_full():
            continue
        for e in lat.subgroups:
            if math.gcd(n.order, e.order) != 1 or not wss(lat, e):
                continue
            count += 1
            ne = close_set(lat.group.table(), set(n.element_indices()) | set(e.element_indices()))
            if not wss(lat, lat.entry(_bits(ne)), (top, n)):
                fails.append(f"N={ga.label(n)} E={ga.label(e)}")
    verdicts.append(_implication("L2.1", ga.name, "(iii)", count > 0, fails))
    return verdicts


class QuotientResult(NamedTuple):
    group: Group
    projection: tuple[int, ...]


def quotient(group, normal):
    """Quotient acting on right cosets, with the index-level projection map.

    The quotient group has degree |G : N|; projection[i] is the quotient
    element index of the i-th element of G.
    """
    if normal.parent is not group:
        raise PermlatError("subgroup does not belong to this group")
    if not is_normal(normal):
        raise NotNormalError("cannot quotient by a non-normal subgroup")
    t = group.table()
    n = group.order
    nmembers = normal.element_indices()
    m = n // normal.order
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] == -1:
            cid = len(reps)
            reps.append(x)
            for b in nmembers:
                coset_of[t[b][x]] = cid
    perms = [
        Perm._unchecked(tuple(coset_of[t[reps[i]][reps[j]]] + 1 for i in range(m)))
        for j in range(m)
    ]
    order_idx = sorted(range(m), key=lambda j: perms[j].images)
    pos = [0] * m
    for new, old in enumerate(order_idx):
        pos[old] = new
    elements = tuple(perms[old] for old in order_idx)
    table = [
        [pos[coset_of[t[reps[order_idx[a]]][reps[order_idx[b]]]]] for b in range(m)]
        for a in range(m)
    ]
    projection = tuple(pos[coset_of[x]] for x in range(n))
    gens = []
    seen_gens = set()
    for gi in group.generator_indices():
        q = projection[gi]
        if q != 0 and q not in seen_gens:
            seen_gens.add(q)
            gens.append(elements[q])
    qname = f"{group.name}/{normal.order}" if group.name else None
    qgroup = Group(m, tuple(gens), elements, name=qname, table=table)
    return QuotientResult(qgroup, projection)


def _bits(elems):
    return sum(1 << i for i in elems)


def normalizer(h):
    """N_G(H): the elements x of G with x^-1 H x = H, as a Subgroup."""
    g = h.parent
    t = g.table()
    inv = g.inverse_table()
    elems = set(h.element_indices())
    keep = [
        x for x in range(g.order) if {t[t[inv[x]][y]][x] for y in elems} == elems
    ]
    return Subgroup(g, _bits(keep))


def element_closures(group):
    """(conjugacy class, normal closure of its elements) per class, as
    frozensets: each class found by conjugating one element by the whole
    group, its closure grown breadth-first by products with the class.
    Kept in the group's memo under a key of its own."""
    memo = group._memo
    if "oracle_closures" not in memo:
        memo["oracle_closures"] = _element_closures(group)
    return memo["oracle_closures"]


def _element_closures(group):
    t = group.table()
    inv = group.inverse_table()
    seen = set()
    out = []
    for x in range(group.order):
        if x in seen:
            continue
        cls = frozenset(t[t[inv[g]][x]][g] for g in range(group.order))
        seen |= cls
        ncl = {0}
        frontier = [0]
        while frontier:
            y = frontier.pop()
            for c in cls:
                z = t[y][c]
                if z not in ncl:
                    ncl.add(z)
                    frontier.append(z)
        out.append((cls, frozenset(ncl)))
    return out


def _p_part(n, p):
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def _is_p_power(n, p):
    return _p_part(n, p) == n


def is_nilpotent_set(group, elems):
    """Every Sylow subgroup of the subgroup normal: for each p its
    p-elements number exactly its p-part."""
    orders = group.element_orders()
    n = len(elems)
    for p in range(2, n + 1):
        if n % p == 0 and _is_prime(p):
            count = sum(1 for x in elems if _is_p_power(orders[x], p))
            if count != _p_part(n, p):
                return False
    return True


def brute_core(group, keep):
    """Bits of the largest normal subgroup in a class ``keep`` that is
    closed under normal subgroups and products of normal subgroups
    (pi-groups, nilpotent groups): x lies in it iff the normal closure
    of x passes ``keep``."""
    return _bits(x for cls, ncl in element_closures(group) if keep(ncl) for x in cls)


def brute_minimal_normals(group):
    """Bits of the minimal normal subgroups, by (order, bitset): the
    minimal ones among the normal closures of single elements."""
    cands = {ncl for _, ncl in element_closures(group) if len(ncl) > 1}
    mins = [c for c in cands if not any(o < c for o in cands)]
    return sorted((_bits(c) for c in mins), key=lambda b: (b.bit_count(), b))


def quotient_tower(group, step):
    """Walk down G -> G/N1 -> G/N2 -> ..., where ``step(Q)`` gives the bits
    of the next normal subgroup of the current quotient Q (None or 1 to
    stop). Yields the bits of each one's preimage in G; stops once the
    quotient is trivial."""
    cur = group
    proj = list(range(group.order))
    while cur.order > 1:
        n = step(cur)
        if n is None or n == 1:
            return
        yield _bits(i for i, j in enumerate(proj) if (n >> j) & 1)
        if n.bit_count() == cur.order:
            return
        qr = quotient(cur, Subgroup(cur, n))
        proj = [qr.projection[j] for j in proj]
        cur = qr.group


def tower_chief_chain(group, prefer="low"):
    """Bits of a chief series, 1 first, choosing at each quotient its
    minimal normal subgroup of lowest (prefer="low") or highest (order,
    bitset)."""
    pick = 0 if prefer == "low" else -1
    return [1] + list(quotient_tower(group, lambda q: brute_minimal_normals(q)[pick]))


def chain_factors(chain):
    """The indices |N_{i+1} : N_i| along a chain of bitsets."""
    return [high.bit_count() // low.bit_count() for low, high in zip(chain, chain[1:])]


def tower_upper_p_series(group, p):
    """Bits of the upper p-series 1 <= O_p' <= O_p'p <= ..., 1 first, and
    the count of its p-layers."""
    layers = []

    def step(q):
        if not layers or layers[-1]:
            opp = brute_core(q, lambda s: len(s) % p != 0)
            if opp != 1:
                layers.append(False)
                return opp
        op = brute_core(q, lambda s: _is_p_power(len(s), p))
        assert op != 1, "upper p-series stalled"
        layers.append(True)
        return op

    series = [1] + list(quotient_tower(group, step))
    return series, sum(layers)


def tower_sylow_tower(group):
    """Peel normal Sylow subgroups off, largest prime first, through
    quotient groups."""
    cur = group
    while cur.order > 1:
        q = max(cur.prime_factorization)
        orders = cur.element_orders()
        sylow = [i for i in range(cur.order) if _is_p_power(orders[i], q)]
        if len(sylow) != _p_part(cur.order, q):
            return False
        cur = quotient(cur, Subgroup(cur, _bits(sylow))).group
    return True


def tower_answers(group):
    """The structure answers of G, each quotient built as a group of its
    own: the hypercenter and U-hypercenter as bits, O_p, O_p' and the
    Fitting subgroup as bits, the upper p-series and p-length per prime
    (None when G is not p-solvable), supersolvability, p-solvability, a
    Sylow tower, and the sorted chief-factor orders."""

    def last(step):
        bits = 1
        for bits in quotient_tower(group, step):
            pass
        return bits

    def center(q):
        t = q.table()
        everything = range(q.order)
        return _bits(x for x in everything if all(t[x][g] == t[g][x] for g in everything))

    def u_layer(q):
        layer = [m for m in brute_minimal_normals(q) if _is_prime(m.bit_count())]
        if not layer:
            return None
        union = [i for i in range(q.order) if any((m >> i) & 1 for m in layer)]
        return _bits(close_set(q.table(), union))

    factors = sorted(chain_factors(tower_chief_chain(group)))
    primes = sorted(group.prime_factorization)
    p_solvable = {p: all(_p_part(f, p) in (1, f) for f in factors) for p in primes}
    series = {
        p: tower_upper_p_series(group, p) if p_solvable[p] else ([], None) for p in primes
    }
    return {
        "hypercenter": last(center),
        "u_hypercenter": last(u_layer),
        "O_p": {p: brute_core(group, lambda s, p=p: _is_p_power(len(s), p)) for p in primes},
        "O_p'": {p: brute_core(group, lambda s, p=p: len(s) % p) for p in primes},
        "fitting": brute_core(group, lambda s: is_nilpotent_set(group, s)),
        "upper_p_series": {p: series[p][0] for p in primes},
        "p_length": {p: series[p][1] for p in primes},
        "supersolvable": all(_is_prime(f) for f in factors),
        "p_solvable": p_solvable,
        "sylow_tower": tower_sylow_tower(group),
        "chief_factors": factors,
    }


def agl23():
    """AGL(2,3) on the 9 points of F_3^2, (x, y) numbered 1 + x + 3y."""

    def perm(f):
        images = {}
        for y in range(3):
            for x in range(3):
                u, v = f(x, y)
                images[1 + x + 3 * y] = 1 + u % 3 + 3 * (v % 3)
        cycles, seen = [], set()
        for start in range(1, 10):
            cyc = [start]
            seen.add(start)
            while images[cyc[-1]] not in seen:
                cyc.append(images[cyc[-1]])
                seen.add(cyc[-1])
            if len(cyc) > 1:
                cycles.append(tuple(cyc))
        return Perm.from_cycles(9, cycles)

    return close_generators(
        9,
        [
            perm(lambda x, y: (x + 1, y)),
            perm(lambda x, y: (2 * x, y)),
            perm(lambda x, y: (2 * x + y, 2 * x)),
        ],
        name="AGL(2,3)",
    )


# The JSON report's schema: its top-level keys, then ``timings`` when
# timed, and each verdict row's keys, in order.
REPORT_KEYS = (
    "schema_version",
    "tool",
    "version",
    "corpus",
    "caps",
    "statements",
    "consistent",
    "verdicts",
    "flags",
    "truncations",
)
VERDICT_KEYS = (
    "statement",
    "group",
    "instance",
    "hypothesis_satisfied",
    "conclusion_holds",
    "consistent",
    "witnesses",
)


def verdict_dict(v):
    """A verdict row of the JSON report, one value per schema key."""
    values = (
        v.statement_id,
        v.group_id,
        v.instance,
        v.hypothesis_satisfied,
        v.conclusion_holds,
        v.consistent,
        list(v.witnesses),
    )
    return dict(zip(VERDICT_KEYS, values, strict=True))


def report_dict(rep):
    """The JSON report of a VerificationReport as a dict: json.dumps of
    it with indent 2, plus a newline, is the report's text."""
    values = (
        SCHEMA_VERSION,
        TOOL_NAME,
        __version__,
        rep.corpus_description,
        dict(sorted(rep.caps.items())),
        rep.statements,
        all(v.consistent for v in rep.verdicts),
        [verdict_dict(v) for v in sorted(rep.verdicts, key=_verdict_order)],
        [verdict_dict(v) for v in rep.flags],
        sorted(rep.truncations),
    )
    out = dict(zip(REPORT_KEYS, values, strict=True))
    if rep.skipped:
        out["skipped"] = rep.skipped
    if rep.timings is not None:
        out["timings"] = rep.timings
    return out


def _verdict_order(v):
    return (v.group_id, v.statement_id, v.instance)
