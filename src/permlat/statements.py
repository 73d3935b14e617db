"""Verification harness: hypothesis/conclusion checkers for the cataloged
statements (ids thmB, thm12, L2.1..L2.9, L3.1, C3.2, L3.3, L3.5,
C4.3..C4.12, remark1) and the q13 scanner.

The statement ids are opaque labels fixed by the CLI contract. Every
checker evaluates "hypothesis implies conclusion" instances over a group
and reports Verdicts; a consistent=False verdict is a build-breaking
event for any statement in the catalog. For these implications
``consistent`` is derived in one place, ``_verdict``: an instance is
inconsistent exactly when its hypothesis holds and its conclusion fails.

The registry ``STATEMENTS`` also holds the q13 scan, an entry of kind
"scan" that is not in ``STATEMENT_IDS``: its verdicts with a satisfied
hypothesis and a failed conclusion are counterexample candidates (flags),
and it is inconsistent only where a flag also meets one of the proved
theorem's conditions. Entries marked ``pairs_e`` pair each group with its
largest normal subgroups E, at most ``max_normal_e`` of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import NotNormalError, PermlatError
from .groups import (
    Group,
    Subgroup,
    _conjugate_bits,
    _factorize,
    _memoized,
    p_residual,
)
from .corpus import _alternating_named
from .lattice import (
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_NORMAL_E,
    SubgroupLattice,
    enumerate_subgroups,
)
from .structure import (
    _derived_bits,
    _is_nilpotent_bits,
    _u_hypercenter_bits,
    derived_series,
    exponent,
    fingerprint,
    fitting_subgroup,
    iota,
    is_p_solvable,
    is_simple,
    is_solvable,
    is_supersolvable,
    minimal_normal_subgroups,
    p_core,
    p_length,
    p_prime_core,
    u_hypercenter,
)
from .embedding import (
    has_supersolvable_supplement,
    is_c_normal,
    is_permutable,
    is_s_permutable,
    is_weakly_s_permutable,
    is_weakly_s_supplemented,
)


class Verdict(NamedTuple):
    """One checked instance of a statement on a group."""

    statement_id: str
    group_id: str
    instance: str
    hypothesis_satisfied: bool
    conclusion_holds: Optional[bool]
    consistent: bool
    witnesses: tuple = ()


def _verdict(statement_id, group_id, instance, hypothesis, conclusion, witnesses=()):
    """Verdict for one instance of an implication: consistent unless the
    hypothesis holds and the conclusion fails."""
    return Verdict(
        statement_id,
        group_id,
        instance,
        hypothesis_satisfied=hypothesis,
        conclusion_holds=conclusion,
        consistent=(not hypothesis) or bool(conclusion),
        witnesses=tuple(witnesses),
    )


def _implication(statement_id, group_id, instance, qualifying, failures, witnesses=()):
    """Verdict for a universally quantified implication: ``qualifying`` says
    whether any instance met the hypothesis, ``failures`` lists conclusion
    breakers among them."""
    return _verdict(
        statement_id,
        group_id,
        instance,
        qualifying,
        None if not qualifying else not failures,
        tuple(failures[:3]) + tuple(witnesses),
    )


class DOrderEntry(NamedTuple):
    d_order: int
    clause_holds: bool
    failing_h: Optional[str]
    cond_ii: bool
    cond_iii: bool


class SylowReport(NamedTuple):
    p: int
    sylow_order: int
    sylow_cyclic: bool
    cond_i: bool
    d_orders: list
    satisfied: bool
    with_condition: bool


class HypothesisReport(NamedTuple):
    per_prime: list
    hypothesis: bool
    hypothesis_with_condition: bool


class GroupAnalysis:
    """A corpus group with its lazily built lattice.

    Questions about a quotient G/N are answered on G's own lattice and
    table: by the correspondence theorem the subgroups of G/N are the
    entries above N.
    """

    def __init__(
        self,
        group: Group,
        name: Optional[str] = None,
        lattice_cap: int = DEFAULT_LATTICE_CAP,
        max_normal_e: int = DEFAULT_MAX_NORMAL_E,
    ):
        self.group = group
        self.name = name or group.name or f"order{group.order}"
        self.lattice_cap = lattice_cap
        self.max_normal_e = max_normal_e
        self._normal_e: Optional[list] = None

    @functools.cached_property
    def lat(self) -> SubgroupLattice:
        return enumerate_subgroups(self.group, cap=self.lattice_cap)

    def label(self, sub: Subgroup) -> str:
        return f"#{self.lat.index_of(sub):03d}(order {sub.order})"

    def normal_e(self) -> list:
        """Normal subgroups to pair as E, largest first, at most
        ``max_normal_e`` of them; sorted once per group."""
        if self._normal_e is None:
            norms = sorted(
                self.lat.normal_subgroups(), key=lambda s: (-s.order, s.members)
            )
            self._normal_e = norms[: self.max_normal_e]
        return self._normal_e

    @property
    def e_truncated(self) -> bool:
        """Whether ``normal_e`` leaves out some normal subgroup."""
        return sum(self.lat.normal_flags) > self.max_normal_e

    def supersolvable_mod(self, n: Subgroup) -> bool:
        """Whether G/N is supersolvable: iff its U-hypercenter is all of G/N."""
        return self.u_hypercenter_mod(n) == self.lat.top().members

    def u_hypercenter_mod(self, n: Subgroup) -> int:
        """Bits of the preimage of the supersolvable hypercenter of G/N
        (``structure.u_hypercenter``'s walk started at N)."""
        if not self.lat.is_normal(n):
            raise NotNormalError("quotient by a subgroup that is not normal")
        return _u_hypercenter_bits(self.group, n)


def _frattini_bits(lat: SubgroupLattice, p_sub: Subgroup, p: int) -> int:
    """Bits of Phi(P) for a p-subgroup entry P: by Burnside's basis theorem
    the meet of P's index-p subgroups, read off G's lattice."""
    return lat.meet(lat.within(p_sub.members, order=p_sub.order // p)).members


def _hall_meet_bits(lat: SubgroupLattice, h: Subgroup, p: int) -> int:
    """Bits of O_p'(H) for a p-solvable entry H: the meet of H's entries
    of order |H|_p'. These are its Hall p'-subgroups, all conjugate in H
    (Hall), so their meet is the largest normal p'-subgroup of H."""
    order = h.order // p ** _factorize(h.order).get(p, 0)
    return lat.meet(lat.within(h.members, order=order)).members


def _is_p_nilpotent_entry(lat: SubgroupLattice, t: Subgroup, p: int) -> bool:
    """Whether the entry T has a normal p-complement: a normal Hall
    subgroup is the only subgroup of its order, and a subgroup alone of
    its order is normal, so iff one entry of order |T|_p' lies in T."""
    order = t.order // p ** _factorize(t.order).get(p, 0)
    return len(lat.within(t.members, order=order)) == 1


# -- thmB / thm12 hypothesis machinery ----------------------------------------


def _order_clause(
    lat: SubgroupLattice, p_sub: Subgroup, orders: tuple, mode: str = "supplemented"
):
    """Whether every subgroup of p_sub of each given order that lacks a
    supersolvable supplement in G satisfies the mode's weak property in G.
    The orders are taken in turn, |D| before its 2|D| companion. Returns
    (holds, first failing subgroup description or None)."""
    pred = (
        is_weakly_s_supplemented
        if mode == "supplemented"
        else is_weakly_s_permutable
    )
    for order in orders:
        for h in lat.within(p_sub.members, order=order):
            if has_supersolvable_supplement(lat, h):
                continue
            if pred(lat, h):
                continue
            return False, h.describe()
    return True, None


def sylow_of(ga: GroupAnalysis, e: Subgroup, p: int) -> Subgroup:
    """Lowest-index Sylow p-subgroup of the subgroup e."""
    target = p ** _factorize(e.order).get(p, 0)
    subs = ga.lat.within(e.members, order=target)
    if not subs:
        raise PermlatError(f"no order-{target} subgroup inside {e.describe()}")
    return subs[0]


def thmB_hypothesis(
    ga: GroupAnalysis, e: Subgroup, mode: str = "supplemented"
) -> HypothesisReport:
    """Evaluate the per-Sylow order-|D| clause on a normal subgroup E.

    For each prime p with non-cyclic Sylow P of E and each |D| = p^k with
    0 < k < iota(P): the clause holds iff every subgroup of P of order |D|
    (and of order 2|D| when p = 2, P is nonabelian, and |P:D| > 2) has a
    supersolvable supplement in G or is weakly s-supplemented (mode
    "supplemented") resp. weakly s-permutable (mode "permutable") in G.
    Condition (i) is recorded per P, conditions (ii)/(iii) per (P, |D|);
    the report's hypothesis_with_condition requires, for every non-cyclic
    Sylow, some |D| whose clause AND one of the conditions hold.
    """
    if mode not in ("supplemented", "permutable"):
        raise PermlatError(f"unknown mode {mode!r}")
    lat = ga.lat
    e = lat.entry(e.members)
    if not lat.is_normal(e):
        raise NotNormalError(f"E = {e.describe()} is not normal")
    per_prime = []
    hyp = True
    hyp_cond = True
    for p in sorted(_factorize(e.order)):
        syl = _sylow_clause(lat, sylow_of(ga, e, p), p, mode)
        per_prime.append(syl)
        hyp = hyp and syl.satisfied
        hyp_cond = hyp_cond and syl.with_condition
    return HypothesisReport(per_prime, hyp, hyp_cond)


@_memoized
def _sylow_clause(lat: SubgroupLattice, rep: Subgroup, p: int, mode: str) -> SylowReport:
    """A Sylow P's report. Memoized on the lattice per (P, mode): E plays
    no part. A cyclic P imposes nothing: it has no |D| entries and counts
    as satisfied with a condition, and (i) is not evaluated for it."""
    if rep.is_cyclic():
        return SylowReport(p, rep.order, True, False, [], True, True)
    i_p = iota(rep.order, p)
    derived_bits = _derived_bits(lat.group, rep.generator_indices)[0]
    derived_order = derived_bits.bit_count()
    i_pprime = iota(derived_order, p)
    cond_i = _frattini_bits(lat, rep, p) != derived_bits
    entries = []
    any_clause = False
    any_with_cond = False
    for k in range(1, i_p):
        d = p**k
        two_d = p == 2 and derived_order > 1 and rep.order // d > 2
        holds, failing = _order_clause(lat, rep, (d, 2 * d) if two_d else (d,), mode)
        cond_ii = d <= derived_order
        cond_iii = derived_order < d and (
            math.gcd(i_p - i_pprime, k - i_pprime) == 1
            or math.gcd(i_p, i_p - k) == 1
        )
        entries.append(DOrderEntry(d, holds, failing, cond_ii, cond_iii))
        if holds:
            any_clause = True
            if cond_i or cond_ii or cond_iii:
                any_with_cond = True
    return SylowReport(p, rep.order, False, cond_i, entries, any_clause, any_with_cond)


def _hyp_witnesses(rep: HypothesisReport, flag: bool = False) -> list:
    """One line per Sylow: the first |D| whose clause holds with a
    condition, else the last failing |D|. A q13 flag (``flag``) names
    instead the first |D| whose clause holds with no condition.

    Some condition holds at |D| = p: (iii) when P is abelian, as
    |P'| = 1 < p and gcd(iota(P), 1) = 1, and (ii) when it is not, as
    p <= |P'|. So a Sylow with no |D| of clause and condition fails its
    clause at |D| = p, and a flag's bare clause holds only at |D| >= p^2.
    """
    out = []
    for syl in rep.per_prime:
        if syl.sylow_cyclic:
            out.append(f"p={syl.p}: Sylow cyclic, imposes nothing")
            continue
        holding = [d for d in syl.d_orders if d.clause_holds]
        if syl.with_condition:
            d = next(d for d in holding if syl.cond_i or d.cond_ii or d.cond_iii)
            conds = (
                ("(i)" if syl.cond_i else "")
                + ("(ii)" if d.cond_ii else "")
                + ("(iii)" if d.cond_iii else "")
            )
            out.append(f"p={syl.p}: clause holds at |D|={d.d_order} with {conds}")
        elif flag and holding:
            out.append(
                f"p={syl.p}: clause holds at |D|={holding[0].d_order} "
                "with no condition; (i), (ii), (iii) fail"
            )
        else:
            d = [d for d in syl.d_orders if not d.clause_holds][-1]
            out.append(
                f"p={syl.p}: clause fails at |D|={d.d_order}, H = {d.failing_h}"
            )
    return out


def check_thmB(ga: GroupAnalysis, e: Subgroup, mode: str = "supplemented") -> Verdict:
    """hypothesis: G/E in F and the per-Sylow clause; the supplemented mode
    additionally requires one of conditions (i)-(iii) per Sylow, the
    permutable mode does not. Conclusion: G in F. F is the formation U of
    supersolvable groups."""
    rep = thmB_hypothesis(ga, e, mode)
    if mode == "supplemented":
        statement_id, clause = "thmB", rep.hypothesis_with_condition
    else:
        statement_id, clause = "thm12", rep.hypothesis
    quotient_in_f = ga.supersolvable_mod(e)
    hyp = quotient_in_f and clause
    concl = is_supersolvable(ga.group)
    witnesses = ["formation U", f"G/E in F: {quotient_in_f}"]
    witnesses.extend(_hyp_witnesses(rep))
    return _verdict(
        statement_id,
        ga.name,
        f"E={ga.label(e)}",
        hyp,
        concl,
        witnesses,
    )


def check_thm12(ga: GroupAnalysis, e: Subgroup) -> Verdict:
    return check_thmB(ga, e, mode="permutable")


def scan_question13(ga: GroupAnalysis) -> list:
    """Flag (G, E) counterexample candidates: the clause without conditions
    (i)-(iii) plus G/E supersolvable, but G not supersolvable.

    Never hard-fails on a flag alone. Superset consistency: a flagged
    instance must NOT also satisfy some condition (that would contradict
    the proved implication and is reported as inconsistent).
    """
    out = []
    for e in ga.normal_e():
        rep = thmB_hypothesis(ga, e, "supplemented")
        quotient_in_u = ga.supersolvable_mod(e)
        hyp = quotient_in_u and rep.hypothesis
        concl = is_supersolvable(ga.group)
        flagged = hyp and not concl
        contradiction = flagged and rep.hypothesis_with_condition
        witnesses = []
        if flagged:
            witnesses.append("counterexample candidate for the open question")
            witnesses.extend(_hyp_witnesses(rep, flag=True))
        out.append(
            Verdict(
                "q13",
                ga.name,
                f"E={ga.label(e)}",
                hypothesis_satisfied=hyp,
                conclusion_holds=concl if hyp else None,
                consistent=not contradiction,
                witnesses=tuple(witnesses),
            )
        )
    return out


# -- L-series checkers -------------------------------------------------------


def check_L2_1(ga: GroupAnalysis) -> list:
    """Three closure properties of weak s-supplementation: quotient
    equivalence over a normal subgroup, restriction to intermediate
    subgroups, and coprime image after a normal subgroup. Each quotient
    G/N and subgroup K is a section of G's lattice, so no group or
    lattice is rebuilt. Every predicate here is invariant under
    conjugation in G, so K in (i) and (ii) and E in (iii) run over the
    lowest entry of each conjugacy class only, and a failure is listed
    for that entry."""
    lat = ga.lat
    top = lat.top()
    class_reps = [lat.subgroups[cls[0]] for cls in lat.conjugacy_classes]
    verdicts = []

    fails = []
    count = 0
    in_groups = [is_weakly_s_supplemented(lat, k) is not None for k in class_reps]
    for h in lat.normal_subgroups():
        if h.is_full():
            continue
        for k, in_group in zip(class_reps, in_groups):
            if h.members & ~k.members:
                continue
            count += 1
            in_quotient = is_weakly_s_supplemented(lat, k, (top, h)) is not None
            if in_quotient != in_group:
                fails.append(
                    f"H={ga.label(h)} K={ga.label(k)}: "
                    f"quotient {in_quotient} vs group {in_group}"
                )
    verdicts.append(_implication("L2.1", ga.name, "(i)", count > 0, fails))

    fails = []
    count = 0
    bottom = lat.bottom()
    for k in class_reps:
        if k.is_full() or k.order == 1:
            continue
        for h in lat.within(k.members):
            if not is_weakly_s_supplemented(lat, h):
                continue
            count += 1
            if not is_weakly_s_supplemented(lat, h, (k, bottom)):
                fails.append(f"H={ga.label(h)} K={ga.label(k)}")
    verdicts.append(_implication("L2.1", ga.name, "(ii)", count > 0, fails))

    fails = []
    count = 0
    for n in lat.normal_subgroups():
        if n.is_full():
            continue
        for e in class_reps:
            if math.gcd(n.order, e.order) != 1:
                continue
            if not is_weakly_s_supplemented(lat, e):
                continue
            count += 1
            ne = lat.product(n, e)
            if ne is None:
                raise PermlatError("a normal subgroup times a subgroup is not a subgroup")
            if not is_weakly_s_supplemented(lat, ne, (top, n)):
                fails.append(f"N={ga.label(n)} E={ga.label(e)}")
    verdicts.append(_implication("L2.1", ga.name, "(iii)", count > 0, fails))
    return verdicts


def _is_p_group_entry(sub: Subgroup):
    """(p, exponent) when the subgroup is a nontrivial p-group, else None."""
    pf = _factorize(sub.order)
    if len(pf) != 1:
        return None
    return next(iter(pf.items()))


def check_L2_2(ga: GroupAnalysis) -> list:
    """Normal p-subgroup P lies in the U-hypercenter iff its image mod
    Phi(P) lies in the U-hypercenter of the quotient (read off G's normal
    entries above Phi(P))."""
    lat = ga.lat
    zu = u_hypercenter(ga.group).members
    fails = []
    count = 0
    for p_sub in lat.normal_subgroups():
        pe = _is_p_group_entry(p_sub)
        if pe is None:
            continue
        count += 1
        left = p_sub.members & ~zu == 0
        phi_sub = lat.entry(_frattini_bits(lat, p_sub, pe[0]))
        right = p_sub.members & ~ga.u_hypercenter_mod(phi_sub) == 0
        if left != right:
            fails.append(f"P={ga.label(p_sub)}: {left} vs mod-Phi(P) {right}")
    return [_implication("L2.2", ga.name, "all normal p-subgroups", count > 0, fails)]


def check_L2_3(ga: GroupAnalysis) -> list:
    """s-permutable p-subgroups are normalized by the p-residual: each
    generator of O^p(G) conjugates H to itself."""
    lat = ga.lat
    t = ga.group.table()
    inv = ga.group.inverse_table()
    residuals = {}
    fails = []
    count = 0
    for sub in lat.subgroups:
        pe = _is_p_group_entry(sub)
        if pe is None:
            continue
        if not is_s_permutable(lat, sub):
            continue
        count += 1
        p = pe[0]
        if p not in residuals:
            residuals[p] = p_residual(ga.group, p).generator_indices
        h = sub.members
        if any(_conjugate_bits(t, inv, h, g) != h for g in residuals[p]):
            fails.append(f"H={ga.label(sub)} p={p}")
    return [_implication("L2.3", ga.name, "s-permutable p-subgroups", count > 0, fails)]


def check_L2_4(ga: GroupAnalysis) -> list:
    """p-solvable G with trivial O_p': every subgroup containing O_p
    also has trivial O_p'."""
    lat = ga.lat
    verdicts = []
    for p in sorted(ga.group.prime_factorization):
        hyp = (
            is_p_solvable(ga.group, p)
            and p_prime_core(ga.group, p).order == 1
        )
        fails = []
        if hyp:
            op = p_core(ga.group, p).members
            for sub in lat.subgroups:
                if op & ~sub.members:
                    continue
                if _hall_meet_bits(lat, sub, p) != 1:
                    fails.append(f"H={ga.label(sub)}")
        verdicts.append(_implication("L2.4", ga.name, f"p={p}", hyp, fails))
    return verdicts


def _direct_minimal_decomposition(ga: GroupAnalysis, n_sub: Subgroup):
    """Greedy direct decomposition of a normal subgroup into minimal normal
    subgroups of G. Returns the chosen factors, or None if their product
    does not reach the whole subgroup.

    Greedy is complete here: whenever a minimal normal M inside N is not
    contained in the accumulated product A, M meet A is a proper normal
    subgroup of M, hence trivial, so M extends the direct product.
    """
    acc, chosen = ga.lat.bottom(), []
    for m in minimal_normal_subgroups(ga.group):
        if m.members & ~n_sub.members or m.members & acc.members != 1:
            continue
        acc = ga.lat.product(acc, m)
        if acc is None:
            raise PermlatError("normal product with trivial meet is not direct")
        chosen.append(m)
    if acc.members != n_sub.members:
        return None
    return chosen


def check_L2_5(ga: GroupAnalysis) -> list:
    """Nilpotent normal N avoiding the Frattini subgroup is a direct
    product of minimal normal subgroups (so N lies in the socle)."""
    lat = ga.lat
    phi = lat.frattini().members
    socle = lat.socle().members
    fails = []
    count = 0
    for n in lat.normal_subgroups():
        if n.order == 1:
            continue
        if (n.members & phi) != 1:
            continue
        if not _is_nilpotent_bits(ga.group, n.members):
            continue
        count += 1
        if n.members & ~socle:
            fails.append(f"N={ga.label(n)} escapes the socle")
            continue
        if _direct_minimal_decomposition(ga, n) is None:
            fails.append(f"N={ga.label(n)} is not a product of minimal normals")
    return [_implication("L2.5", ga.name, "nilpotent normal, Phi-avoiding", count > 0, fails)]


def _psl_orders():
    """(order, n, q, index) for PSL_n(q) of order at most 10^6, with the
    projective-space index."""
    out = []
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            size = 1
            for i in range(2, n + 1):
                size *= q**i - 1
            size *= q ** (n * (n - 1) // 2)
            size //= math.gcd(n, q - 1)
            if size <= 10**6:
                out.append((size, n, q, (q**n - 1) // (q - 1)))
    return out


def check_L2_6(ga: GroupAnalysis) -> list:
    """Prime-power-index subgroups of nonabelian simple groups match the
    classified cases: alternating point stabilizers, or projective linear
    groups with the projective-space index."""
    g = ga.group
    if g.is_abelian() or not is_simple(g):
        return []
    lat = ga.lat
    psl = _psl_orders()
    # The cases are invariant under conjugation: one check per class.
    # Only one n has n!/2 = |G|, so A_{n-1} is fingerprinted once.
    case_of = {}
    alt_print = None
    fails = []
    count = 0
    details = []
    for sub, cid in zip(lat.subgroups, lat.class_of):
        if sub.is_full():
            continue
        index = g.order // sub.order
        if len(_factorize(index)) != 1:
            continue
        count += 1
        if cid not in case_of:
            matched = None
            if math.factorial(index) // 2 == g.order:
                alt_print = alt_print or fingerprint(_alternating_named(index - 1, f"A{index - 1}"))
                if fingerprint(sub.as_group()) == alt_print:
                    matched = f"alternating point stabilizer, n={index}"
            if matched is None:
                for size, n, q, proj_index in psl:
                    if size == g.order and proj_index == index:
                        matched = f"projective linear index, PSL_{n}({q})"
                        break
            if matched is None and g.order == 660 and sub.order == 60:
                matched = "PSL_2(11) with an order-60 point stabilizer"
            case_of[cid] = matched
        matched = case_of[cid]
        if matched is None:
            fails.append(f"H={ga.label(sub)} index {index} matches no case")
        else:
            details.append(f"index {index}: {matched}")
    return [
        _implication(
            "L2.6",
            ga.name,
            "prime-power-index subgroups",
            count > 0,
            fails,
            witnesses=tuple(sorted(set(details))),
        )
    ]


def _min_prime_sylow(ga: GroupAnalysis):
    if ga.group.order == 1:
        return None
    p = min(ga.group.prime_factorization)
    return p, ga.lat.sylow(p)[0]


def _min_prime_clause(ga: GroupAnalysis, statement_id: str, orders, what: str) -> list:
    """The verdict of L2.7 and L2.9: the order clause on the minimal-prime
    Sylow P, at the orders ``orders(p, P)``, gives p-nilpotency."""
    ps = _min_prime_sylow(ga)
    if ps is None:
        return []
    p, rep = ps
    hyp, witness = _order_clause(ga.lat, rep, orders(p, rep))
    concl = _is_p_nilpotent_entry(ga.lat, ga.lat.top(), p) if hyp else None
    witnesses = (f"{what} H = {witness}",) if witness else ()
    return [_verdict(statement_id, ga.name, f"p={p}", hyp, concl, witnesses)]


def check_L2_7(ga: GroupAnalysis) -> list:
    """Every maximal subgroup of a minimal-prime Sylow subgroup lacking a
    supersolvable supplement is weakly s-supplemented: then the group is
    p-nilpotent for that prime."""
    return _min_prime_clause(
        ga, "L2.7", lambda p, rep: (rep.order // p,), "failing maximal"
    )


def check_L2_8(ga: GroupAnalysis) -> list:
    """Structure of minimal non-p-nilpotent groups: normal Sylow p with a
    cyclic non-normal complement, Frattini-minimal image, and the exponent
    restriction."""
    lat = ga.lat
    g = ga.group
    verdicts = []
    for p in sorted(g.prime_factorization):
        if _is_p_nilpotent_entry(lat, lat.top(), p):
            verdicts.append(_verdict("L2.8", ga.name, f"p={p}", False, None))
            continue
        minimal = True
        for sub in reversed(lat.subgroups):
            if sub.is_full():
                continue
            if not _is_p_nilpotent_entry(lat, sub, p):
                minimal = False
                break
        if not minimal:
            verdicts.append(_verdict("L2.8", ga.name, f"p={p}", False, None))
            continue
        fails = []
        rep, conjugates = lat.sylow(p)
        p_normal = len(conjugates) == 1
        others = [q for q in g.prime_factorization if q != p]
        complement_ok = False
        if len(others) == 1:
            q = others[0]
            qrep, qconj = lat.sylow(q)
            complement_ok = qrep.is_cyclic() and len(qconj) > 1
        if not (p_normal and complement_ok):
            fails.append("no normal Sylow p with cyclic non-normal q-complement")
        if p_normal:
            phi = _frattini_bits(lat, rep, p)
            # P/Phi(P) is minimal normal in G/Phi(P) iff Phi(P) < P are
            # the only normal entries from Phi(P) up to P.
            between = [m for m in lat.within(rep.members) if phi & ~m.members == 0]
            if sum(lat.is_normal(m) for m in between) != 2:
                fails.append("P mod Phi(P) is not minimal normal")
        exp = exponent(g, rep)
        if rep.is_abelian() or p > 2:
            if exp != p:
                fails.append(f"exponent {exp} != {p}")
        elif exp != 4:
            fails.append(f"exponent {exp} != 4")
        verdicts.append(_verdict("L2.8", ga.name, f"p={p}", True, not fails, fails))
    return verdicts


def check_L2_9(ga: GroupAnalysis) -> list:
    """Subgroups of order p (and 4, when the minimal-prime Sylow is a
    nonabelian 2-group) weakly s-supplemented unless supersolvably
    supplemented: then p-nilpotent."""

    def orders(p, rep):
        if p == 2 and not rep.is_abelian():
            return (2, 4)
        return (p,)

    return _min_prime_clause(ga, "L2.9", orders, "failing")


def _order_d_walk(
    ga: GroupAnalysis, statement_id: str, covers, conclude, targets=None
) -> list:
    """Verdicts of an order-|D| statement on p-subgroups P with
    iota(P) >= 2, one per |D| = p^k the statement covers.

    ``targets`` are (label, P) pairs; by default the normal subgroups of
    G, labelled "P=#…" once they pass the p-group filter.
    ``covers(P, p, iota(P), P meet Phi(G))`` runs once per P and lists
    (k, clause orders). Where the clause holds, ``conclude(P, p, k)``
    gives (conclusion, witnesses)."""
    lat = ga.lat
    phi = lat.frattini().members
    if targets is None:
        targets = [(None, n) for n in lat.normal_subgroups()]
    verdicts = []
    for label, p_sub in targets:
        pe = _is_p_group_entry(p_sub)
        if pe is None or pe[1] < 2:
            continue
        p, ip = pe
        label = label or f"P={ga.label(p_sub)}"
        for k, orders in covers(p_sub, p, ip, p_sub.members & phi):
            holds, failing = _order_clause(lat, p_sub, orders)
            if holds:
                concl, witnesses = conclude(p_sub, p, k)
            else:
                concl, witnesses = None, (f"clause fails at H = {failing}",)
            instance = f"{label} |D|={p**k}"
            verdicts.append(_verdict(statement_id, ga.name, instance, holds, concl, witnesses))
    return verdicts


def _in_u_hypercenter(ga: GroupAnalysis):
    """The conclusion of C3.2 and L3.3: P lies in the supersolvable
    hypercenter."""
    zu = u_hypercenter(ga.group).members

    def conclude(p_sub, p, k):
        if p_sub.members & ~zu:
            return False, ("P escapes the supersolvable hypercenter",)
        return True, ()

    return conclude


def check_L3_1(ga: GroupAnalysis) -> list:
    """Normal p-subgroup P avoiding Phi(G), every subgroup of order |D|
    weakly s-supplemented: P is a direct product of minimal normal
    subgroups of one common order p^s with s dividing iota(D)."""

    def covers(p_sub, p, ip, meet_phi):
        return [(k, (p**k,)) for k in range(1, ip)] if meet_phi == 1 else []

    def conclude(p_sub, p, k):
        decomp = _direct_minimal_decomposition(ga, p_sub)
        if decomp is None:
            return False, ("P is not a product of minimal normals of G",)
        orders = sorted({m.order for m in decomp})
        if len(orders) != 1:
            return False, (f"mixed minimal normal orders {orders}",)
        s = iota(orders[0], p)
        witnesses = [f"{len(decomp)} minimal normal factors of order {orders[0]}"]
        if k % s:
            witnesses.append(f"iota(D)={k} not a multiple of s={s}")
        return k % s == 0, witnesses

    return _order_d_walk(ga, "L3.1", covers, conclude)


def check_C3_2(ga: GroupAnalysis) -> list:
    """Adds a coprimality side condition on iota(P) and iota(D) to the
    order-|D| clause; then P lies in the supersolvable hypercenter."""

    def covers(p_sub, p, ip, meet_phi):
        if meet_phi != 1:
            return []
        return [
            (k, (p**k,))
            for k in range(1, ip)
            if math.gcd(ip, k) == 1 or math.gcd(ip - k, k) == 1
        ]

    return _order_d_walk(ga, "C3.2", covers, _in_u_hypercenter(ga))


def check_L3_3(ga: GroupAnalysis) -> list:
    """Normal p-subgroup P with the order-|D| (and 2|D| for nonabelian
    2-groups) clause, plus P' < P meet Phi(G) or |D| <= |P'|: P lies in
    the supersolvable hypercenter."""

    def covers(p_sub, p, ip, meet_phi):
        derived_bits = _derived_bits(ga.group, p_sub.generator_indices)[0]
        derived_order = derived_bits.bit_count()
        derived_in_phi = (
            derived_bits & ~meet_phi == 0 and derived_bits != meet_phi
        )
        two_d = p == 2 and derived_order > 1
        return [
            (k, (p**k, 2 * p**k) if two_d else (p**k,))
            for k in range(1, ip)
            if derived_in_phi or p**k <= derived_order
        ]

    return _order_d_walk(ga, "L3.3", covers, _in_u_hypercenter(ga))


def check_L3_5(ga: GroupAnalysis) -> list:
    """Minimal prime p, Sylow P, order-|D| clause (with the nonabelian
    2-group companion order 2|D|): G is p-solvable of p-length at most 1."""
    ps = _min_prime_sylow(ga)
    if ps is None:
        return []
    p, rep = ps

    def covers(p_sub, p, ip, meet_phi):
        two_d = p == 2 and not p_sub.is_abelian()
        return [(k, (p**k, 2 * p**k) if two_d else (p**k,)) for k in range(1, ip)]

    def conclude(p_sub, p, k):
        pl = p_length(ga.group, p)
        if pl.is_p_solvable and pl.p_length <= 1:
            return True, ()
        return False, (f"p-solvable {pl.is_p_solvable}, p-length {pl.p_length}",)

    return _order_d_walk(ga, "L3.5", covers, conclude, [(f"p={p}", rep)])


# -- C-series checkers -------------------------------------------------------


def _supersolvable_verdict(statement_id, ga, instance, hyp, witnesses):
    """Verdict of a statement whose conclusion is "G is supersolvable"."""
    concl = is_supersolvable(ga.group) if hyp else None
    return _verdict(statement_id, ga.name, instance, hyp, concl, witnesses)


def _first_failure(ga: GroupAnalysis, targets, ok, what: str) -> tuple:
    """(holds, witnesses) for "every target passes ok". ``targets`` are
    (tag, H) pairs and ``ok(lat, H)`` the property; the first H that fails
    it is named as "{tag}{what} H = {label}"."""
    lat = ga.lat
    for tag, sub in targets:
        if not ok(lat, sub):
            return False, [f"{tag}{what} H = {ga.label(sub)}"]
    return True, []


def _minimal_targets(ga: GroupAnalysis, inside: Subgroup, order_four: str = "") -> list:
    """Targets ("", H) for the entries H of prime order inside X, then those
    of order 4 (order_four "all") or the cyclic ones (order_four "cyclic")."""
    lat = ga.lat
    out = []
    for p in sorted(ga.group.prime_factorization):
        out += [("", sub) for sub in lat.within(inside.members, order=p)]
    if order_four:
        for sub in lat.within(inside.members, order=4):
            if order_four == "all" or sub.is_cyclic():
                out.append(("", sub))
    return out


def _maximal_targets(ga: GroupAnalysis, p_subs) -> list:
    """Targets ("p={p} ", H) over the maximal subgroups H of each
    p-subgroup P of the (p, P) pairs."""
    lat = ga.lat
    out = []
    for p, sub in p_subs:
        out += [(f"p={p} ", h) for h in lat.within(sub.members, order=sub.order // p)]
    return out


def _sylow_maximals(ga: GroupAnalysis) -> list:
    """Maximal-subgroup targets of one Sylow p-subgroup per prime. One
    representative is enough for conjugation-invariant predicates:
    conjugation carries the maximal subgroups of one Sylow p-subgroup onto
    those of any other."""
    primes = sorted(ga.group.prime_factorization)
    return _maximal_targets(ga, [(p, ga.lat.sylow(p)[0]) for p in primes])


def check_C4_3(ga: GroupAnalysis) -> list:
    """Odd order with every prime-order subgroup normal: supersolvable."""
    if ga.group.order % 2 == 0:
        hyp, wit = False, ["group has even order"]
    else:
        targets = _minimal_targets(ga, ga.lat.top())
        hyp, wit = _first_failure(ga, targets, SubgroupLattice.is_normal, "nonnormal")
    return [_supersolvable_verdict("C4.3", ga, "group", hyp, wit)]


def check_C4_4(ga: GroupAnalysis) -> list:
    """Maximal subgroups of the Sylow subgroups all normal: supersolvable."""
    hyp, wit = _first_failure(
        ga, _sylow_maximals(ga), SubgroupLattice.is_normal, "failing maximal"
    )
    return [_supersolvable_verdict("C4.4", ga, "group", hyp, wit)]


def check_C4_5(ga: GroupAnalysis) -> list:
    """Subgroups of prime order or order 4 all c-normal: supersolvable."""
    targets = _minimal_targets(ga, ga.lat.top(), "all")
    hyp, wit = _first_failure(ga, targets, is_c_normal, "non-c-normal")
    return [_supersolvable_verdict("C4.5", ga, "group", hyp, wit)]


def check_C4_6(ga: GroupAnalysis) -> list:
    """Maximal subgroups of the Sylow subgroups all c-normal: supersolvable."""
    hyp, wit = _first_failure(ga, _sylow_maximals(ga), is_c_normal, "failing maximal")
    return [_supersolvable_verdict("C4.6", ga, "group", hyp, wit)]


def check_C4_7(ga: GroupAnalysis) -> list:
    """Maximal subgroups of the Sylow subgroups lacking a supersolvable
    supplement all normal: supersolvable."""
    hyp, wit = _first_failure(
        ga,
        _sylow_maximals(ga),
        lambda lat, sub: has_supersolvable_supplement(lat, sub) or lat.is_normal(sub),
        "failing maximal",
    )
    return [_supersolvable_verdict("C4.7", ga, "group", hyp, wit)]


def check_C4_8(ga: GroupAnalysis) -> list:
    """Maximal subgroups of the Sylow subgroups lacking a supersolvable
    supplement all c-normal: supersolvable."""
    hyp, wit = _first_failure(
        ga,
        _sylow_maximals(ga),
        lambda lat, sub: has_supersolvable_supplement(lat, sub) or is_c_normal(lat, sub),
        "failing maximal",
    )
    return [_supersolvable_verdict("C4.8", ga, "group", hyp, wit)]


def u_residual(ga: GroupAnalysis) -> Subgroup:
    """Smallest normal subgroup with supersolvable quotient. The
    intersection over all such normals works because the class is a
    formation; the resulting quotient is checked to be supersolvable."""
    lat = ga.lat
    bits = lat.top().members
    for n in lat.normal_subgroups():
        if bits & ~n.members == 0:
            continue
        if ga.supersolvable_mod(n):
            bits &= n.members
    res = lat.entry(bits)
    if not ga.supersolvable_mod(res):
        raise PermlatError("residual quotient is not supersolvable")
    return res


def check_C4_9(ga: GroupAnalysis) -> list:
    """Minimal subgroups and cyclic order-4 subgroups of the
    supersolvable residual all c-normal in G: G supersolvable."""
    res = u_residual(ga)
    targets = _minimal_targets(ga, res, "cyclic")
    hyp, wit = _first_failure(ga, targets, is_c_normal, "non-c-normal")
    wit = [f"residual = {ga.label(res)}", *wit]
    return [_supersolvable_verdict("C4.9", ga, "group", hyp, wit)]


def check_C4_10(ga: GroupAnalysis) -> list:
    """Per normal E with supersolvable quotient: abelian Sylow 2-subgroup
    of G and every minimal subgroup of E permutable in G force G
    supersolvable."""
    lat = ga.lat
    syl2 = lat.sylow(2)[0] if ga.group.order % 2 == 0 else None
    syl2_abelian = syl2 is None or syl2.is_abelian()
    verdicts = []
    for e in ga.normal_e():
        hyp = ga.supersolvable_mod(e) and syl2_abelian
        wit = []
        if hyp:
            targets = _minimal_targets(ga, e)
            hyp, wit = _first_failure(ga, targets, is_permutable, "non-permutable")
        verdicts.append(_supersolvable_verdict("C4.10", ga, f"E={ga.label(e)}", hyp, wit))
    return verdicts


def check_C4_11(ga: GroupAnalysis) -> list:
    """Solvable G with the maximal subgroups of the Sylow subgroups of the
    Fitting subgroup all normal in G: supersolvable. The Sylow p-subgroup
    of the Fitting subgroup is O_p(G), its unique one."""
    if not is_solvable(ga.group):
        hyp, wit = False, ["group is not solvable"]
    else:
        primes = sorted(_factorize(fitting_subgroup(ga.group).order))
        targets = _maximal_targets(ga, [(p, p_core(ga.group, p)) for p in primes])
        hyp, wit = _first_failure(ga, targets, SubgroupLattice.is_normal, "nonnormal maximal")
    return [_supersolvable_verdict("C4.11", ga, "group", hyp, wit)]


def check_C4_12(ga: GroupAnalysis) -> list:
    """Per solvable normal E with supersolvable quotient: minimal subgroups
    and cyclic order-4 subgroups of E weakly s-permutable in G force G
    supersolvable."""
    verdicts = []
    # Every subgroup of a solvable group is solvable.
    g_solvable = is_solvable(ga.group)
    for e in ga.normal_e():
        hyp = ga.supersolvable_mod(e) and (
            g_solvable or derived_series(ga.group, e)[-1].order == 1
        )
        wit = []
        if hyp:
            hyp, wit = _first_failure(
                ga,
                _minimal_targets(ga, e, "cyclic"),
                is_weakly_s_permutable,
                "non-wsp",
            )
        verdicts.append(_supersolvable_verdict("C4.12", ga, f"E={ga.label(e)}", hyp, wit))
    return verdicts


def check_remark1(ga: GroupAnalysis) -> list:
    """Arithmetic note: when iota(D) is 1 or iota(P) - 1 (D minimal or
    maximal in P), one of the coprimality pairs (iota(P), iota(D)) or
    (iota(P), iota(P:D)) is 1. Pure arithmetic over the group's prime
    exponents; no lattice needed."""
    verdicts = []
    for p, a in sorted(ga.group.prime_factorization.items()):
        if a < 2:
            continue
        for k in range(1, a):
            extremal = k == 1 or k == a - 1
            ok = math.gcd(a, k) == 1 or math.gcd(a, a - k) == 1
            verdicts.append(
                _verdict(
                    "remark1", ga.name, f"p={p} iota(D)={k}", extremal, ok if extremal else None
                )
            )
    return verdicts


# -- statement registry ------------------------------------------------------


def check_thmB_all(ga: GroupAnalysis) -> list:
    return [check_thmB(ga, e) for e in ga.normal_e()]


def check_thm12_all(ga: GroupAnalysis) -> list:
    return [check_thm12(ga, e) for e in ga.normal_e()]


@dataclass(frozen=True)
class StatementSpec:
    """A registry entry. Kind "implication" checks hypothesis implies
    conclusion; kind "scan" also reports its verdicts with a satisfied
    hypothesis and a failed conclusion as flags. ``pairs_e``: the checker
    pairs the group with its largest normal subgroups E."""

    statement_id: str
    checker: Callable
    default_max_order: int
    note: str = ""
    pairs_e: bool = False
    kind: str = "implication"


_E_NOTE = "E ranges over the largest normal subgroups"

STATEMENTS = {
    s.statement_id: s
    for s in (
        StatementSpec("thmB", check_thmB_all, 200, _E_NOTE, pairs_e=True),
        StatementSpec("thm12", check_thm12_all, 200, _E_NOTE, pairs_e=True),
        StatementSpec("L2.1", check_L2_1, 100, "re-enumerates a lattice per normal subgroup"),
        StatementSpec("L2.2", check_L2_2, 200),
        StatementSpec("L2.3", check_L2_3, 200),
        StatementSpec("L2.4", check_L2_4, 200),
        StatementSpec("L2.5", check_L2_5, 200),
        StatementSpec("L2.6", check_L2_6, 720, "nonabelian simple groups only"),
        StatementSpec("L2.7", check_L2_7, 200),
        StatementSpec("L2.8", check_L2_8, 200),
        StatementSpec("L2.9", check_L2_9, 200),
        StatementSpec("L3.1", check_L3_1, 100, "per normal p-subgroup and order |D|"),
        StatementSpec("C3.2", check_C3_2, 100, "per normal p-subgroup and order |D|"),
        StatementSpec("L3.3", check_L3_3, 100, "per normal p-subgroup and order |D|"),
        StatementSpec("L3.5", check_L3_5, 100, "per order |D| in the minimal-prime Sylow"),
        StatementSpec("C4.3", check_C4_3, 200),
        StatementSpec("C4.4", check_C4_4, 200),
        StatementSpec("C4.5", check_C4_5, 200),
        StatementSpec("C4.6", check_C4_6, 200),
        StatementSpec("C4.7", check_C4_7, 200),
        StatementSpec("C4.8", check_C4_8, 200),
        StatementSpec("C4.9", check_C4_9, 200),
        StatementSpec("C4.10", check_C4_10, 200, _E_NOTE, pairs_e=True),
        StatementSpec("C4.11", check_C4_11, 200),
        StatementSpec("C4.12", check_C4_12, 200, _E_NOTE, pairs_e=True),
        StatementSpec("remark1", check_remark1, 200, "pure arithmetic, no lattice"),
        StatementSpec(
            "q13",
            scan_question13,
            200,
            "flags are counterexample candidates, not failures",
            pairs_e=True,
            kind="scan",
        ),
    )
}

# The implication statements, in catalog order; ``verify --statement all``.
STATEMENT_IDS = tuple(sid for sid, s in STATEMENTS.items() if s.kind == "implication")


def statement_spec(statement_id: str) -> StatementSpec:
    """The registry entry for an id; unknown ids list the known ones."""
    try:
        return STATEMENTS[statement_id]
    except KeyError:
        known = ", ".join(STATEMENTS)
        raise PermlatError(
            f"unknown statement id {statement_id!r} (known: {known})"
        ) from None
