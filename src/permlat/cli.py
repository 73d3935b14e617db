"""Command line interface.

Exit codes: 0 all consistent, 1 verification inconsistency (witness named),
2 usage or parse error or an unwritable output path, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

from .corpus import (
    builtin_corpus,
    builtin_group,
    example_pair,
    load_corpus_dir,
    load_group,
    parse_group_file,
)
from .embedding import (
    h_sG,
    has_supersolvable_supplement,
    is_c_normal,
    is_complemented,
    is_permutable,
    is_s_permutable,
    is_weakly_s_permutable,
    is_weakly_s_supplemented,
    subnormal_in,
)
from .errors import (
    CapExceededError,
    DegreeMismatchError,
    GroupFileError,
    GroupOrderCapError,
    InvalidPermutationError,
    NotAnElementError,
    PermlatError,
)
from .groups import DEFAULT_GROUP_CAP, Group, close_generators, p_residual
from .lattice import (
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_NORMAL_E,
    emit_lattice_dot,
    enumerate_subgroups,
)
from .perms import parse_cycle_string
from .structure import (
    abelian_invariants,
    center,
    chief_series,
    derived_series,
    exponent,
    fingerprint,
    fitting_subgroup,
    has_sylow_tower,
    hypercenter,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    p_core,
    p_length,
    u_hypercenter,
)


def _within_cap(name: str, group, group_cap: int):
    """The group, unless its order exceeds the group cap: builtin groups
    are built without one."""
    if group.order > group_cap:
        raise GroupOrderCapError(
            f"{name} has order {group.order}, over the group cap {group_cap}",
            group_cap,
        )
    return group


def _resolve_group(token: str, group_cap: int):
    path = Path(token)
    if path.is_file():
        return load_group(parse_group_file(path), cap=group_cap)
    group = builtin_group(token)
    if group is not None:
        return _within_cap(token, group, group_cap)
    raise GroupFileError(
        f"unknown group {token!r}: not a file and not a builtin corpus name"
    )


def _load_corpus(token: str, group_cap: int):
    if token == "builtin":
        corpus = [(n, _within_cap(n, g, group_cap)) for n, g in builtin_corpus()]
        return corpus, "builtin corpus"
    return load_corpus_dir(token, cap=group_cap), f"corpus dir {token}"


# -- analyze -----------------------------------------------------------------


def _series_orders(chain) -> str:
    return " > ".join(str(s.order) for s in chain)


_PROPS = {
    "order": lambda g, lat: g.order,
    "degree": lambda g, lat: g.degree,
    "abelian": lambda g, lat: g.is_abelian(),
    "invariants": lambda g, lat: (
        " x ".join(f"C{d}" for d in abelian_invariants(g))
        if g.is_abelian()
        else "not abelian"
    ),
    "exponent": lambda g, lat: exponent(g),
    "center": lambda g, lat: center(g).order,
    "hypercenter": lambda g, lat: hypercenter(g).order,
    "u-hypercenter": lambda g, lat: u_hypercenter(g).order,
    "derived-series": lambda g, lat: _series_orders(derived_series(g)),
    "chief-factors": lambda g, lat: " ".join(map(str, chief_series(g).factors)),
    "nilpotent": lambda g, lat: is_nilpotent(g),
    "solvable": lambda g, lat: is_solvable(g),
    "supersolvable": lambda g, lat: is_supersolvable(g),
    "sylow-tower": lambda g, lat: has_sylow_tower(g),
    "fitting": lambda g, lat: fitting_subgroup(g).order,
    "p-length": lambda g, lat: " ".join(
        f"{p}:{p_length(g, p).p_length}"
        for p in sorted(g.prime_factorization)
        if p_length(g, p).is_p_solvable
    )
    or ("not p-solvable for any p" if g.order > 1 else ""),
    "fingerprint": lambda g, lat: fingerprint(g).name,
    "subgroups": lambda g, lat: len(lat()),
    "conjugacy-classes": lambda g, lat: len(lat().conjugacy_classes),
    "frattini": lambda g, lat: lat().frattini().order,
    "socle": lambda g, lat: lat().socle().order,
}

_DEFAULT_PROPS = (
    "order",
    "degree",
    "abelian",
    "invariants",
    "exponent",
    "center",
    "derived-series",
    "chief-factors",
    "nilpotent",
    "solvable",
    "supersolvable",
    "sylow-tower",
    "fitting",
    "p-length",
    "fingerprint",
)


def _cmd_analyze(args) -> int:
    group = _resolve_group(args.group, args.group_cap)
    props = (
        [p.strip() for p in args.props.split(",") if p.strip()]
        if args.props is not None
        else list(_DEFAULT_PROPS)
    )
    if props == ["all"]:
        props = list(_PROPS)
    if not props:
        print(f"error: no props given (known: {', '.join(_PROPS)})", file=sys.stderr)
        return 2
    unknown = [p for p in props if p not in _PROPS]
    if unknown:
        print(
            f"error: unknown props {', '.join(unknown)} "
            f"(known: {', '.join(_PROPS)})",
            file=sys.stderr,
        )
        return 2
    lat_box: list = []

    def lat():
        if not lat_box:
            lat_box.append(enumerate_subgroups(group, cap=args.lattice_cap))
        return lat_box[0]

    print(f"group: {group.name or args.group}")
    for prop in props:
        print(f"{prop}: {_PROPS[prop](group, lat)}")
    return 0


# -- check-subgroup ----------------------------------------------------------


def _pred_plain(fn):
    return lambda lat, sub: (fn(lat, sub), None)


def _pred_witnessed(fn, prop=None):
    """A predicate answering with its witness T, or None; with ``prop``, a
    weak supplement predicate whose witness line also names H meet T and
    H_sG."""

    def run(lat, sub):
        t = fn(lat, sub)
        if t is None:
            return False, None
        if prop is None:
            return True, t.describe()
        return True, (
            f"{prop} via T = {t.describe()}, "
            f"intersection order {(t.members & sub.members).bit_count()}, "
            f"bound order {h_sG(lat, sub).order}"
        )

    return run


_PREDICATES = {
    "normal": lambda lat, sub: (lat.is_normal(sub), None),
    "subnormal": _pred_plain(subnormal_in),
    "s-permutable": _pred_plain(is_s_permutable),
    "permutable": _pred_plain(is_permutable),
    "c-normal": _pred_plain(is_c_normal),
    "complemented": _pred_plain(is_complemented),
    "weakly-s-supplemented": _pred_witnessed(
        is_weakly_s_supplemented, "weakly_s_supplemented"
    ),
    "weakly-s-permutable": _pred_witnessed(
        is_weakly_s_permutable, "weakly_s_permutable"
    ),
    "supersolvable-supplement": _pred_witnessed(has_supersolvable_supplement),
}


def _cmd_check_subgroup(args) -> int:
    group = _resolve_group(args.group, args.group_cap)
    if args.predicate not in _PREDICATES:
        print(
            f"error: unknown predicate {args.predicate!r} "
            f"(known: {', '.join(_PREDICATES)})",
            file=sys.stderr,
        )
        return 2
    gens = []
    for token in args.gens.split(";"):
        token = token.strip()
        if not token:
            continue
        gens.append(parse_cycle_string(token, group.degree))
    sub = group.subgroup_generated_by(gens)
    lat = enumerate_subgroups(group, cap=args.lattice_cap)
    ok, witness = _PREDICATES[args.predicate](lat, lat.entry(sub.members))
    print(f"group: {group.name or args.group}")
    print(f"subgroup: {sub.describe()} (order {sub.order})")
    print(f"{args.predicate}: {ok}")
    if witness:
        print(f"witness: {witness}")
    return 0


# -- verify / scan-q13 -------------------------------------------------------


def _print_report(report, show_flags: bool) -> int:
    for row in report.statements:
        note = f"  [{row['note']}]" if "note" in row else ""
        print(
            f"{row['statement']}: {row['groups_checked']} groups, "
            f"{row['verdicts']} verdicts, "
            f"{row['inconsistent']} inconsistent "
            f"(max order {row['max_order']}){note}"
        )
    for line in report.truncations:
        print(f"truncated: {line}")
    for line in report.skipped:
        print(f"skipped: {line}")
    if show_flags:
        if report.flags:
            print(f"counterexample candidates: {len(report.flags)}")
            for v in report.flags:
                print(f"  {v.group_id} {v.instance}")
                for w in v.witnesses:
                    print(f"    | {w}")
        else:
            print("counterexample candidates: none")
    bad = report.inconsistencies()
    if bad:
        print(f"INCONSISTENT: {len(bad)} verdicts", file=sys.stderr)
        for v in bad[:10]:
            print(
                f"  {v.statement_id} {v.group_id} {v.instance}",
                file=sys.stderr,
            )
            for w in v.witnesses:
                print(f"    | {w}", file=sys.stderr)
        return 1
    if report.skipped:
        print(
            f"cap exceeded: {len(report.skipped)} statement-group pairs skipped",
            file=sys.stderr,
        )
        return 3
    print("all consistent")
    return 0


def _cannot_write(path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


# The registry and the report layer are imported by the commands that use
# them, so the other commands start without loading them.


def _run_report(args, ids, show_flags: bool) -> int:
    """Run registry entries over the corpus, print the summary and write
    every requested report file; the summary's code, or 2 if any file
    cannot be written."""
    from .reports import run_verification

    corpus, description = _load_corpus(args.corpus, args.group_cap)
    report = run_verification(
        ids,
        corpus,
        description,
        max_order=args.max_order,
        group_cap=args.group_cap,
        lattice_cap=args.lattice_cap,
        max_normal_e=args.max_normal_e,
        with_timings=args.with_timings,
    )
    code = _print_report(report, show_flags)
    for path, render, what in (
        (args.report, report.to_json, "JSON report"),
        (args.csv, report.to_csv, "CSV"),
    ):
        if not path:
            continue
        try:
            Path(path).write_text(render(), encoding="utf-8")
        except OSError as exc:
            code = _cannot_write(path, exc)
            continue
        print(f"wrote {what} to {path}")
    return code


def _cmd_verify(args) -> int:
    from .statements import STATEMENT_IDS

    if args.statement != "all" and args.statement not in STATEMENT_IDS:
        print(
            f"error: unknown statement {args.statement!r} "
            f"(known: {', '.join(STATEMENT_IDS)}, all)",
            file=sys.stderr,
        )
        return 2
    ids = list(STATEMENT_IDS) if args.statement == "all" else [args.statement]
    return _run_report(args, ids, show_flags=False)


def _cmd_scan_q13(args) -> int:
    return _run_report(args, ["q13"], show_flags=True)


def _cmd_lattice(args) -> int:
    group = _resolve_group(args.group, args.group_cap)
    try:
        lat = emit_lattice_dot(group, args.dot, lattice_cap=args.lattice_cap)
    except OSError as exc:
        return _cannot_write(args.dot, exc)
    print(
        f"wrote DOT ({len(lat.conjugacy_classes)} class nodes, "
        f"{len(lat)} subgroups) to {args.dot}"
    )
    return 0


# -- reproduce-example42 -----------------------------------------------------


class Example42(NamedTuple):
    group: Group
    facts: tuple

    def lines(self) -> list[str]:
        return [f"{k}: {v}" for k, v in self.facts]


def _require(cond, message: str):
    if not cond:
        raise PermlatError(f"example reproduction failed: {message}")


def build_example42(
    lattice_cap: int = DEFAULT_LATTICE_CAP, group_cap: int = DEFAULT_GROUP_CAP
) -> Example42:
    """Control group of order 324 where the minimal-prime hypothesis is
    dropped and the p-length conclusion fails.

    The 2-residual of the regular wreath product of S3 by C3, in its
    action on 9 points (``corpus.example_pair``), has order 324, an
    elementary abelian O_3 of order 27 with quotient of type A4, and a
    Sylow 3-subgroup of order 81 whose maximal subgroups are all
    complemented (hence weakly s-supplemented) in G. Yet the 3-length of
    G is 2: the order-|D| clause alone does not bound p-length once p is
    not the smallest prime divisor.
    """
    b, g = example_pair(cap=group_cap)
    _require(b.order == 648, f"wreath order {b.order} != 648")
    _require(g.order == 324, f"2-residual order {g.order} != 324")
    # G = O^2(B) without B's table. G is normal of index 2 in B, so
    # O^2(B) <= G; and G = O^2(G) is generated by odd-order elements of B,
    # so G <= O^2(B).
    _require(all(x in b for x in g.generators), "G is not inside the wreath product")
    _require(
        all(~y * x * y in g for x in g.generators for y in b.generators),
        "G is not normal in the wreath product",
    )
    _require(p_residual(g, 2).is_full(), "G has a normal subgroup of index 2")
    lat = enumerate_subgroups(g, cap=lattice_cap)
    o3 = lat.entry(p_core(g, 3).members)
    _require(o3.order == 27, f"O_3 order {o3.order} != 27")
    _require(o3.is_abelian() and exponent(g, o3) == 3, "O_3 is not elementary abelian")
    rep = lat.sylow(3)[0]
    _require(rep.order == 81, f"Sylow 3-subgroup order {rep.order} != 81")
    maximals = lat.within(rep.members, order=rep.order // 3)
    _require(maximals, "Sylow 3-subgroup has no maximal subgroups")
    for h in maximals:
        _require(is_complemented(lat, h), f"maximal {h.describe()} not complemented")
        _require(
            is_weakly_s_supplemented(lat, h),
            f"maximal {h.describe()} not weakly s-supplemented",
        )
    pl = p_length(g, 3)
    _require(pl.is_p_solvable, "G is not 3-solvable")
    _require(pl.p_length == 2, f"3-length {pl.p_length} != 2")
    comps = lat.complements(o3)
    _require(comps, "O_3 has no complement")
    _require(
        comps[0].order == 12, f"O_3 complement order {comps[0].order} != 12"
    )
    # A complement of O_3 maps isomorphically onto G/O_3.
    qname = fingerprint(close_generators(g.degree, comps[0].generators)).name
    _require(qname == "A4", f"G/O_3 has type {qname}, not A4")
    facts = (
        ("wreath product order", b.order),
        ("2-residual order", g.order),
        ("subgroup count", len(lat.subgroups)),
        ("O_3 order", o3.order),
        ("O_3 elementary abelian", True),
        ("quotient by O_3", qname),
        ("Sylow 3-subgroup order", rep.order),
        ("maximal subgroups of Sylow 3", len(maximals)),
        ("each complemented in G", True),
        ("each weakly s-supplemented in G", True),
        ("3-length of G", pl.p_length),
        ("O_3 complement order", comps[0].order),
    )
    return Example42(g, facts)


def _cmd_example42(args) -> int:
    ex = build_example42(lattice_cap=args.lattice_cap, group_cap=args.group_cap)
    for line in ex.lines():
        print(line)
    print("all example checks passed")
    return 0


# -- parser ------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of the caps and order bounds: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument(
        "--group-cap",
        type=_positive_int,
        default=DEFAULT_GROUP_CAP,
        help=f"largest group order to close (default {DEFAULT_GROUP_CAP})",
    )
    caps.add_argument(
        "--lattice-cap",
        type=_positive_int,
        default=DEFAULT_LATTICE_CAP,
        help="largest group order whose subgroup lattice is enumerated "
        f"(default {DEFAULT_LATTICE_CAP})",
    )
    # The report commands, verify and scan-q13, run registry entries over a
    # corpus; only they pair groups with normal subgroups E.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--max-normal-e",
        type=_positive_int,
        default=DEFAULT_MAX_NORMAL_E,
        help=f"normal subgroups paired per group (default {DEFAULT_MAX_NORMAL_E})",
    )
    report.add_argument("--corpus", default="builtin", help="'builtin' or a directory")
    report.add_argument(
        "--max-order",
        type=_positive_int,
        help="group order bound for every entry run (default: each entry's own)",
    )
    report.add_argument("--report", help="write JSON report to this path")
    report.add_argument("--csv", help="write CSV verdicts to this path")
    report.add_argument("--with-timings", action="store_true")

    parser = argparse.ArgumentParser(
        prog="permlat",
        description="finite-group subgroup embedding analysis and "
        "statement verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[caps], help="structural properties")
    p.add_argument("group", help="builtin name or group file path")
    p.add_argument("--props", help="comma-separated property list, or 'all'")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "check-subgroup", parents=[caps], help="test one embedding predicate"
    )
    p.add_argument("group", help="builtin name or group file path")
    p.add_argument(
        "--gens",
        required=True,
        help="semicolon-separated cycle products generating the subgroup",
    )
    p.add_argument(
        "--predicate",
        required=True,
        help=", ".join(_PREDICATES),
    )
    p.set_defaults(func=_cmd_check_subgroup)

    p = sub.add_parser(
        "verify", parents=[caps, report], help="check statements over a corpus"
    )
    p.add_argument(
        "--statement",
        required=True,
        metavar="ID",
        help="a statement id, or all (an unknown id lists the known ones)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "scan-q13",
        parents=[caps, report],
        help="scan for counterexample candidates to the open question",
    )
    p.set_defaults(func=_cmd_scan_q13)

    p = sub.add_parser(
        "reproduce-example42",
        parents=[caps],
        help="rebuild the order-324 control example and verify its facts",
    )
    p.set_defaults(func=_cmd_example42)

    p = sub.add_parser("lattice", parents=[caps], help="export a DOT lattice")
    p.add_argument("group", help="builtin name or group file path")
    p.add_argument("--dot", required=True, help="output path")
    p.set_defaults(func=_cmd_lattice)

    return parser


def _escape_unencodable_output() -> None:
    """Let stdout and stderr write a character their encoding lacks (a
    group name under an ASCII locale) as a backslash escape, not raise."""
    for stream in (sys.stdout, sys.stderr):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(errors="backslashreplace")


def main(argv=None) -> int:
    _escape_unencodable_output()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (
        GroupFileError,
        InvalidPermutationError,
        DegreeMismatchError,
        NotAnElementError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except PermlatError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
