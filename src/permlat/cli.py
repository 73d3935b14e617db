"""Command line interface.

Exit codes: 0 all consistent, 1 verification inconsistency (witness named),
2 usage or parse error or an unwritable output path, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import (
    builtin_corpus,
    builtin_group,
    load_corpus_dir,
    load_group,
    parse_group_file,
)
from .embedding import (
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
    InvalidPermutationError,
    NotAnElementError,
    PermlatError,
)
from .groups import DEFAULT_GROUP_CAP
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
    p_length,
    u_hypercenter,
)


def _resolve_group(token: str, group_cap: int):
    path = Path(token)
    if path.exists():
        return load_group(parse_group_file(path), cap=group_cap)
    group = builtin_group(token)
    if group is not None:
        return group
    raise GroupFileError(
        f"unknown group {token!r}: not a file and not a builtin corpus name",
        1,
        1,
    )


def _load_corpus(token: str, group_cap: int):
    if token == "builtin":
        return builtin_corpus(), "builtin corpus"
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
    "chief-factors": lambda g, lat: " ".join(
        str(f.order) for f in chief_series(g).factors
    ),
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
    or "not p-solvable for any p",
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
        if args.props
        else list(_DEFAULT_PROPS)
    )
    if args.props and props == ["all"]:
        props = list(_PROPS)
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


def _pred_witnessed(fn):
    def run(lat, sub):
        ok, wit = fn(lat, sub)
        return ok, None if wit is None else wit.describe()

    return run


_PREDICATES = {
    "normal": lambda lat, sub: (
        lat.normal_flags[lat.index_of(sub)],
        None,
    ),
    "subnormal": _pred_plain(subnormal_in),
    "s-permutable": _pred_plain(is_s_permutable),
    "permutable": _pred_plain(is_permutable),
    "c-normal": _pred_plain(is_c_normal),
    "complemented": _pred_plain(is_complemented),
    "weakly-s-supplemented": _pred_witnessed(is_weakly_s_supplemented),
    "weakly-s-permutable": _pred_witnessed(is_weakly_s_permutable),
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
    print("all consistent")
    return 0


def _cannot_write(path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _write_outputs(report, args, code: int) -> int:
    """Write the requested report files; code, or 2 if one cannot be written."""
    for path, render, what in (
        (args.report, report.to_json, "JSON report"),
        (args.csv, report.to_csv, "CSV"),
    ):
        if not path:
            continue
        try:
            Path(path).write_text(render())
        except OSError as exc:
            return _cannot_write(path, exc)
        print(f"wrote {what} to {path}")
    return code


# The registry and the report layer are imported by the commands that use
# them, so the other commands start without loading them.


def _cmd_verify(args) -> int:
    from .reports import run_verification
    from .statements import STATEMENT_IDS

    if args.statement != "all" and args.statement not in STATEMENT_IDS:
        print(
            f"error: unknown statement {args.statement!r} "
            f"(known: {', '.join(STATEMENT_IDS)}, all)",
            file=sys.stderr,
        )
        return 2
    corpus, description = _load_corpus(args.corpus, args.group_cap)
    ids = list(STATEMENT_IDS) if args.statement == "all" else [args.statement]
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
    code = _print_report(report, show_flags=False)
    return _write_outputs(report, args, code)


def _cmd_scan_q13(args) -> int:
    from .reports import run_verification

    corpus, description = _load_corpus(args.corpus, args.group_cap)
    report = run_verification(
        ["q13"],
        corpus,
        description,
        max_order=args.max_order,
        group_cap=args.group_cap,
        lattice_cap=args.lattice_cap,
        max_normal_e=args.max_normal_e,
        with_timings=args.with_timings,
    )
    code = _print_report(report, show_flags=True)
    return _write_outputs(report, args, code)


def _cmd_example42(args) -> int:
    from .statements import build_example42

    ex = build_example42(lattice_cap=args.lattice_cap)
    for line in ex.lines():
        print(line)
    print("all example checks passed")
    return 0


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
    caps.add_argument(
        "--max-normal-e",
        type=_positive_int,
        default=DEFAULT_MAX_NORMAL_E,
        help=f"normal subgroups paired per group (default {DEFAULT_MAX_NORMAL_E})",
    )

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
        "verify", parents=[caps], help="check statements over a corpus"
    )
    p.add_argument(
        "--statement",
        required=True,
        metavar="ID",
        help="a statement id, or all (an unknown id lists the known ones)",
    )
    p.add_argument("--corpus", default="builtin", help="'builtin' or a directory")
    p.add_argument(
        "--max-order",
        type=_positive_int,
        help="override the per-statement group order bound",
    )
    p.add_argument("--report", help="write JSON report to this path")
    p.add_argument("--csv", help="write CSV verdicts to this path")
    p.add_argument("--with-timings", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "scan-q13",
        parents=[caps],
        help="scan for counterexample candidates to the open question",
    )
    p.add_argument("--corpus", default="builtin", help="'builtin' or a directory")
    p.add_argument(
        "--max-order",
        type=_positive_int,
        help="override the scan's group order bound (default 200)",
    )
    p.add_argument("--report", help="write JSON report to this path")
    p.add_argument("--csv", help="write CSV verdicts to this path")
    p.add_argument("--with-timings", action="store_true")
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


def main(argv=None) -> int:
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
