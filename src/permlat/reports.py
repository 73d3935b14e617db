"""Report assembly and emission: versioned JSON and CSV rows.

Reports are deterministic for fixed inputs and caps: verdicts are sorted
by (group, statement, instance) and timings are omitted unless requested,
so two identical runs emit byte-identical JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from . import __version__
from .errors import LatticeCapError
from .groups import DEFAULT_GROUP_CAP
# The benchmark's tracer self-test reads reports.enumerate_subgroups.
from .lattice import (  # noqa: F401
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_NORMAL_E,
    enumerate_subgroups,
)
from .statements import GroupAnalysis, statement_spec

SCHEMA_VERSION = 1
TOOL_NAME = "permlat"


def _sort_verdicts(verdicts) -> list:
    """Verdicts by (group, statement, instance), as stable sorts on each
    field, the last first. Key tuples would partly outlive the sort:
    CPython keeps up to 2,000 freed 3-tuples for reuse, half the size of
    the builtin registry's CSV, and the CSV writer's peak carried them."""
    out = list(verdicts)
    for name in ("instance", "statement_id", "group_id"):
        out.sort(key=attrgetter(name))
    return out


@dataclass
class VerificationReport:
    corpus_description: str
    caps: dict
    statements: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    truncations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    timings: Optional[dict] = None

    def inconsistencies(self) -> list:
        """The inconsistent verdicts, in ``sorted_verdicts`` order."""
        return _sort_verdicts(v for v in self.verdicts if not v.consistent)

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies()

    def sorted_verdicts(self) -> list:
        return _sort_verdicts(self.verdicts)

    def to_json(self) -> str:
        """The report as ``json.dumps(indent=2)`` writes its schema, plus a
        newline. With an indent json.dumps runs its pure-Python encoder,
        so it keeps only the small header fields; the verdict and flag
        rows, nearly all of the text, are written here straight from the
        Verdicts, a block of rows at a time, and every piece is joined
        once at the end."""
        pieces = ["{\n"]
        header = (
            ("schema_version", SCHEMA_VERSION),
            ("tool", TOOL_NAME),
            ("version", __version__),
            ("corpus", self.corpus_description),
            ("caps", dict(sorted(self.caps.items()))),
            ("statements", self.statements),
            ("consistent", self.consistent),
        )
        for key, value in header:
            pieces.append(f"  {_encode_str(key)}: {_nested_json(value, '  ')},\n")
        pieces.append('  "verdicts": ')
        _write_rows(pieces, self.sorted_verdicts())
        pieces.append(',\n  "flags": ')
        _write_rows(pieces, self.flags)
        pieces.append(f',\n  "truncations": {_nested_json(sorted(self.truncations), "  ")}')
        if self.skipped:
            pieces.append(f',\n  "skipped": {_nested_json(self.skipped, "  ")}')
        if self.timings is not None:
            pieces.append(f',\n  "timings": {_nested_json(self.timings, "  ")}')
        pieces.append("\n}\n")
        return "".join(pieces)

    def to_csv(self) -> str:
        """The verdict rows under a header line, one line each. Like
        ``to_json`` it joins a block of rows at a time and every piece
        once at the end."""
        pieces = [",".join(_CSV_COLUMNS), "\n"]
        verdicts = self.sorted_verdicts()
        for start in range(0, len(verdicts), _ROWS_PER_BLOCK):
            pieces.append("".join(map(_row_csv, verdicts[start : start + _ROWS_PER_BLOCK])))
        return "".join(pieces)


_CSV_COLUMNS = (
    "statement",
    "group",
    "instance",
    "hypothesis_satisfied",
    "conclusion_holds",
    "consistent",
    "witnesses",
)


def _row_csv(v) -> str:
    """One verdict row of the CSV, with its line break."""
    concl = "" if v.conclusion_holds is None else str(v.conclusion_holds)
    row = (
        v.statement_id,
        v.group_id,
        v.instance,
        str(v.hypothesis_satisfied),
        concl,
        str(v.consistent),
        "; ".join(v.witnesses),
    )
    return ",".join(map(_csv_quote, row)) + "\n"


# The string encoder json.dumps itself uses (ensure_ascii, in C).
_encode_str = json.encoder.encode_basestring_ascii


def _nested_json(value, pad: str) -> str:
    """``value`` as json.dumps(indent=2) writes it inside a line indented
    by ``pad``. Encoded strings hold no raw newline, so every newline is
    a line break of the layout."""
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


_LITERAL = {True: "true", False: "false", None: "null"}
_FLAG_TYPES = (bool, type(None))


# Rows are joined this many at a time: the writer holds one block of row
# strings beside the joined blocks, never one string per row to the end.
_ROWS_PER_BLOCK = 256


def _write_rows(pieces: list, verdicts) -> None:
    """Append a top-level list of verdict rows, as json.dumps(indent=2)
    writes it, to ``pieces``, one joined block of rows at a time."""
    if not verdicts:
        pieces.append("[]")
        return
    pieces.append("[\n")
    for start in range(0, len(verdicts), _ROWS_PER_BLOCK):
        if start:
            pieces.append(",\n")
        pieces.append(",\n".join(map(_row_json, verdicts[start : start + _ROWS_PER_BLOCK])))
    pieces.append("\n  ]")


def _row_json(v) -> str:
    """One verdict row, read off the Verdict's fields into one template.
    A row with a flag that is not a bool (or None for the conclusion), or
    a text that is not a string, goes to json.dumps instead."""
    hyp, concl, ok = v.hypothesis_satisfied, v.conclusion_holds, v.consistent
    enc = _encode_str
    try:
        if type(hyp) is not bool or type(ok) is not bool or type(concl) not in _FLAG_TYPES:
            raise TypeError
        w = ",\n        ".join(map(enc, v.witnesses))
        w = f"[\n        {w}\n      ]" if w else "[]"
        return (
            f'    {{\n      "statement": {enc(v.statement_id)},\n'
            f'      "group": {enc(v.group_id)},\n'
            f'      "instance": {enc(v.instance)},\n'
            f'      "hypothesis_satisfied": {_LITERAL[hyp]},\n'
            f'      "conclusion_holds": {_LITERAL[concl]},\n'
            f'      "consistent": {_LITERAL[ok]},\n'
            f'      "witnesses": {w}\n    }}'
        )
    except TypeError:
        row = {
            "statement": v.statement_id,
            "group": v.group_id,
            "instance": v.instance,
            "hypothesis_satisfied": hyp,
            "conclusion_holds": concl,
            "consistent": ok,
            "witnesses": list(v.witnesses),
        }
        return "    " + _nested_json(row, "    ")


def _csv_quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def run_verification(
    statement_ids,
    corpus,
    corpus_description: str,
    max_order: Optional[int] = None,
    group_cap: int = DEFAULT_GROUP_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    max_normal_e: int = DEFAULT_MAX_NORMAL_E,
    with_timings: bool = False,
) -> VerificationReport:
    """Run the given registry entries over the corpus and assemble a
    report, in one pass: each group gets one GroupAnalysis, which every
    entry uses in turn. Once they have run, the GroupAnalysis is dropped
    and the group releases its table, inverses, element orders and memos
    (``Group.release_caches``), so a pass holds one group's working set
    besides the report; a later call on the group rebuilds them on
    demand, with the same values. All ids are resolved first. Statement
    rows and timings sum over groups. max_order of None keeps each
    entry's documented default; an explicit value overrides all of them.
    Scan entries also list their verdicts with a satisfied hypothesis and
    a failed conclusion as flags, in corpus order. Every group whose E
    list was cut is reported as a truncation. An entry that needs the
    lattice of a group over ``lattice_cap`` is skipped on that group and
    reported as a skipped row; the pass goes on."""
    specs = [statement_spec(sid) for sid in statement_ids]
    report = VerificationReport(
        corpus_description,
        caps={
            "group_cap": group_cap,
            "lattice_cap": lattice_cap,
            "max_normal_e": max_normal_e,
        },
    )
    for spec in specs:
        limit = max_order if max_order is not None else spec.default_max_order
        counts = dict(groups_checked=0, verdicts=0, inconsistent=0)
        note = {"note": spec.note} if spec.note else {}
        report.statements.append(
            {"statement": spec.statement_id, "max_order": limit, **counts, **note}
        )
    seconds = {spec.statement_id: 0.0 for spec in specs}
    for name, group in corpus:
        ga = GroupAnalysis(
            group, name, lattice_cap=lattice_cap, max_normal_e=max_normal_e
        )
        for spec, row in zip(specs, report.statements):
            if group.order > row["max_order"]:
                continue
            started = time.perf_counter()
            try:
                verdicts = spec.checker(ga)
            except LatticeCapError as exc:
                report.skipped.append(f"{spec.statement_id}: {name} ({exc})")
                continue
            finally:
                seconds[spec.statement_id] += time.perf_counter() - started
            row["groups_checked"] += 1
            row["verdicts"] += len(verdicts)
            row["inconsistent"] += sum(1 for v in verdicts if not v.consistent)
            report.verdicts.extend(verdicts)
            if spec.kind == "scan":
                report.flags.extend(
                    v
                    for v in verdicts
                    if v.hypothesis_satisfied and v.conclusion_holds is False
                )
            if spec.pairs_e and ga.e_truncated:
                report.truncations.append(
                    f"{spec.statement_id}: {name} E list truncated to the "
                    f"{max_normal_e} largest normal subgroups"
                )
        del ga
        group.release_caches()
    if with_timings:
        report.timings = {sid: round(t, 3) for sid, t in seconds.items()}
    report.truncations = sorted(set(report.truncations))
    return report
