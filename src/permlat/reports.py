"""Report assembly and emission: versioned JSON and CSV rows.

Reports are deterministic for fixed inputs and caps: verdicts are sorted
by (group, statement, instance) and timings are omitted unless requested,
so two identical runs emit byte-identical JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .errors import PermlatError
from .groups import DEFAULT_GROUP_CAP
from .lattice import (  # noqa: F401  (DOT export keeps its reports names)
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_NORMAL_E,
    emit_lattice_dot,
    enumerate_subgroups,
    lattice_dot,
)
from .statements import STATEMENTS, GroupAnalysis, scan_question13

SCHEMA_VERSION = 1
TOOL_NAME = "permlat"

# Statements that pair each group with its normal subgroups E.
_E_PAIRED = ("thmB", "thm12", "C4.10", "C4.12")


@dataclass
class VerificationReport:
    corpus_description: str
    caps: dict
    statements: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    truncations: list = field(default_factory=list)
    timings: Optional[dict] = None

    def inconsistencies(self) -> list:
        return [v for v in self.verdicts if not v.consistent]

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies()

    def sorted_verdicts(self) -> list:
        return sorted(
            self.verdicts,
            key=lambda v: (v.group_id, v.statement_id, v.instance),
        )

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "tool": TOOL_NAME,
            "version": __version__,
            "corpus": self.corpus_description,
            "caps": dict(sorted(self.caps.items())),
            "statements": self.statements,
            "consistent": self.consistent,
            "verdicts": [v.as_dict() for v in self.sorted_verdicts()],
            "flags": [v.as_dict() for v in self.flags],
            "truncations": sorted(self.truncations),
        }
        if self.timings is not None:
            out["timings"] = self.timings
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        cols = (
            "statement",
            "group",
            "instance",
            "hypothesis_satisfied",
            "conclusion_holds",
            "consistent",
            "witnesses",
        )
        lines = [",".join(cols)]
        for v in self.sorted_verdicts():
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
            lines.append(",".join(_csv_quote(c) for c in row))
        return "\n".join(lines) + "\n"


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
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
    """Run the given statement checkers over the corpus and assemble a
    report. max_order of None keeps each statement's documented default;
    an explicit value overrides all of them."""
    report = VerificationReport(
        corpus_description,
        caps={
            "group_cap": group_cap,
            "lattice_cap": lattice_cap,
            "max_normal_e": max_normal_e,
        },
        timings={} if with_timings else None,
    )
    ga_cache: dict = {}
    for sid in statement_ids:
        try:
            spec = STATEMENTS[sid]
        except KeyError:
            known = ", ".join(STATEMENTS)
            raise PermlatError(
                f"unknown statement id {sid!r} (known: {known})"
            ) from None
        limit = max_order if max_order is not None else spec.default_max_order
        cap = lattice_cap
        started = time.perf_counter()
        groups_checked = 0
        verdict_count = 0
        inconsistent = 0
        for name, group in corpus:
            if group.order > limit:
                continue
            key = (name, cap)
            ga = ga_cache.get(key)
            if ga is None:
                ga = GroupAnalysis(
                    group, name, lattice_cap=cap, max_normal_e=max_normal_e
                )
                ga_cache[key] = ga
            verdicts = spec.checker(ga)
            groups_checked += 1
            verdict_count += len(verdicts)
            inconsistent += sum(1 for v in verdicts if not v.consistent)
            report.verdicts.extend(verdicts)
            if sid in _E_PAIRED and verdicts:
                _, truncated = ga.normal_e()
                if truncated:
                    report.truncations.append(
                        f"{sid}: {name} E list truncated to the "
                        f"{max_normal_e} largest normal subgroups"
                    )
        row = {
            "statement": sid,
            "max_order": limit,
            "groups_checked": groups_checked,
            "verdicts": verdict_count,
            "inconsistent": inconsistent,
        }
        if spec.note:
            row["note"] = spec.note
        report.statements.append(row)
        if report.timings is not None:
            report.timings[sid] = round(time.perf_counter() - started, 3)
    report.truncations = sorted(set(report.truncations))
    return report


def run_q13_scan(
    corpus,
    corpus_description: str,
    max_order: int = 200,
    group_cap: int = DEFAULT_GROUP_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    max_normal_e: int = DEFAULT_MAX_NORMAL_E,
    with_timings: bool = False,
) -> VerificationReport:
    """Scan all (G, normal E) pairs for counterexample candidates to the
    open question: clause satisfied without the side conditions, quotient
    supersolvable, G not supersolvable. Candidates are reported as flags,
    not failures."""
    report = VerificationReport(
        corpus_description,
        caps={
            "group_cap": group_cap,
            "lattice_cap": lattice_cap,
            "max_normal_e": max_normal_e,
        },
        timings={} if with_timings else None,
    )
    started = time.perf_counter()
    groups_checked = 0
    for name, group in corpus:
        if group.order > max_order:
            continue
        ga = GroupAnalysis(
            group, name, lattice_cap=lattice_cap, max_normal_e=max_normal_e
        )
        verdicts = scan_question13(ga)
        groups_checked += 1
        report.verdicts.extend(verdicts)
        report.flags.extend(
            v
            for v in verdicts
            if v.hypothesis_satisfied and v.conclusion_holds is False
        )
        _, truncated = ga.normal_e()
        if truncated:
            report.truncations.append(
                f"q13: {name} E list truncated to the "
                f"{max_normal_e} largest normal subgroups"
            )
    report.statements.append(
        {
            "statement": "q13",
            "max_order": max_order,
            "groups_checked": groups_checked,
            "verdicts": len(report.verdicts),
            "inconsistent": sum(1 for v in report.verdicts if not v.consistent),
            "note": "flags are counterexample candidates, not failures",
        }
    )
    report.truncations = sorted(set(report.truncations))
    if report.timings is not None:
        report.timings["q13"] = round(time.perf_counter() - started, 3)
    return report
