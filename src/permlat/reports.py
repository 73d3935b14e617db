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
from .groups import DEFAULT_GROUP_CAP
# DOT export keeps its reports names; the benchmark's tracer self-test
# reads reports.enumerate_subgroups.
from .lattice import (  # noqa: F401
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_NORMAL_E,
    emit_lattice_dot,
    enumerate_subgroups,
    lattice_dot,
)
from .statements import GroupAnalysis, statement_spec

SCHEMA_VERSION = 1
TOOL_NAME = "permlat"


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
    """Run the given registry entries over the corpus and assemble a
    report. max_order of None keeps each entry's documented default; an
    explicit value overrides all of them. Scan entries also list their
    verdicts with a satisfied hypothesis and a failed conclusion as flags,
    in corpus order. Every group whose E list was cut is reported as a
    truncation."""
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
        spec = statement_spec(sid)
        limit = max_order if max_order is not None else spec.default_max_order
        started = time.perf_counter()
        groups_checked = 0
        verdict_count = 0
        inconsistent = 0
        for name, group in corpus:
            if group.order > limit:
                continue
            ga = ga_cache.get(name)
            if ga is None:
                ga = GroupAnalysis(
                    group, name, lattice_cap=lattice_cap, max_normal_e=max_normal_e
                )
                ga_cache[name] = ga
            verdicts = spec.checker(ga)
            groups_checked += 1
            verdict_count += len(verdicts)
            inconsistent += sum(1 for v in verdicts if not v.consistent)
            report.verdicts.extend(verdicts)
            if spec.kind == "scan":
                report.flags.extend(
                    v
                    for v in verdicts
                    if v.hypothesis_satisfied and v.conclusion_holds is False
                )
            if spec.pairs_e and ga.normal_e()[1]:
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
