"""Report assembly: determinism, schema shape, CSV, DOT, golden file."""

import hashlib
import json
import os

import pytest

from permlat.corpus import builtin_corpus
from permlat.reports import (
    SCHEMA_VERSION,
    emit_lattice_dot,
    lattice_dot,
    run_verification,
)
from permlat.errors import PermlatError
from permlat.lattice import enumerate_subgroups
from permlat.statements import STATEMENT_IDS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def slice_of(*names):
    wanted = dict(builtin_corpus())
    return [(n, wanted[n]) for n in names]


SMALL = ("S3", "S4", "Q8", "C12", "D12")


def small_run(**kw):
    kw.setdefault("max_order", 30)
    return run_verification(
        ["L2.2", "remark1"], slice_of(*SMALL), "test slice", **kw
    )


def test_two_runs_byte_identical():
    a = small_run().to_json()
    b = small_run().to_json()
    assert a == b


def test_schema_keys_and_order():
    d = small_run().to_dict()
    assert list(d) == [
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
    ]
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["tool"] == "permlat"
    assert d["corpus"] == "test slice"
    assert set(d["caps"]) == {"group_cap", "lattice_cap", "max_normal_e"}


def test_verdict_dict_shape():
    d = small_run().to_dict()
    assert d["verdicts"], "expected at least one verdict"
    for v in d["verdicts"]:
        assert list(v) == [
            "statement",
            "group",
            "instance",
            "hypothesis_satisfied",
            "conclusion_holds",
            "consistent",
            "witnesses",
        ]


def test_statement_rows():
    rep = small_run()
    rows = {r["statement"]: r for r in rep.statements}
    assert set(rows) == {"L2.2", "remark1"}
    for r in rows.values():
        assert r["max_order"] == 30
        assert r["inconsistent"] == 0
    assert rep.consistent
    assert rep.inconsistencies() == []


def test_verdicts_sorted():
    rep = small_run()
    keys = [
        (v.group_id, v.statement_id, v.instance) for v in rep.sorted_verdicts()
    ]
    assert keys == sorted(keys)


def test_csv_row_count_matches_verdicts():
    rep = small_run()
    lines = rep.to_csv().strip().split("\n")
    header, rows = lines[0], lines[1:]
    assert header.startswith("statement,group,instance")
    assert len(rows) == len(rep.verdicts)


def test_csv_quoting():
    rep = small_run()
    text = rep.to_csv()
    # witnesses joined with "; " never leak unquoted commas into the row
    import csv
    import io

    parsed = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == 7 for row in parsed)


def test_timings_optional():
    rep = small_run(with_timings=True)
    d = rep.to_dict()
    assert "timings" in d
    assert set(d["timings"]) == {"L2.2", "remark1"}
    assert all(isinstance(t, float) for t in d["timings"].values())
    assert "timings" not in small_run().to_dict()


def test_unknown_statement_raises():
    with pytest.raises(PermlatError, match="known"):
        run_verification(["L99"], slice_of("S3"), "x")


def test_max_order_none_keeps_defaults():
    rep = run_verification(["L2.1"], slice_of("S3"), "x")
    assert rep.statements[0]["max_order"] == 100


def test_truncation_notes():
    rep = run_verification(
        ["thmB"],
        slice_of("C12"),
        "x",
        max_order=20,
        max_normal_e=2,
    )
    assert any("C12" in t and "truncated" in t for t in rep.truncations)
    d = rep.to_dict()
    assert d["truncations"] == rep.truncations


def test_truncation_reported_when_no_e_is_paired():
    rep = run_verification(
        ["thmB", "q13"], slice_of("S3", "C12"), "x", max_order=20, max_normal_e=0
    )
    assert rep.verdicts == []
    assert rep.truncations == [
        f"{sid}: {name} E list truncated to the 0 largest normal subgroups"
        for sid in ("q13", "thmB")
        for name in ("C12", "S3")
    ]


def test_q13_scan_clean_on_slice():
    rep = run_verification(["q13"], slice_of(*SMALL), "test slice", max_order=30)
    assert rep.flags == []
    assert rep.consistent
    row = rep.statements[0]
    assert row["statement"] == "q13"
    assert "note" in row


def test_dot_s4_has_eleven_class_nodes():
    groups = dict(builtin_corpus())
    lat = enumerate_subgroups(groups["S4"])
    text = lattice_dot(lat, title="S4")
    nodes = [ln for ln in text.split("\n") if "label=" in ln and "->" not in ln]
    assert len(nodes) == 11
    assert text.startswith("digraph")
    edges = [ln for ln in text.split("\n") if "->" in ln]
    assert edges, "expected covering edges"


def test_emit_lattice_dot_writes_file(tmp_path):
    groups = dict(builtin_corpus())
    out = tmp_path / "s3.dot"
    lat = emit_lattice_dot(groups["S3"], out)
    assert lat.group.order == 6
    assert out.read_text().startswith("digraph")


def test_json_round_trips():
    rep = small_run()
    d = json.loads(rep.to_json())
    assert d == rep.to_dict()


def test_golden_json_shape():
    # Pinned output for a fixed slice. Regenerate with
    # tests/data/make_golden.py after a deliberate schema change.
    rep = run_verification(
        ["remark1"], slice_of("Q8", "C12"), "golden slice", max_order=20
    )
    with open(os.path.join(DATA_DIR, "golden_remark1.json")) as fh:
        assert rep.to_json() == fh.read()


# sha256 of the JSON report for every statement over the builtin corpus
# at the default caps; the same digest the benchmark pins for its
# "registry" workload. The CSV digest pins the same run's CSV rows.
REGISTRY_DIGEST = "47efc6d6f189426750d5f17f97fbbeddd604233c299a987d35df3e16692fe427"
REGISTRY_CSV_DIGEST = "fdfa4cffdbf941f91ed69e4a6de751fd0e4cfc738cf6c5411b4760f7a1efd1ed"


def test_full_registry_golden_digest():
    rep = run_verification(list(STATEMENT_IDS), builtin_corpus(), "builtin corpus")
    assert len(rep.verdicts) == 4686
    assert not rep.inconsistencies()
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == REGISTRY_DIGEST
    assert hashlib.sha256(rep.to_csv().encode()).hexdigest() == REGISTRY_CSV_DIGEST
