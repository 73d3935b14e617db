"""Report assembly: determinism, schema shape, CSV, DOT, golden file."""

import dataclasses
import gc
import hashlib
import json
import os
import tracemalloc
import weakref

import pytest

import oracles
from permlat import reports
from permlat.corpus import builtin_corpus
from permlat.reports import SCHEMA_VERSION, VerificationReport, run_verification
from permlat.errors import PermlatError
from permlat.lattice import emit_lattice_dot, enumerate_subgroups, lattice_dot
from permlat.statements import (
    STATEMENT_IDS,
    STATEMENTS,
    GroupAnalysis,
    StatementSpec,
    Verdict,
)

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


def _holds_no_derived_data(group) -> bool:
    return (
        group._table is None
        and group._inv is None
        and group._orders is None
        and not group._memo
    )


def test_two_runs_byte_identical():
    """Both runs use the same group objects: each releases every group's
    table, inverses, element orders and memos, and the second run, which
    rebuilds them, writes the same JSON."""
    groups = [g for _, g in slice_of(*SMALL)]
    a = small_run().to_json()
    assert all(map(_holds_no_derived_data, groups))
    b = small_run().to_json()
    assert all(map(_holds_no_derived_data, groups))
    assert a == b


def test_corpus_holds_little_after_a_registry_run():
    """Of what a default registry run over the builtin corpus allocates,
    the corpus keeps almost nothing once the report is dropped. Holding
    every group's table and memos to the end, it kept about 1.9 MiB."""
    corpus = builtin_corpus()
    gc.collect()
    tracemalloc.start()
    try:
        report = run_verification(list(STATEMENT_IDS), corpus, "builtin corpus")
        del report
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024


def test_schema_keys_and_order():
    d = json.loads(small_run().to_json())
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
    d = json.loads(small_run().to_json())
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
    d = oracles.report_dict(rep)
    assert "timings" in d
    assert set(d["timings"]) == {"L2.2", "remark1"}
    assert all(isinstance(t, float) for t in d["timings"].values())
    assert "timings" not in oracles.report_dict(small_run())


def test_unknown_statement_raises(monkeypatch):
    with pytest.raises(PermlatError, match="known"):
        run_verification(["L99"], slice_of("S3"), "x")
    # Every id is resolved before any group is analysed.
    def refuse(*args, **kwargs):
        raise AssertionError("a group was analysed")

    monkeypatch.setattr(reports, "GroupAnalysis", refuse)
    with pytest.raises(PermlatError, match="bogus"):
        run_verification(["L2.2", "bogus"], slice_of("S4"), "x")


def test_lattice_over_the_cap_is_a_skipped_row():
    """A group whose lattice is over the cap is skipped by every entry that
    needs it, and the pass goes on; remark1 needs no lattice."""
    ids = ["L2.2", "remark1"]
    rep = run_verification(ids, slice_of("S3", "S4", "Q8"), "x", lattice_cap=10)
    assert rep.skipped == ["L2.2: S4 (group order 24 exceeds lattice cap 10)"]
    assert [row["groups_checked"] for row in rep.statements] == [2, 3]
    full = run_verification(ids, slice_of("S3", "S4", "Q8"), "x")
    assert full.skipped == []
    assert "skipped" not in full.to_json()
    kept = [v for v in full.verdicts if (v.statement_id, v.group_id) != ("L2.2", "S4")]
    assert rep.verdicts == kept
    assert json.loads(rep.to_json())["skipped"] == rep.skipped


def test_repeated_group_names_keep_their_own_verdicts():
    groups = dict(builtin_corpus())
    rep = run_verification(
        ["L2.8"], [("G", groups["C3"]), ("G", groups["S4"])], "repeated name"
    )
    assert [v.instance for v in rep.verdicts] == ["p=3", "p=2", "p=3"]
    assert rep.statements[0]["groups_checked"] == 2


def test_finished_group_analysis_is_collectable(monkeypatch):
    refs = []

    def probe(ga):
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)
        refs.append(weakref.ref(ga))
        return []

    spec = StatementSpec("probe", probe, 100)
    monkeypatch.setattr(reports, "statement_spec", lambda sid: spec)
    run_verification(["probe"], slice_of("S3", "C12", "S4"), "x")
    assert len(refs) == 3


def test_dropped_analysis_frees_its_lattice_without_the_cycle_collector():
    ga = GroupAnalysis(dict(builtin_corpus())["S4"], "S4", max_normal_e=1000)
    for spec in STATEMENTS.values():
        spec.checker(ga)
    lat = weakref.ref(ga.lat)
    gc.disable()
    try:
        del ga
        assert lat() is None
    finally:
        gc.enable()


def test_rows_sum_over_groups_in_catalog_order():
    rep = run_verification(
        ["remark1", "L2.2"], slice_of("S3", "Q8"), "x", with_timings=True
    )
    assert [r["statement"] for r in rep.statements] == ["remark1", "L2.2"]
    assert [r["groups_checked"] for r in rep.statements] == [2, 2]
    assert list(rep.timings) == ["remark1", "L2.2"]
    # Verdicts come group by group; reports sort them.
    assert [v.group_id for v in rep.verdicts] == sorted(
        (v.group_id for v in rep.verdicts), key=["S3", "Q8"].index
    )


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
    d = oracles.report_dict(rep)
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
    assert d == oracles.report_dict(rep)


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


@pytest.fixture(scope="module")
def registry_report():
    return run_verification(list(STATEMENT_IDS), builtin_corpus(), "builtin corpus")


def test_full_registry_golden_digest(registry_report):
    rep = registry_report
    assert len(rep.verdicts) == 4686
    assert not rep.inconsistencies()
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == REGISTRY_DIGEST
    assert hashlib.sha256(rep.to_csv().encode()).hexdigest() == REGISTRY_CSV_DIGEST


def test_to_json_peak_memory_is_bounded_by_its_text(registry_report):
    """The writer holds one block of rows beside the blocks it has joined,
    then joins them once: its traced peak above its start, the returned
    text included, stays under 2.5 times the text. A dict tree of the
    report with full-text concatenations reads about 4.7 times."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        text = registry_report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * len(text)


def test_to_csv_peak_memory_is_bounded_by_its_text(registry_report):
    """Like ``to_json``, the CSV writer joins blocks of rows once: its
    traced peak, the returned text included, stays under 2.5 times the
    text. One string per row and two full-text copies read about 4.4."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        text = registry_report.to_csv()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * len(text)


def _json_reference(rep):
    return json.dumps(oracles.report_dict(rep), indent=2) + "\n"


def test_to_json_matches_json_dumps(registry_report, monkeypatch):
    """The row writer against json.dumps on the full registry, a q13 scan
    with flags, timings, zero verdicts and awkward witness strings."""
    reports = {"registry": registry_report}
    rigged = (
        Verdict("q13", "S3", "E=held", True, True, True),
        Verdict("q13", "S3", "E=rigged", True, False, True, ("wit one", "wit two")),
        Verdict("q13", "S3", "E=unmet", False, None, True),
    )
    spec = dataclasses.replace(
        STATEMENTS["q13"], checker=lambda ga: list(rigged) if ga.name == "S3" else []
    )
    monkeypatch.setitem(STATEMENTS, "q13", spec)
    reports["q13 with flags"] = run_verification(
        ["q13"], slice_of("S3", "S4"), "rigged scan", max_order=30
    )
    assert len(reports["q13 with flags"].flags) == 1
    reports["timings"] = small_run(with_timings=True)
    reports["skipped"] = small_run(lattice_cap=10, with_timings=True)
    assert reports["skipped"].skipped
    reports["no verdicts"] = run_verification(["L2.2"], [], "empty corpus")
    odd = Verdict(
        "L2.2",
        'G "quoted"',
        "back\\slash \\n, tab\t",
        True,
        False,
        False,
        (
            'say "hi"',
            "C:\\path\\",
            "Größe ≤ 7, ψ",
            "\U0001d49e",
            "\x00\x1f\u2028",
            "two\nlines",
            "",
        ),
    )
    reports["odd witnesses"] = VerificationReport(
        "odd\ncorpus", {"group_cap": 1}, verdicts=[odd], flags=[odd, odd]
    )
    for label, rep in reports.items():
        assert rep.to_json() == _json_reference(rep), label


def test_to_json_writes_off_template_rows_like_json_dumps():
    """Rows the template does not fit (integer flags, a non-string
    witness) are still written as json.dumps writes them."""
    odd = [
        Verdict("L2.2", "G", "ints", 1, 0, True),
        Verdict("L2.2", "G", "int witness", True, None, True, ("fine", 3)),
        Verdict("L2.2", "G", "plain", True, True, True, ("w",)),
    ]
    rep = VerificationReport("odd rows", {}, verdicts=odd, flags=odd[:1])
    assert '"hypothesis_satisfied": 1' in rep.to_json()
    assert rep.to_json() == _json_reference(rep)
