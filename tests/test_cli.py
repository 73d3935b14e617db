"""End-to-end CLI tests driving main(argv) and checking exit codes.

0 = all consistent, 1 = verified inconsistency, 2 = usage or parse
error, 3 = cap exceeded.
"""

import codecs
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import permlat
from permlat import corpus, reports
from permlat.cli import main

S4_FILE = """\
name: S4
degree: 4
gens: (1 2), (1 2 3 4)
expected_order: 24
"""

S5_FILE = """\
name: S5
degree: 5
gens: (1 2), (1 2 3 4 5)
"""


def test_analyze_builtin(capsys):
    assert main(["analyze", "S4"]) == 0
    out = capsys.readouterr().out
    assert "order: 24" in out
    assert "solvable: True" in out
    assert "supersolvable: False" in out
    assert "fingerprint: S4" in out


def test_analyze_props_subset(capsys):
    assert main(["analyze", "D8xC3", "--props", "order,nilpotent"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == ["group: D8xC3", "order: 24", "nilpotent: True"]


def test_analyze_all_props(capsys):
    assert main(["analyze", "Q8", "--props", "all"]) == 0
    out = capsys.readouterr().out
    assert "subgroups: 6" in out
    assert "frattini: 2" in out


def test_analyze_group_file(tmp_path, capsys):
    f = tmp_path / "s4.group"
    f.write_text(S4_FILE)
    assert main(["analyze", str(f), "--props", "order,fingerprint"]) == 0
    out = capsys.readouterr().out
    assert "fingerprint: S4" in out


def test_analyze_trivial_and_c3_c8_group_files(tmp_path, capsys):
    """No prime divides 1, so C1's p-length is empty, as its chief factors
    are; C3:C8 has one involution but is not Dic6."""
    c1 = tmp_path / "c1.group"
    c1.write_text("name: C1\ndegree: 1\ngens:\n")
    assert main(["analyze", str(c1)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "p-length: " in out and "chief-factors: " in out
    c3_c8 = tmp_path / "c3c8.group"
    c3_c8.write_text("name: C3:C8\ndegree: 11\ngens: (1 2 3), (1 2)(4 5 6 7 8 9 10 11)\n")
    assert main(["analyze", str(c3_c8), "--props", "order,fingerprint"]) == 0
    assert "fingerprint: unrecognized" in capsys.readouterr().out


def test_analyze_unknown_group(monkeypatch, capsys):
    """An unknown name exits 2 and a listed product resolves, neither by
    building the corpus."""

    def refuse():
        raise AssertionError("builtin corpus built")

    with monkeypatch.context() as m:
        m.setattr(corpus, "_builtin", refuse)
        for name in ("NoSuchGroup", "C2xNoSuch", "C2xC3xC5"):
            assert main(["analyze", name]) == 2, name
        assert main(["analyze", "C2xS3", "--props", "order"]) == 0
    assert capsys.readouterr().out.strip().split("\n") == ["group: C2xS3", "order: 12"]


def test_analyze_unknown_prop(capsys):
    assert main(["analyze", "S4", "--props", "order,bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_analyze_no_props(capsys):
    for props in (",", ""):
        assert main(["analyze", "S4", "--props", props]) == 2, props
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no props given (known: order, "), props
        assert captured.out == ""


def test_analyze_malformed_file(tmp_path):
    f = tmp_path / "bad.group"
    f.write_text("degree: 3\ngens: (1 2\n")
    assert main(["analyze", str(f)]) == 2


def test_check_subgroup_normal(capsys):
    code = main(
        ["check-subgroup", "S4", "--gens", "(1 2)(3 4); (1 3)(2 4)",
         "--predicate", "normal"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "(order 4)" in out
    assert "normal: True" in out


def test_check_subgroup_witness(capsys):
    code = main(
        ["check-subgroup", "S3", "--gens", "(1 2)",
         "--predicate", "weakly-s-supplemented"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "weakly-s-supplemented: True" in out
    assert "witness:" in out
    assert "T =" in out


@pytest.mark.parametrize(
    "group, gens, predicate, line",
    [
        ("D8xC3", "(5 6 7); (1 3)(2 4)", "weakly-s-supplemented",
         "witness: weakly_s_supplemented via T = <order 8: (2 4), (1 2)(3 4)>, "
         "intersection order 2, bound order 6"),
        ("S4", "(2 4); (1 2)(3 4)", "weakly-s-permutable",
         "witness: weakly_s_permutable via T = <order 12: (2 3 4), (1 2)(3 4)>, "
         "intersection order 4, bound order 4"),
        ("S4", "(1 2 3 4)", "supersolvable-supplement",
         "witness: <order 6: (3 4), (2 3)>"),
    ],
)
def test_check_subgroup_witness_text(capsys, group, gens, predicate, line):
    """The full witness line of each supplement predicate, with an
    intersection and a bound above the trivial group."""
    assert main(["check-subgroup", group, "--gens", gens, "--predicate", predicate]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == f"{predicate}: True"
    assert out[3] == line
    assert len(out) == 4


def test_check_subgroup_s_permutable(capsys):
    code = main(
        ["check-subgroup", "S3", "--gens", "(1 2)",
         "--predicate", "s-permutable"]
    )
    assert code == 0
    assert "s-permutable: False" in capsys.readouterr().out


def test_check_subgroup_unknown_predicate(capsys):
    code = main(
        ["check-subgroup", "S3", "--gens", "(1 2)", "--predicate", "bogus"]
    )
    assert code == 2
    assert "known" in capsys.readouterr().err


def test_check_subgroup_bad_gens():
    code = main(
        ["check-subgroup", "S3", "--gens", "(1 2", "--predicate", "normal"]
    )
    assert code == 2


def test_check_subgroup_degree_mismatch():
    code = main(
        ["check-subgroup", "S3", "--gens", "(1 9)", "--predicate", "normal"]
    )
    assert code == 2


def test_check_subgroup_generator_outside_group(capsys):
    code = main(
        ["check-subgroup", "A4", "--gens", "(1 2)", "--predicate", "normal"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not an element" in err


def test_verify_single_statement(capsys):
    code = main(
        ["verify", "--statement", "remark1", "--corpus", "builtin",
         "--max-order", "30"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "remark1" in out
    assert "all consistent" in out


def test_verify_unknown_statement(capsys):
    assert main(["verify", "--statement", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "thmB" in err
    assert "all" in err


def test_verify_writes_report_and_csv(tmp_path, capsys):
    rp = tmp_path / "r.json"
    cp = tmp_path / "r.csv"
    code = main(
        ["verify", "--statement", "L2.2", "--max-order", "30",
         "--report", str(rp), "--csv", str(cp)]
    )
    assert code == 0
    data = json.loads(rp.read_text())
    assert data["schema_version"] == 1
    assert data["consistent"] is True
    rows = cp.read_text().strip().split("\n")
    assert len(rows) == len(data["verdicts"]) + 1


def test_verify_corpus_dir(tmp_path, capsys):
    (tmp_path / "onlys4.group").write_text(S4_FILE)
    code = main(
        ["verify", "--statement", "L2.2", "--corpus", str(tmp_path),
         "--max-order", "30"]
    )
    assert code == 0
    assert "1 groups" in capsys.readouterr().out


def test_verify_missing_corpus_dir():
    assert main(["verify", "--statement", "L2.2", "--corpus", "/no/such"]) == 2


def test_group_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    """Group files are UTF-8; bytes that do not decode are a usage error,
    not an inconsistency, for one file and for a corpus directory."""
    bad = tmp_path / "bad.group"
    bad.write_bytes(b"name: bad\xff name\ndegree: 3\ngens: (1 2 3)\n")
    assert main(["analyze", str(bad), "--props", "order"]) == 2
    assert f"error: cannot read {bad}" in capsys.readouterr().err
    assert main(["verify", "--statement", "all", "--corpus", str(tmp_path)]) == 2
    assert f"error: cannot read {bad}" in capsys.readouterr().err


def test_non_ascii_group_name_under_an_ascii_locale(tmp_path):
    """Group files are read, and CSV and DOT files written, as UTF-8 where
    the locale's encoding is ASCII; a name printed to stdout is escaped."""
    name = "Größe ψ"
    (tmp_path / "corpus").mkdir()
    group_file = tmp_path / "corpus" / "g.group"
    group_file.write_text(f"name: {name}\ndegree: 3\ngens: (1 2 3)\n", encoding="utf-8")
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(permlat.__file__).parents[1]),
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
    )
    env.pop("PYTHONIOENCODING", None)

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, cwd=tmp_path, capture_output=True, text=True
        )

    proc = run("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert codecs.lookup(proc.stdout.strip()).name == "ascii"
    for argv in (
        ["verify", "--statement", "L2.2", "--corpus", "corpus", "--csv", "out.csv"],
        ["lattice", str(group_file), "--dot", "out.dot"],
    ):
        proc = run("-m", "permlat.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
    for out in ("out.csv", "out.dot"):
        assert name in (tmp_path / out).read_bytes().decode("utf-8")
    for argv in (
        ["analyze", str(group_file), "--props", "order"],
        ["check-subgroup", str(group_file), "--gens", "", "--predicate", "normal"],
    ):
        proc = run("-m", "permlat.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout.splitlines()[0] == r"group: Gr\xf6\xdfe \u03c8"


def test_lattice_cap_exit_code(tmp_path):
    code = main(
        ["lattice", "A6", "--dot", str(tmp_path / "a6.dot"),
         "--lattice-cap", "100"]
    )
    assert code == 3


def test_verify_skips_groups_over_the_lattice_cap(tmp_path, capsys):
    """A group over --lattice-cap is a skipped row: every verdict already
    computed is still printed and written, and the run exits 3."""
    rp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    argv = ["verify", "--statement", "all", "--lattice-cap", "100",
            "--report", str(rp), "--csv", str(cp)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    data = json.loads(rp.read_text())
    assert [ln.split(":")[0] for ln in lines[:26]] == [
        row["statement"] for row in data["statements"]
    ]
    skipped = [ln.removeprefix("skipped: ") for ln in lines if ln.startswith("skipped: ")]
    assert skipped == data["skipped"]
    assert "L2.6: A6 (group order 360 exceeds lattice cap 100)" in skipped
    assert "thmB: PSL(2,7) (group order 168 exceeds lattice cap 100)" in skipped
    assert "all consistent" not in out
    assert err == f"cap exceeded: {len(skipped)} statement-group pairs skipped\n"
    assert len(cp.read_text().splitlines()) == len(data["verdicts"]) + 1


def test_verify_inconsistency_outranks_skipped_rows(capsys, monkeypatch):
    from permlat.statements import Verdict

    real = reports.run_verification

    def rigged(*a, **kw):
        rep = real(*a, **kw)
        rep.verdicts.append(Verdict("L2.2", "S3", "rigged", True, False, False))
        return rep

    monkeypatch.setattr(reports, "run_verification", rigged)
    argv = ["verify", "--statement", "L2.2", "--max-order", "24", "--lattice-cap", "10"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "skipped: L2.2: S4 (group order 24 exceeds lattice cap 10)" in out
    assert "rigged" in err


def test_group_cap_exit_code(tmp_path, capsys):
    f = tmp_path / "s5.group"
    f.write_text(S5_FILE)
    code = main(["analyze", str(f), "--group-cap", "100"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_group_cap_applies_to_builtin_names(capsys):
    assert main(["analyze", "A6", "--group-cap", "10", "--props", "order"]) == 3
    captured = capsys.readouterr()
    assert "A6 has order 360, over the group cap 10" in captured.err
    assert captured.out == ""


def test_group_cap_applies_to_builtin_corpus(capsys):
    argv = ["verify", "--statement", "L2.3", "--group-cap", "10", "--max-order", "30"]
    assert main(argv) == 3
    assert "over the group cap 10" in capsys.readouterr().err


def test_reproduce_example42_honours_group_cap(capsys):
    # The wreath product's order is checked against the cap before closure.
    assert main(["reproduce-example42", "--group-cap", "10"]) == 3
    captured = capsys.readouterr()
    assert "wreath order 648 exceeds cap 10" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "S4"],
        ["check-subgroup", "S4", "--gens", "(1 2)", "--predicate", "normal"],
        ["lattice", "S4", "--dot", "s4.dot"],
        ["reproduce-example42"],
    ],
    ids=lambda argv: argv[0],
)
def test_max_normal_e_only_where_read(argv, capsys):
    assert main(argv + ["--max-normal-e", "1"]) == 2
    assert "unrecognized arguments: --max-normal-e" in capsys.readouterr().err


def test_lattice_dot_output(tmp_path, capsys):
    out = tmp_path / "s4.dot"
    assert main(["lattice", "S4", "--dot", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    msg = capsys.readouterr().out
    assert "11 class nodes" in msg
    assert "30 subgroups" in msg


def test_lattice_dot_quotes_the_group_name(tmp_path, capsys):
    group = tmp_path / "odd.group"
    group.write_text('name: my "odd" group\ndegree: 3\ngens: (1 2 3)\n')
    out = tmp_path / "odd.dot"
    assert main(["lattice", str(group), "--dot", str(out)]) == 0
    assert out.read_text().splitlines()[0] == 'digraph "my \\"odd\\" group" {'


def test_directory_does_not_shadow_a_builtin_name(tmp_path, capsys, monkeypatch):
    (tmp_path / "S4").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "S4", "--props", "order"]) == 0
    assert capsys.readouterr().out == "group: S4\norder: 24\n"


def test_scan_q13(capsys):
    assert main(["scan-q13", "--max-order", "24"]) == 0
    out = capsys.readouterr().out
    assert "counterexample candidates: none" in out


# sha256 of scan-q13 over the builtin corpus at the default caps: its
# stdout, and the JSON report (613 verdicts, no flags) and CSV it writes.
Q13_STDOUT = "2f3f4790c9129df06a221ed57ebfbe2f7d80da7f20f76a8ee6709fdb50ee28a9"
Q13_JSON = "7586254b1764fa46502fba44a3edfbb130e68162be716b846d4e5f6a1eaa2acd"
Q13_CSV = "d95d36213bb7487585076316ca4995e869d4b2a76516b82da45050fc5f78731a"


def test_scan_q13_outputs_match_pins(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["scan-q13"]) == 0
    assert _sha(capsys.readouterr().out) == Q13_STDOUT
    assert main(["scan-q13", "--report", "q13.json", "--csv", "q13.csv"]) == 0
    report = (tmp_path / "q13.json").read_text()
    assert _sha(report) == Q13_JSON
    assert len(json.loads(report)["verdicts"]) == 613
    assert _sha((tmp_path / "q13.csv").read_text()) == Q13_CSV


def test_scan_q13_flags_c2_4_c3(capsys):
    """C2^4:C3 on 8 points (tests/data/c2_4_c3.group): its O_2 is F_4^2
    with C3 acting as the F_4 scalars. Each flag names the |D| where the
    clause holds and no condition does."""
    data_dir = str(Path(__file__).parent / "data")
    assert main(["scan-q13", "--corpus", data_dir]) == 0
    out = capsys.readouterr().out
    assert "q13: 1 groups, 8 verdicts, 0 inconsistent" in out
    bare = "    | p=2: clause holds at |D|=4 with no condition; (i), (ii), (iii) fail\n"
    lead = "    | counterexample candidate for the open question\n"
    assert (
        "counterexample candidates: 2\n"
        f"  C2^4:C3 E=#103(order 48)\n{lead}{bare}"
        "    | p=3: Sylow cyclic, imposes nothing\n"
        f"  C2^4:C3 E=#102(order 16)\n{lead}{bare}"
        "all consistent\n"
    ) in out


def test_reproduce_example42(capsys):
    assert main(["reproduce-example42"]) == 0
    out = capsys.readouterr().out
    assert "wreath product order: 648" in out
    assert "2-residual order: 324" in out
    assert "3-length of G: 2" in out
    assert "all example checks passed" in out


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--statement", "L2.1", "--group-cap"],
        ["verify", "--statement", "L2.1", "--lattice-cap"],
        ["verify", "--statement", "L2.1", "--max-normal-e"],
        ["verify", "--statement", "L2.1", "--max-order"],
        ["scan-q13", "--group-cap"],
        ["scan-q13", "--lattice-cap"],
        ["scan-q13", "--max-normal-e"],
        ["scan-q13", "--max-order"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-1]}",
)
def test_cap_flags_below_one_are_usage_errors(argv, value, capsys):
    assert main(argv + [value]) == 2
    err = capsys.readouterr().err
    assert f"{argv[-1]}: expected an integer >= 1, got '{value}'" in err


def _rig(monkeypatch, sid, *verdicts):
    """Replace a registry checker by one that returns ``verdicts`` on S3."""
    import dataclasses

    from permlat import statements

    spec = dataclasses.replace(
        statements.STATEMENTS[sid],
        checker=lambda ga: list(verdicts) if ga.name == "S3" else [],
    )
    monkeypatch.setitem(statements.STATEMENTS, sid, spec)


def test_scan_q13_lists_flags(tmp_path, capsys, monkeypatch):
    from oracles import verdict_dict
    from permlat.statements import Verdict

    flag = Verdict("q13", "S3", "E=rigged", True, False, True, ("wit one", "wit two"))
    held = Verdict("q13", "S3", "E=held", True, True, True)
    unmet = Verdict("q13", "S3", "E=unmet", False, None, True)
    _rig(monkeypatch, "q13", held, flag, unmet)
    # A verdict of an implication statement is never a flag, even one
    # whose hypothesis holds and whose conclusion fails.
    _rig(monkeypatch, "L2.2", Verdict("L2.2", "S3", "rigged", True, False, False))
    monkeypatch.chdir(tmp_path)
    argv = ["scan-q13", "--max-order", "6", "--report", "q13.json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    witness_lines = "  S3 E=rigged\n    | wit one\n    | wit two\n"
    assert f"counterexample candidates: 1\n{witness_lines}" in out
    assert out.endswith("all consistent\nwrote JSON report to q13.json\n")
    report = json.loads((tmp_path / "q13.json").read_text())
    assert report["flags"] == [verdict_dict(flag)]
    assert report["verdicts"] == [verdict_dict(v) for v in (held, flag, unmet)]

    argv = ["verify", "--statement", "all", "--max-order", "6", "--report", "all.json"]
    assert main(argv) == 1
    assert "INCONSISTENT: 1 verdicts" in capsys.readouterr().err
    assert json.loads((tmp_path / "all.json").read_text())["flags"] == []


def test_scan_q13_contradiction_exits_1(capsys, monkeypatch):
    from permlat.statements import Verdict

    _rig(monkeypatch, "q13", Verdict("q13", "S3", "E=rigged", True, False, False))
    assert main(["scan-q13", "--max-order", "6"]) == 1
    captured = capsys.readouterr()
    assert "counterexample candidates: 1" in captured.out
    assert "INCONSISTENT: 1 verdicts\n  q13 S3 E=rigged\n" in captured.err


def test_inconsistent_verdicts_print_in_report_order(capsys, monkeypatch):
    from permlat.statements import Verdict

    _rig(monkeypatch, "thmB", Verdict("thmB", "S3", "E=rigged", True, False, False))
    _rig(monkeypatch, "L2.2", Verdict("L2.2", "S3", "rigged", True, False, False))
    assert main(["verify", "--statement", "all", "--max-order", "6"]) == 1
    err = capsys.readouterr().err
    assert "INCONSISTENT: 2 verdicts\n  L2.2 S3 rigged\n  thmB S3 E=rigged\n" in err


def test_verify_inconsistency_path(tmp_path, capsys, monkeypatch):
    # Force a fake inconsistent verdict to pin the exit-1 branch.
    from permlat.statements import Verdict

    real = reports.run_verification

    def rigged(*a, **kw):
        rep = real(*a, **kw)
        rep.verdicts.append(
            Verdict("L2.2", "S4", "rigged", True, False, False, ["fake"])
        )
        return rep

    monkeypatch.setattr(reports, "run_verification", rigged)
    code = main(["verify", "--statement", "L2.2", "--max-order", "24"])
    assert code == 1
    err = capsys.readouterr().err
    assert "rigged" in err


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(permlat.__file__).parents[1]))
    code = "import sys, permlat.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_defers_registry_and_reports():
    env = dict(os.environ, PYTHONPATH=str(Path(permlat.__file__).parents[1]))
    code = (
        "import sys, permlat.cli; "
        "print(sorted({'permlat.statements', 'permlat.reports'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # reproduce-example42 runs without the registry, the report layer or
    # dataclasses; -S keeps the site's .pth imports out of the child.
    code = (
        "import sys, permlat.cli; "
        "code = permlat.cli.main(['reproduce-example42']); "
        "loaded = {'permlat.statements', 'permlat.reports', 'dataclasses'}; "
        "print(code, sorted(loaded & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_import_does_not_load_dataclasses():
    # -S keeps the site's .pth imports out of the child.
    env = dict(os.environ, PYTHONPATH=str(Path(permlat.__file__).parents[1]))
    code = "import sys, permlat.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- unwritable output paths -------------------------------------------------


@pytest.mark.parametrize(
    "argv, other",
    [
        (["verify", "--statement", "remark1", "--max-order", "8", "--report"], "--csv"),
        (["verify", "--statement", "remark1", "--max-order", "8", "--csv"], "--report"),
        (["lattice", "S4", "--dot"], None),
    ],
    ids=["report", "csv", "dot"],
)
def test_unwritable_output_path_is_usage_error(argv, other, tmp_path, capsys):
    """Exit 2 with one error line for the file that cannot be written; the
    other report file requested with it is still written."""
    path = str(tmp_path / "missing" / "out")
    good = tmp_path / "good"
    assert main(argv + [path] + ([other, str(good)] if other else [])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("error: ") == 1
    assert "Traceback" not in captured.err
    if other:
        assert good.stat().st_size > 0
        assert f" to {good}\n" in captured.out


# -- the benchmark's cold CLI commands, byte for byte ------------------------

# sha256 of each command's stdout and of the DOT file it writes; the same
# digests the benchmark pins for its "cold_cli" workload.
COLD_CLI = (
    (
        ["analyze", "S4"],
        "983e49e17b862e9745371ce69221f503879c584ca3686907668175a7fab9b420",
    ),
    (
        ["analyze", "A5", "--props", "all"],
        "c95ce81463569a9806ae4a40ba8e2bfb6caafe8a1cee0d90750e643cdaee2ca1",
    ),
    (
        ["check-subgroup", "S4", "--gens", "(1 2)(3 4)",
         "--predicate", "weakly-s-supplemented"],
        "e97ac24a0ecdf5033e8f9b4aabefb00ffadecde65289bfaa620c93a6a44b7bc7",
    ),
    (
        ["lattice", "PSL(2,7)", "--dot", "psl27.dot"],
        "d771a1bf80f92ee747cc0fbb5b1e3f4bd11afec76f69d15d21c6cc27efce1b76",
    ),
    (
        ["reproduce-example42"],
        "ffe0c4f4473a3e1acf46023ac332d89869fd744d7f83d3fc824d5bd9c90b4d19",
    ),
)
PSL27_DOT = "bdf8d8e0a94756123b572f653ff09cf862b84467cebeeac449419441529e679f"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cold_cli_outputs_match_pins(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, digest in COLD_CLI:
        assert main(argv) == 0, argv
        assert _sha(capsys.readouterr().out) == digest, argv
    assert _sha((tmp_path / "psl27.dot").read_text()) == PSL27_DOT


def test_builtin_name_does_not_build_the_corpus(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("builtin corpus built")

    monkeypatch.setattr(corpus, "_builtin", refuse)
    monkeypatch.chdir(tmp_path)
    for argv, digest in (COLD_CLI[0], COLD_CLI[3]):
        assert main(argv) == 0, argv
        assert _sha(capsys.readouterr().out) == digest, argv
    assert _sha((tmp_path / "psl27.dot").read_text()) == PSL27_DOT


def test_errors_without_a_file_position(tmp_path, capsys):
    """Load errors that have no position in a file print none, and exit 2;
    parse errors keep theirs."""
    empty = tmp_path / "empty"
    empty.mkdir()
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    nameless = tmp_path / "nameless.group"
    nameless.write_text("degree: 3\ngens: (1 2)\n")
    # Two files that name one group: C3, then S4.
    twins = tmp_path / "twins"
    twins.mkdir()
    (twins / "a.group").write_text("name: G\ndegree: 3\ngens: (1 2 3)\n")
    (twins / "b.group").write_text("name: G\ndegree: 4\ngens: (1 2), (1 2 3 4)\n")
    cases = (
        (
            ["analyze", "NoSuch"],
            "unknown group 'NoSuch': not a file and not a builtin corpus name",
        ),
        (
            ["analyze", str(empty)],
            f"unknown group {str(empty)!r}: not a file and not a builtin corpus name",
        ),
        (
            ["verify", "--statement", "C4.3", "--corpus", str(plain)],
            f"{plain} is not a directory",
        ),
        (
            ["verify", "--statement", "C4.3", "--corpus", str(empty)],
            f"no .group files in {empty}",
        ),
        (["analyze", str(nameless)], "missing required key 'name'"),
        (
            ["verify", "--statement", "L2.8", "--corpus", str(twins)],
            f"{twins / 'a.group'} and {twins / 'b.group'} both name the group 'G'",
        ),
    )
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n", argv
        assert captured.out == ""


def test_analyze_rank_8_elementary_abelian_file_is_fast(tmp_path, capsys):
    """C2^8 has 417,199 subgroups, every one normal, so no answer of the
    default props may list them: each walk takes per-class steps."""
    f = tmp_path / "c2_8.group"
    gens = ", ".join(f"({2 * i + 1} {2 * i + 2})" for i in range(8))
    f.write_text(f"name: C2^8\ndegree: 16\ngens: {gens}\n")
    started = time.process_time()
    assert main(["analyze", str(f)]) == 0
    assert time.process_time() - started < 10
    out = capsys.readouterr().out
    assert "chief-factors: 2 2 2 2 2 2 2 2" in out
    assert "fitting: 256" in out
    assert "p-length: 2:1" in out


def test_readme_quick_start_runs():
    """The README's Python block, run as written, prints what it says."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")
    assert len(blocks) == 2
    code = blocks[1].split("```")[0]
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(permlat.__file__).parents[1]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "<order 12: (2 3 4), (1 2)(3 4)>\n"


def _readme_cli_blocks():
    """(argv, shown output lines) of each README block that runs permlat."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [b.split("```")[0] for b in readme.split("```\n$ permlat ")[1:]]
    return [(shlex.split(b.split("\n")[0]), b.split("\n")[1:-1]) for b in blocks]


def _shown_pattern(lines):
    """A line that is just ``...`` stands for any number of lines, and
    ``...`` inside a line for any text; every other line matches in order."""
    parts = []
    for line in lines:
        if line == "...":
            parts.append(r"(?:[^\n]*\n)*?")
        else:
            parts.append(re.escape(line).replace(re.escape("..."), r"[^\n]*") + r"\n")
    return re.compile("".join(parts))


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Each README block that starts with ``$ permlat`` exits 0 and prints
    what it shows, run from a directory that holds tests/data."""
    data = tmp_path / "tests" / "data"
    data.mkdir(parents=True)
    shutil.copy(Path(__file__).parent / "data" / "c2_4_c3.group", data)
    monkeypatch.chdir(tmp_path)
    blocks = _readme_cli_blocks()
    assert len(blocks) == 6
    for argv, shown in blocks:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert _shown_pattern(shown).fullmatch(out), (argv, out)
