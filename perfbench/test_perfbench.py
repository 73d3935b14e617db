"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They cover what the timings rest on: every repeat starts from freshly
built groups, tracing reaches every reference the package holds to a
wrapped function, an untraced run installs no wrapper, tracing leaves the
outputs byte-identical, the self-time arithmetic, and which pass the
end-to-end metrics report.
"""

import gc
import inspect
import json
import subprocess
import sys
import types

import layers
import run
import tracer as tracing

sys.path.insert(0, str(run.SRC))

from permlat import (  # noqa: E402
    cli,
    corpus,
    embedding,
    groups,
    lattice,
    reports,
    statements,
    structure,
)

# A registry slice small enough for a unit test; pins filled by _tiny().
TINY_CAPS = dict(max_order=8, max_normal_e=20)


def _wrapped_bindings() -> list:
    """Every place in the package that currently holds a tracing wrapper."""
    found = []

    def marked(obj):
        return hasattr(obj, tracing.WRAPPED_MARK)

    for mod in tracing._package_modules():
        for gname, value in vars(mod).items():
            where = f"{mod.__name__}.{gname}"
            if marked(value):
                found.append(where)
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                found += [f"{where}.{a}" for a, m in vars(value).items() if marked(m)]
            if isinstance(value, dict):
                for key, item in value.items():
                    if marked(getattr(item, "checker", None)):
                        found.append(f"{where}[{key!r}].checker")
                    for cell in getattr(item, "__closure__", None) or ():
                        if marked(cell.cell_contents):
                            found.append(f"{where}[{key!r}] closure")
    return found


def _cold_state(entries) -> list:
    """What a pass can leave behind on the corpus groups."""
    return [
        (name, g._table, g._inv, g._orders, sorted(map(str, g._memo)))
        for name, g in sorted(entries, key=lambda e: e[0])
    ]


def _tiny(digest="", ops=0, verdicts=0):
    return run.RegistryWorkload(
        **TINY_CAPS, ops=ops, verdicts=verdicts, truncations=0, digest=digest
    )


def _tiny_pinned():
    entries = run.fresh_corpus(0)
    report, text = run.registry_pass(_tiny(), entries)
    ops = sum(row["groups_checked"] for row in report.statements)
    return _tiny(run.sha(text), ops, len(report.verdicts))


def test_every_repeat_starts_cold(monkeypatch):
    built = []
    real = run.fresh_corpus

    def spy(seed):
        entries = real(seed)
        built.append((entries, _cold_state(entries)))
        return entries

    monkeypatch.setattr(run, "fresh_corpus", spy)
    work = _tiny()
    for _ in range(2):
        run.registry_repeat(work, 0, run.Tally())
    (first, first_state), (second, second_state) = built
    # the first pass warmed the groups it used ...
    assert _cold_state(first) != first_state
    # ... and the second repeat saw none of that: new objects, cold state
    assert not {id(g) for _, g in first} & {id(g) for _, g in second}
    assert second_state == first_state


def test_tracer_rebinds_every_reference():
    public = {}
    for mod in tracing._package_modules():
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == mod.__name__:
                public[id(fn)] = fn
    modules = {id(vars(m)): m.__name__ for m in tracing._package_modules()}
    tr = tracing.Tracer()
    tr.install()
    try:
        for mod in (statements, reports, cli):
            assert getattr(mod.enumerate_subgroups, tracing.WRAPPED_MARK) == (
                "lattice.enumerate_subgroups"
            ), mod.__name__
        for mod in (embedding, statements, cli):
            assert getattr(mod.is_supersolvable, tracing.WRAPPED_MARK) == (
                "structure.is_supersolvable"
            ), mod.__name__
        wss = cli._PREDICATES["weakly-s-supplemented"].__closure__[0].cell_contents
        assert getattr(wss, tracing.WRAPPED_MARK) == "embedding.is_weakly_s_supplemented"
        for sid, spec in statements.STATEMENTS.items():
            assert getattr(spec.checker, tracing.WRAPPED_MARK) == tracing.checker_span(sid)
        assert hasattr(vars(groups.Group)["table"], tracing.WRAPPED_MARK)
        # Independent of the tracer's own walk: nothing in a package
        # namespace or package closure still refers to an original.
        for fn in public.values():
            for ref in gc.get_referrers(fn):
                assert id(ref) not in modules, (fn.__qualname__, modules.get(id(ref)))
                if type(ref).__name__ == "cell":
                    for tup in gc.get_referrers(ref):
                        for owner in gc.get_referrers(tup):
                            if isinstance(owner, types.FunctionType):
                                assert not owner.__module__.startswith("permlat") or hasattr(
                                    owner, tracing.WRAPPED_MARK
                                ), (fn.__qualname__, owner.__qualname__)
    finally:
        tr.uninstall()
    assert _wrapped_bindings() == []
    assert statements.enumerate_subgroups is lattice.enumerate_subgroups
    assert embedding.is_supersolvable is structure.is_supersolvable


def test_untraced_repeat_installs_no_wrapper(monkeypatch):
    seen = []
    real = run.registry_pass

    def spy(work, entries):
        seen.append(_wrapped_bindings())
        return real(work, entries)

    monkeypatch.setattr(run, "registry_pass", spy)
    run.registry_repeat(_tiny(), 0, run.Tally())
    run.registry_repeat(_tiny(), 0, run.Tally(), tracing.Tracer())
    assert seen[0] == []
    assert "permlat.lattice.enumerate_subgroups" in seen[1]
    assert _wrapped_bindings() == []


def test_untraced_cli_child_installs_no_wrapper(monkeypatch):
    import cli_child

    seen = []
    monkeypatch.setattr(cli, "main", lambda args: seen.append(_wrapped_bindings()) or 0)
    assert cli_child.main(["analyze", "analyze", "S4"]) == 0
    assert seen == [[]]


def test_tracing_keeps_outputs_identical():
    work = _tiny_pinned()
    plain, traced = run.Tally(), run.Tally()
    run.registry_repeat(work, 3, plain)
    rep = run.registry_repeat(work, 3, traced, tracing.Tracer())
    assert (plain.failed, traced.failed) == (0, 0), plain.problems + traced.problems
    assert plain.attempted == traced.attempted == work.ops
    assert rep["trace"]["names"]["reports.run_verification"][0] == 1


def test_traced_cli_child_output_matches_pin(tmp_path):
    cmd = run.COLD_CLI[0]
    out = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, str(run.CHILD), "--trace", str(out), cmd.label, *cmd.argv],
        cwd=tmp_path, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.cli_check(cmd, proc, tmp_path) == []
    names = json.loads(out.read_text())["names"]
    assert names[layers.cli_span(cmd.label)][0] == 1
    assert names["cli.import"][0] == 1


def test_fresh_corpus_order_follows_seed():
    a, b, c = run.fresh_corpus(1), run.fresh_corpus(1), run.fresh_corpus(2)
    assert [n for n, _ in a] == [n for n, _ in b] != [n for n, _ in c]
    assert sorted(n for n, _ in a) == sorted(n for n, _ in corpus.builtin_corpus())


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


SYNTHETIC = [
    _span("reports.run_verification", 0.0, 10.0, -1),
    _span("statements.checker[L2.2]", 1.0, 7.0, 0, 1),
    _span("lattice.enumerate_subgroups", 2.0, 5.0, 1, 1),
    _span("groups.Subgroup.as_group", 2.5, 3.0, 2, 1),
    _span("structure.is_supersolvable", 5.5, 6.5, 1, 1),
    _span("structure.is_supersolvable", 5.75, 6.0, 4, 1),
    _span("groups.Subgroup.as_group", 6.625, 6.875, 1, 1),
    _span("reports.VerificationReport.to_json", 11.0, 12.0, -1),
]


def test_self_time_arithmetic():
    s = tracing.summarize(SYNTHETIC)
    names = s["names"]
    assert names["reports.run_verification"] == [1, 10.0, 4.0, 10.0]
    assert names["statements.checker[L2.2]"] == [1, 6.0, 1.75, 6.0]
    assert names["lattice.enumerate_subgroups"] == [1, 3.0, 2.5, 3.0]
    assert names["groups.Subgroup.as_group"] == [2, 0.75, 0.75, 0.5]
    # recursion: inclusive time counts the outer call only
    assert names["structure.is_supersolvable"] == [2, 1.0, 1.0, 1.0]
    assert s["root"] == 11.0
    # as_group inside the enumeration is not charged twice
    assert s["build"] == {"statements.checker[L2.2]": 3.25}
    self_total = sum(v[2] for v in names.values())
    assert self_total == s["root"]

    merged = tracing.merge([dict(s, counts={}, distinct={})] * 2)
    view = layers.compute(merged, 2, {"other_s": 0.0, "trace.overhead_s": 0.0})
    assert view["statements.L2.2.build_s"]["value"] == 3.25
    assert view["statements.L2.2.checker_s"]["value"] == 6.0 - 3.25
    assert view["structure.supersolvable_calls"]["value"] == 2
    assert view["statements.self_s"]["value"] == 1.75
    assert view["groups.as_group_s"]["value"] == 0.75


def test_benchmark_json_lists_the_layer_table():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.per_layer_spec()
    names = [m["name"] for m in spec["per_layer"] + spec["end_to_end"]]
    assert len(names) == len(set(names))
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert layers.STATEMENT_IDS == statements.STATEMENT_IDS


def test_end_to_end_reports_the_slowest_pass():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    passes = [
        {"cpu": 2.0, "ops": 100, "setup": 1.0},
        {"cpu": 4.0, "ops": 100, "setup": 3.0},
        {"cpu": 3.0, "ops": 100, "setup": 2.0},
    ]
    e2e = run.end_to_end("registry", {"import_s": 0.5, "plain": passes})
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert e2e["cpu_max_s"]["value"] == 4.0
    assert e2e["ops_per_s_min"]["value"] == 25.0
    assert e2e["setup_s"]["value"] == 0.5 + 2.0
