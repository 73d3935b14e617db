"""permlat benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.
Workloads:

* ``registry``: ``run_verification`` over all 26 statements and the
  builtin corpus at the default caps, then ``to_json()``.
* ``registry_small``: the same at ``max_order=200`` and
  ``max_normal_e=1000`` (no truncation), many small lattices.
* ``cold_cli``: five fresh ``permlat`` processes, one after another.

A repeat is one set-up and one pass. Every repeat starts cold: the
registry workloads rebuild the builtin corpus, so no group carries a
table, lattice or memo from an earlier pass; ``cold_cli`` starts new
interpreters. Repeats run for about ``--seconds`` (at least one).
The seed shuffles the corpus order of the registry workloads, which must
not change the report; the cold_cli command lines are fixed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``cpu_max_s`` (CPU seconds of the run's slowest pass), ``ops_per_s_min``
(ops per CPU second of that pass), ``setup_s`` (median CPU seconds of
set-up) and ``peak_rss_mb``. Times are CPU seconds (user plus system) of
the process doing the work: permlat is a single-process tool, so on an
idle machine that is its elapsed time, and it leaves out the time a
shared host or other processes hold the CPU. The slowest pass is the one
reported because the shared 2-vCPU hosts this was sized on run at a base
speed with stretches of a minute or two in which a pass takes up to 40%
less time; how much of a run falls in such a stretch is luck, and it
moves the median pass far more than the slowest. The median, quartiles
and elapsed times of the passes are printed and kept in the metadata.

With ``--trace 1`` traced repeats alternate with untraced ones and the
last line holds the per-layer metrics of ``layers.METRICS``. Both modes
check every pass against pinned outputs; a mismatch or a raise counts as
a failed op and the run goes on. Earlier stdout lines carry a readable
summary (with ``error_rate``) and the run metadata as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "cli_child.py"

import layers  # noqa: E402  (HERE is on sys.path as the script's directory)
import tracer as tracing  # noqa: E402

# Per-statement default max orders of the registry (each statement's own
# documented bound), pinned so that a changed default shows as a failure.
DEFAULT_MAX_ORDERS = {
    **{sid: 200 for sid in layers.STATEMENT_IDS},
    **{sid: 100 for sid in ("L2.1", "L3.1", "C3.2", "L3.3", "L3.5")},
    "L2.6": 720,
}


@dataclass(frozen=True)
class RegistryWorkload:
    """Caps passed to run_verification and the outputs a pass must give."""

    max_order: int | None
    max_normal_e: int
    ops: int
    verdicts: int
    truncations: int
    digest: str
    group_cap: int = 2000
    lattice_cap: int = 400

    def caps(self) -> dict:
        return {
            "max_order": self.max_order,
            "group_cap": self.group_cap,
            "lattice_cap": self.lattice_cap,
            "max_normal_e": self.max_normal_e,
        }

    def max_orders(self) -> dict:
        if self.max_order is None:
            return dict(DEFAULT_MAX_ORDERS)
        return {sid: self.max_order for sid in layers.STATEMENT_IDS}


REGISTRY = {
    "registry": RegistryWorkload(
        max_order=None,
        max_normal_e=20,
        ops=2234,
        verdicts=4686,
        truncations=16,
        digest="47efc6d6f189426750d5f17f97fbbeddd604233c299a987d35df3e16692fe427",
    ),
    "registry_small": RegistryWorkload(
        max_order=200,
        max_normal_e=1000,
        ops=2236,
        verdicts=4962,
        truncations=0,
        digest="dd5bdabdf15145097441361e4c7ef0ec2086e9a2b52fa1a76d717d2a423855c7",
    ),
}


@dataclass(frozen=True)
class CliCommand:
    label: str
    argv: tuple
    digest: str
    lines: tuple = ()
    files: dict = field(default_factory=dict)


# Outputs are pinned by sha256; the DOT file is written into the
# run's scratch directory under a fixed name so the output is stable.
COLD_CLI = (
    CliCommand(
        "analyze",
        ("analyze", "S4"),
        "983e49e17b862e9745371ce69221f503879c584ca3686907668175a7fab9b420",
    ),
    CliCommand(
        "analyze_all",
        ("analyze", "A5", "--props", "all"),
        "c95ce81463569a9806ae4a40ba8e2bfb6caafe8a1cee0d90750e643cdaee2ca1",
    ),
    CliCommand(
        "check_subgroup",
        ("check-subgroup", "S4", "--gens", "(1 2)(3 4)", "--predicate", "weakly-s-supplemented"),
        "e97ac24a0ecdf5033e8f9b4aabefb00ffadecde65289bfaa620c93a6a44b7bc7",
        lines=("weakly-s-supplemented: False",),
    ),
    CliCommand(
        "lattice",
        ("lattice", "PSL(2,7)", "--dot", "psl27.dot"),
        "d771a1bf80f92ee747cc0fbb5b1e3f4bd11afec76f69d15d21c6cc27efce1b76",
        lines=("wrote DOT (15 class nodes, 179 subgroups) to psl27.dot",),
        files={"psl27.dot": "bdf8d8e0a94756123b572f653ff09cf862b84467cebeeac449419441529e679f"},
    ),
    CliCommand(
        "example42",
        ("reproduce-example42",),
        "ffe0c4f4473a3e1acf46023ac332d89869fd744d7f83d3fc824d5bd9c90b4d19",
        lines=("all example checks passed",),
    ),
)

# Fresh import-only interpreters timed per cold_cli repeat.
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 60

WORKLOADS = (*REGISTRY, "cold_cli")


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Tally:
    """Attempted and failed ops of a run, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)


# -- registry workloads --------------------------------------------------------


def fresh_corpus(seed: int) -> list:
    """The builtin corpus built anew, in the seed's order.

    The package caches the corpus per process; clearing that cache makes
    every group, with its table, element orders and memos, new.
    """
    from permlat import corpus

    corpus._builtin.cache_clear()
    entries = corpus.builtin_corpus()
    random.Random(seed).shuffle(entries)
    return entries


def corpus_fingerprint(entries) -> dict:
    """Names and orders of the builtin corpus, in its own order."""
    rows = sorted(entries, key=lambda e: e[0])
    text = "".join(f"{name}:{group.order}\n" for name, group in rows)
    return {"groups": len(rows), "sha256": sha(text)}


def registry_pass(work: RegistryWorkload, entries):
    """Run the registry; returns (report, JSON text)."""
    from permlat import reports

    report = reports.run_verification(
        list(layers.STATEMENT_IDS), entries, "builtin corpus", **work.caps()
    )
    return report, report.to_json()


def registry_check(work: RegistryWorkload, report, text) -> tuple:
    """(ops, failed ops, problems) of one pass against the pins."""
    ops = sum(row["groups_checked"] for row in report.statements)
    bad_ops = {(v.statement_id, v.group_id) for v in report.inconsistencies()}
    problems = [f"inconsistent op {sid} on {g}" for sid, g in sorted(bad_ops)]
    got = {
        "ops": ops,
        "verdicts": len(report.verdicts),
        "truncations": len(report.truncations),
        "digest": sha(text),
        "max_orders": {row["statement"]: row["max_order"] for row in report.statements},
    }
    want = {
        "ops": work.ops,
        "verdicts": work.verdicts,
        "truncations": work.truncations,
        "digest": work.digest,
        "max_orders": work.max_orders(),
    }
    for key in want:
        if got[key] != want[key]:
            problems.append(f"{key}: got {got[key]!r}, pinned {want[key]!r}")
    return ops, len(problems), problems


def registry_repeat(work, seed, tally: Tally, tracer=None) -> dict:
    """One cold set-up and pass; with a tracer, both are traced."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        cpu_started = process_time()
        entries = fresh_corpus(seed)
        setup = process_time() - cpu_started
        setup_trace = tracer.collect() if tracer is not None else None
        started, cpu_started = perf_counter(), process_time()
        try:
            report, text = registry_pass(work, entries)
        except Exception:
            traceback.print_exc()
            report = None
        wall, cpu = perf_counter() - started, process_time() - cpu_started
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "setup": setup,
        "wall": wall,
        "cpu": cpu,
        "ops": work.ops,
        "fingerprint": corpus_fingerprint(entries),
    }
    if report is None:
        tally.add(work.ops, work.ops, ["pass raised"])
    else:
        out["ops"], failed, problems = registry_check(work, report, text)
        tally.add(out["ops"], failed, problems)
    if tracer is not None:
        pass_trace = tracer.collect()
        out["other"] = wall - pass_trace["root"]
        out["trace"] = tracing.merge([setup_trace, pass_trace])
    return out


# -- cold_cli ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv, cwd) -> tuple:
    """(wall seconds, CPU seconds, CompletedProcess) of one fresh interpreter.

    Children run one at a time and are waited for, so the change in the
    children's CPU time is this child's own.
    """
    cpu_started = children_cpu()
    started = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=cwd,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        proc = subprocess.CompletedProcess(exc.cmd, -9, "", f"killed after {CHILD_TIMEOUT} s")
    return perf_counter() - started, children_cpu() - cpu_started, proc


def cli_check(cmd: CliCommand, proc, cwd: Path) -> list:
    problems = []
    if proc.returncode != 0:
        problems.append(f"{cmd.label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if sha(proc.stdout) != cmd.digest:
        problems.append(f"{cmd.label}: stdout sha {sha(proc.stdout)}, pinned {cmd.digest}")
    lines = proc.stdout.splitlines()
    for line in cmd.lines:
        if line not in lines:
            problems.append(f"{cmd.label}: missing line {line!r}")
    for name, digest in cmd.files.items():
        path = cwd / name
        got = sha(path.read_bytes()) if path.exists() else None
        if got != digest:
            problems.append(f"{cmd.label}: {name} sha {got}, pinned {digest}")
    return problems


def cold_cli_repeat(tally: Tally, scratch: Path, traced: bool) -> dict:
    """Import-only set-up samples, then one pass of the five commands."""
    setups = []
    for _ in range(IMPORT_SAMPLES):
        _wall, cpu, proc = run_child(["-c", "import permlat.cli"], scratch)
        if proc.returncode != 0:
            tally.add(1, 1, [f"import: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        setups.append(cpu)
    wall = cpu = 0.0
    summaries = []
    for cmd in COLD_CLI:
        trace_args = []
        if traced:
            out = scratch / f"{cmd.label}.trace.json"
            trace_args = ["--trace", str(out)]
        t, c, proc = run_child([str(CHILD), *trace_args, cmd.label, *cmd.argv], scratch)
        wall += t
        cpu += c
        problems = cli_check(cmd, proc, scratch)
        tally.add(1, 1 if problems else 0, problems)
        if traced and proc.returncode == 0:
            summaries.append(json.loads(out.read_text()))
    out = {"setups": setups, "wall": wall, "cpu": cpu, "ops": len(COLD_CLI)}
    if traced:
        merged = tracing.merge(summaries)
        out["other"] = wall - merged["root"]
        out["trace"] = merged
    return out


# -- run loop --------------------------------------------------------------------


def cpu_ticks():
    """(steal, total) ticks of the machine's CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """Share of CPU time the host took from this machine during the run."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def measure(workload: str, seed: int, seconds: float, traced: bool, tally: Tally) -> dict:
    """Repeat until ``seconds`` pass; traced runs alternate plain and traced."""
    plain, with_trace = [], []
    scratch = None
    import_s = None
    if workload == "cold_cli":
        ROOT.joinpath(".perfbench_tmp").mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    else:
        started = process_time()
        import permlat.reports  # noqa: F401  (timed: part of set-up)

        import_s = process_time() - started
    ticks = cpu_ticks()
    try:
        deadline = perf_counter() + seconds
        while True:
            trace_this = traced and len(with_trace) < len(plain)
            started = perf_counter()
            if workload == "cold_cli":
                rep = cold_cli_repeat(tally, scratch, trace_this)
            else:
                tracer = tracing.Tracer() if trace_this else None
                rep = registry_repeat(REGISTRY[workload], seed, tally, tracer)
            (with_trace if trace_this else plain).append(rep)
            # Stop when the next repeat would end more than half a repeat
            # past the deadline, so a run lasts about ``seconds``.
            took = perf_counter() - started
            if perf_counter() + took / 2 >= deadline and (with_trace or not traced):
                break
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return {
        "import_s": import_s,
        "plain": plain,
        "traced": with_trace,
        "steal_share": steal_share(ticks, cpu_ticks()),
    }


def end_to_end(workload: str, runs: dict) -> dict:
    plain = runs["plain"]
    slowest = max(plain, key=lambda r: r["cpu"])
    if workload == "cold_cli":
        setup = statistics.median(s for r in plain for s in r["setups"])
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        setup = runs["import_s"] + statistics.median(r["setup"] for r in plain)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cpu_max_s": {"value": slowest["cpu"], "unit": "s"},
        "ops_per_s_min": {"value": slowest["ops"] / slowest["cpu"], "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss / 1024, "unit": "MB"},
    }


def per_layer(runs: dict) -> tuple:
    traced = runs["traced"]
    summary = tracing.merge(r["trace"] for r in traced)
    extra = {
        "other_s": statistics.mean(r["other"] for r in traced),
        "trace.overhead_s": statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in runs["plain"]),
    }
    n = len(traced)
    return layers.compute(summary, n, extra), layers.layer_split(summary, n)


def metadata(workload: str, args, runs: dict) -> dict:
    plain = runs["plain"]
    walls = [r["wall"] for r in plain]
    cpus = [r["cpu"] for r in plain]
    if workload == "cold_cli":
        from permlat import groups, lattice, statements

        caps = {
            "group_cap": groups.DEFAULT_GROUP_CAP,
            "lattice_cap": lattice.DEFAULT_LATTICE_CAP,
            "max_normal_e": statements.DEFAULT_MAX_NORMAL_E,
            "commands": [" ".join(c.argv) for c in COLD_CLI],
        }
        fingerprint = corpus_fingerprint(fresh_corpus(0))
    else:
        work = REGISTRY[workload]
        caps = {**work.caps(), "max_order": work.max_orders()}
        fingerprint = plain[0]["fingerprint"]
    q1, q3 = quartiles(cpus)
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "caps": caps,
        "corpus": fingerprint,
        "repeats": len(plain),
        "traced_repeats": len(runs["traced"]),
        "cpu_s": cpus,
        "cpu_q1_s": q1,
        "cpu_q3_s": q3,
        "wall_s": walls,
        "steal_share": runs["steal_share"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "permlat" / "__init__.py").is_file():
        print(f"error: no permlat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tally = Tally()
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), tally)
    meta = metadata(args.workload, args, runs)
    e2e = end_to_end(args.workload, runs)
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(
        f"{args.workload}: "
        + "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in e2e.items())
        + f"  error_rate {error_rate:.6g} ({tally.failed}/{tally.attempted})"
        + f"  median pass: cpu {statistics.median(meta['cpu_s']):.6g} s"
        + f" wall {statistics.median(meta['wall_s']):.6g} s"
        + f"  repeats {meta['repeats']}"
    )
    for p in tally.problems:
        print(f"problem: {p}", file=sys.stderr)
    if args.trace:
        metrics, split = per_layer(runs)
        print("layer self time per repeat (s): " + "  ".join(
            f"{k} {v:.4f}" for k, v in split.items()
        ) + f"  other {metrics['other_s']['value']:.4f}")
    else:
        metrics = e2e
    print(json.dumps({"meta": meta, "error_rate": error_rate, "problems": tally.problems}))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
