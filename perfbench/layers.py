"""Per-layer metrics of the traced run, and what each one should move.

``METRICS`` is the table later changes cite: every per-layer metric with
its unit, which direction is better, and the end-to-end metric and
workload it should move. BENCHMARK.json's ``per_layer`` list is this
table's name, unit and direction (a self-test keeps the two equal).

Times are seconds per repeat: a repeat is one set-up plus one pass of the
workload, and the traced run averages over its traced repeats. ``_s``
metrics are inclusive time of the outermost calls unless the name says
``self``; ``_calls`` are calls per repeat. A workload that never reaches
a layer reports 0 for it.
"""

from __future__ import annotations

from tracer import FAMILIES, LAYERS, checker_span

STATEMENT_IDS = (
    "thmB", "thm12", "L2.1", "L2.2", "L2.3", "L2.4", "L2.5", "L2.6", "L2.7",
    "L2.8", "L2.9", "L3.1", "C3.2", "L3.3", "L3.5", "C4.3", "C4.4", "C4.5",
    "C4.6", "C4.7", "C4.8", "C4.9", "C4.10", "C4.11", "C4.12", "remark1",
)

CLI_LABELS = ("analyze", "analyze_all", "check_subgroup", "lattice", "example42")

_SETUP = "setup_s on registry and registry_small; cpu_max_s on cold_cli"
_SMALL = "cpu_max_s on registry_small"
_BIG = "cpu_max_s and peak_rss_mb on registry; cpu_max_s on registry_small per call"
_BOTH = "cpu_max_s on registry_small and registry"
_CLI = "setup_s and cpu_max_s on cold_cli"


class _View:
    """Accessors over a merged summary, divided by the repeat count."""

    def __init__(self, summary: dict, repeats: int, extra: dict):
        self.names = summary["names"]
        self.build = summary["build"]
        self.counts = summary["counts"]
        self.distinct = summary["distinct"]
        self.n = repeats
        self.extra = extra

    def _stat(self, name, k):
        stat = self.names.get(name)
        return 0 if stat is None else stat[k]

    def calls(self, name):
        return self._stat(name, 0) / self.n

    def incl(self, name):
        return self._stat(name, 1) / self.n

    def self_time(self, name):
        return self._stat(name, 2) / self.n

    def longest(self, name):
        return self._stat(name, 3)

    def count(self, key):
        return self.counts.get(key, 0) / self.n

    def layer_self(self, layer):
        total = sum(s[2] for name, s in self.names.items() if _layer(name) == layer)
        return total / self.n

    def hit_ratio(self, name):
        calls = self._stat(name, 0)
        return 1 - self.distinct.get(name, 0) / calls if calls else 0.0

    def build_time(self, sid):
        return self.build.get(checker_span(sid), 0.0) / self.n

    def checker_time(self, sid):
        return self.incl(checker_span(sid)) - self.build_time(sid)

    def subgroups_per_s(self):
        t = self.incl("lattice.enumerate_subgroups")
        return self.count("lattice.subgroups") / t if t else 0.0


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _timed(metric, span, moves, calls=True):
    rows = [(f"{metric}_s", "s", "lower", moves, lambda v: v.incl(span))]
    if calls:
        rows.append((f"{metric}_calls", "count", "lower", moves, lambda v: v.calls(span)))
    return rows


def _table():
    rows = []
    rows += _timed("perms.order", "perms.Perm.order", _SETUP)
    rows += [
        ("corpus.build_s", "s", "lower", _SETUP, lambda v: v.incl("corpus.builtin_corpus")),
        ("corpus.groups", "count", "lower", _SETUP, lambda v: v.count("corpus.groups")),
    ]
    setup_groups = _SETUP + "; not cpu_max_s on registry"
    rows += _timed("groups.validate", "groups.CayleyTable.validate", setup_groups)
    rows += [
        ("groups.semidirect_s", "s", "lower", setup_groups,
         lambda v: v.self_time("groups.semidirect_product")),
    ]
    rows += _timed("groups.regular_rep", "groups.group_from_cayley", setup_groups, calls=False)
    rows += _timed("groups.element_orders", "groups.Group.element_orders", setup_groups, calls=False)
    rows += _timed("groups.p_residual", "groups.p_residual", setup_groups, calls=False)
    rows += _timed("groups.close", "groups.close_generators", setup_groups)
    rows += _timed("groups.quotient", "groups.quotient", _SMALL)
    rows += _timed("groups.as_group", "groups.Subgroup.as_group", _SMALL)
    rows += _timed("groups.table", "groups.Group.table", _SMALL)
    rows += _timed("lattice.enumerate", "lattice.enumerate_subgroups", _BIG)
    rows += [
        ("lattice.enumerate_max_s", "s", "lower", _BIG,
         lambda v: v.longest("lattice.enumerate_subgroups")),
        ("lattice.subgroups", "count", "lower", _BIG, lambda v: v.count("lattice.subgroups")),
        ("lattice.classes", "count", "lower", _BIG, lambda v: v.count("lattice.classes")),
        ("lattice.subgroups_per_s", "1/s", "higher", _BIG, lambda v: v.subgroups_per_s()),
    ]
    rows += _timed("lattice.permutes", "lattice.permutes", _SMALL)
    rows += _timed("lattice.subnormal", "lattice.is_subnormal", _SMALL, calls=False)
    rows += _timed("lattice.normalizer", "lattice.normalizer", _SMALL, calls=False)
    # The registry takes cores through embedding.core_of, which reads them
    # off the lattice's conjugacy classes; lattice.core is the direct one.
    rows.append((
        "lattice.core_s", "s", "lower", _SMALL,
        lambda v: v.incl("lattice.core") + v.incl("embedding.core_of"),
    ))
    rows += _timed("structure.supersolvable", "structure.is_supersolvable", _SMALL)
    for metric, fn in (
        ("p_length", "p_length"),
        ("chief_series", "chief_series"),
        ("fingerprint", "fingerprint"),
        ("u_hypercenter", "u_hypercenter"),
    ):
        rows += _timed(f"structure.{metric}", f"structure.{fn}", _SMALL, calls=False)
    for family, fn in FAMILIES.items():
        span = f"embedding.{fn}"
        rows += _timed(f"embedding.{family}", span, _SMALL)
        rows.append((
            f"embedding.{family}_hit_ratio", "ratio", "higher", _SMALL,
            lambda v, span=span: v.hit_ratio(span),
        ))
    for sid in STATEMENT_IDS:
        rows += [
            (f"statements.{sid}.checker_s", "s", "lower", _BOTH,
             lambda v, sid=sid: v.checker_time(sid)),
            (f"statements.{sid}.build_s", "s", "lower", _BOTH,
             lambda v, sid=sid: v.build_time(sid)),
        ]
    rows += [
        ("reports.run_s", "s", "lower", "cpu_max_s on registry and registry_small",
         lambda v: v.self_time("reports.run_verification")),
        ("reports.to_json_s", "s", "lower", "cpu_max_s on registry and registry_small",
         lambda v: v.incl("reports.VerificationReport.to_json")),
        ("reports.json_bytes", "B", "lower", "cpu_max_s on registry and registry_small",
         lambda v: v.count("reports.json_bytes")),
    ]
    rows.append(("cli.import_s", "s", "lower", _CLI, lambda v: v.incl("cli.import")))
    for label in CLI_LABELS:
        rows.append((
            f"cli.{label}_s", "s", "lower", _CLI,
            lambda v, label=label: v.incl(cli_span(label)),
        ))
    for layer in ("groups", "corpus", "lattice", "structure", "embedding", "statements"):
        rows.append((
            f"{layer}.self_s", "s", "lower", f"the {layer} share of cpu_max_s and setup_s",
            lambda v, layer=layer: v.layer_self(layer),
        ))
    rows += [
        ("other_s", "s", "lower", "cpu_max_s: the part of the pass no span covers",
         lambda v: v.extra["other_s"]),
        ("trace.overhead_s", "s", "lower", "none: traced minus untraced pass wall time",
         lambda v: v.extra["trace.overhead_s"]),
    ]
    return rows


def cli_span(label: str) -> str:
    return f"cli.run[{label}]"


METRICS = _table()


def per_layer_spec() -> list:
    """BENCHMARK.json's per_layer entries."""
    return [{"name": m, "unit": u, "better": b} for m, u, b, _moves, _fn in METRICS]


def compute(summary: dict, repeats: int, extra: dict) -> dict:
    """Every per-layer metric, as {name: {"value", "unit"}}."""
    view = _View(summary, repeats, extra)
    return {m: {"value": fn(view), "unit": u} for m, u, _b, _moves, fn in METRICS}


def layer_split(summary: dict, repeats: int) -> dict:
    """Self time per layer (all nine), for the printed split."""
    view = _View(summary, repeats, {})
    return {layer: view.layer_self(layer) for layer in LAYERS}

