"""Outside-in span tracing of the permlat package.

The benchmark never edits the package. A ``Tracer`` wraps, from outside,
the public functions of each permlat module plus a few named methods, and
rebinds every reference to an original that the package holds: module
globals (``from .lattice import enumerate_subgroups`` copies the name into
the importing module), closure cells of module-level functions and of
functions stored in module-level dicts (the CLI's predicate table), and
the checker of every registry statement. ``uninstall`` puts every
original back.

Each wrapped call appends one span ``[name, start, end, parent, op]`` to
an in-memory list; ``parent`` is the index of the enclosing span (-1 at
the root) and ``op`` the benchmark operation the span belongs to (0 when
outside any). Spans are in start order, so a parent always precedes its
children. ``summarize`` reduces them to per-name call counts, outermost
inclusive time, self time and the longest call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

# Layers are the package's modules, in dependency order.
LAYERS = (
    "perms",
    "groups",
    "corpus",
    "lattice",
    "structure",
    "embedding",
    "statements",
    "reports",
    "cli",
)

# Methods wrapped besides the module-level public functions.
METHODS = {
    "perms": (("Perm", "order"),),
    "groups": (
        ("CayleyTable", "validate"),
        ("Group", "table"),
        ("Group", "element_orders"),
        ("Subgroup", "as_group"),
    ),
    "reports": (("VerificationReport", "to_json"),),
}

# Embedding predicate families whose argument reuse is measured.
FAMILIES = {
    "s_permutable": "is_s_permutable",
    "h_sg": "h_sG",
    "supplements": "supplements",
    "wss": "is_weakly_s_supplemented",
    "wsp": "is_weakly_s_permutable",
    "c_normal": "is_c_normal",
    "sss": "has_supersolvable_supplement",
    "permutable": "is_permutable",
}

# Shared construction a statement checker triggers; charged to the
# checker's build time rather than its checker time.
BUILD_SPANS = frozenset(
    ("lattice.enumerate_subgroups", "groups.quotient", "groups.Subgroup.as_group")
)

CHECKER_PREFIX = "statements.checker["

WRAPPED_MARK = "__perfbench_span__"


def checker_span(statement_id: str) -> str:
    return f"{CHECKER_PREFIX}{statement_id}]"


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def _counted_results(name: str):
    """Counter updates taken from a wrapped call's result."""
    if name == "lattice.enumerate_subgroups":
        return lambda res: (
            ("lattice.subgroups", len(res)),
            ("lattice.classes", len(res.conjugacy_classes)),
        )
    if name == "corpus.builtin_corpus":
        return lambda res: (("corpus.groups", len(res)),)
    if name == "reports.VerificationReport.to_json":
        return lambda res: (("reports.json_bytes", len(res.encode())),)
    return None


class Tracer:
    """Span recorder plus the rebinding of permlat's public callables."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.distinct: dict = {}
        self.op = 0
        self._stack: list = []
        self._lattices: dict = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        self.spans = []
        self.counts = {}
        self.distinct = {}
        self._lattices = {}
        self.op = 0

    def wrap(self, name: str, fn, note_args: bool = False, results=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note_args:
                self._note_args(name, args)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans = self.spans
            stack.append(len(spans))
            spans.append(rec)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if results is not None:
                counts = self.counts
                for key, n in results(res):
                    counts[key] = counts.get(key, 0) + n
            return res

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def collect(self) -> dict:
        """Summary of everything recorded since the last reset, then reset."""
        out = summarize(self.spans)
        out["counts"] = self.counts
        out["distinct"] = {name: len(keys) for name, keys in self.distinct.items()}
        self.reset()
        return out

    def _note_args(self, name: str, args) -> None:
        lat, sub = args[0], args[1]
        # Holding the lattice keeps its id from being reused in this pass.
        self._lattices[id(lat)] = lat
        self.distinct.setdefault(name, set()).add((id(lat), sub.members))

    def wrap_checker(self, statement_id: str, fn):
        inner = self.wrap(checker_span(statement_id), fn)

        @functools.wraps(fn)
        def checker(ga):
            self.op += 1
            try:
                return inner(ga)
            finally:
                self.op = 0

        setattr(checker, WRAPPED_MARK, checker_span(statement_id))
        return checker

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind everything; ``uninstall`` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"permlat.{layer}") for layer in LAYERS}
        families = set(FAMILIES.values())
        wrappers: dict = {}
        for layer, mod in mods.items():
            for fname, fn in _public_functions(mod):
                name = f"{layer}.{fname}"
                note_args = layer == "embedding" and fname in families
                wrappers[fn] = self.wrap(name, fn, note_args, _counted_results(name))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                name = f"{layer}.{cls_name}.{meth}"
                w = self.wrap(name, fn, results=_counted_results(name))
                setattr(cls, meth, w)
                self._undo.append((setattr, cls, meth, fn))
        for mod in _package_modules():
            self._rebind_module(mod, wrappers)
        for sid, spec in mods["statements"].STATEMENTS.items():
            fn = spec.checker
            object.__setattr__(spec, "checker", self.wrap_checker(sid, fn))
            self._undo.append((object.__setattr__, spec, "checker", fn))

    def _rebind_module(self, mod, wrappers: dict) -> None:
        holders = []
        tables = [vars(mod)]
        tables += [v for v in vars(mod).values() if isinstance(v, dict)]
        for table in tables:
            for key, value in list(table.items()):
                if not inspect.isfunction(value):
                    continue
                if value in wrappers:
                    table[key] = wrappers[value]
                    self._undo.append((_set_item, table, key, value))
                else:
                    holders.append(value)
        for fn in holders:
            for cell in fn.__closure__ or ():
                try:
                    content = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if inspect.isfunction(content) and content in wrappers:
                    cell.cell_contents = wrappers[content]
                    self._undo.append((_set_cell, cell, None, content))

    def uninstall(self) -> None:
        while self._undo:
            setter, obj, attr, original = self._undo.pop()
            setter(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _set_cell(cell, _attr, value) -> None:
    cell.cell_contents = value


def _set_item(table, key, value) -> None:
    table[key] = value


def _package_modules():
    import sys

    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "permlat" or name.startswith("permlat."))
    ]


# -- reduction -----------------------------------------------------------------


def summarize(spans) -> dict:
    """Per-name statistics of a span list in start order.

    Returns ``{"names": {name: [calls, incl, self, max]}, "root": t,
    "build": {checker name: t}}``. ``incl`` sums only outermost calls of a
    name, so recursion is not counted twice. ``self`` is a span's duration
    minus that of its direct children. ``root`` is the time covered by
    root spans. ``build`` is, per checker span name, the duration of the
    outermost BUILD_SPANS below it.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    names: dict = {}
    build: dict = {}
    root = 0.0
    open_spans: list = []  # indices of the ancestors of the current span
    active: dict = {}  # name -> number of open spans with that name
    checkers: list = []  # open checker span names
    builds_open = 0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        while open_spans and open_spans[-1] != parent:
            j = open_spans.pop()
            jname = spans[j][0]
            active[jname] -= 1
            if jname.startswith(CHECKER_PREFIX):
                checkers.pop()
            if jname in BUILD_SPANS:
                builds_open -= 1
        dur = end - start
        if parent < 0:
            root += dur
        stat = names.get(name)
        if stat is None:
            stat = names[name] = [0, 0.0, 0.0, 0.0]
        stat[0] += 1
        if not active.get(name):
            stat[1] += dur
        stat[2] += dur - child[i]
        if dur > stat[3]:
            stat[3] = dur
        if name in BUILD_SPANS:
            if checkers and builds_open == 0:
                build[checkers[-1]] = build.get(checkers[-1], 0.0) + dur
            builds_open += 1
        if name.startswith(CHECKER_PREFIX):
            checkers.append(name)
        active[name] = active.get(name, 0) + 1
        open_spans.append(i)
    return {"names": names, "root": root, "build": build}


def merge(summaries) -> dict:
    """Sum several summaries (max of the per-call maxima)."""
    names: dict = {}
    build: dict = {}
    counts: dict = {}
    distinct: dict = {}
    root = 0.0
    for s in summaries:
        root += s["root"]
        for key, n in s["counts"].items():
            counts[key] = counts.get(key, 0) + n
        for key, n in s["distinct"].items():
            distinct[key] = distinct.get(key, 0) + n
        for name, (calls, incl, self_t, mx) in s["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_t
            acc[3] = max(acc[3], mx)
        for name, t in s["build"].items():
            build[name] = build.get(name, 0.0) + t
    return {
        "names": names,
        "root": root,
        "build": build,
        "counts": counts,
        "distinct": distinct,
    }
