"""Every function and method defined in the package is reached by its own
commands.

In process and under ``sys.setprofile``, the test runs the five commands
of the benchmark's cold_cli workload, each check-subgroup predicate, a
registry pass at max order 60 that writes its JSON and CSV, the q13 scan,
and a corpus directory holding one group file. A function counts as
reached when its code object, or one nested in it (a lambda, a generator
expression), runs; a memoized function counts by its own body, not by
the memo wrapper that all of them share. What the commands never reach
is either on the short allowlist below, with its reason, or should
leave the package.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import permlat
from permlat import cli, corpus

PACKAGE_DIR = os.path.dirname(permlat.__file__)

# Qualified names that the commands above need not reach. Dunder methods
# are exempt as a class: Python calls them implicitly, and some only on
# comparisons or reprs that tests make.
ALLOWED = {
    "perms.Perm.order": "wrapped and reported by the benchmark's tracer",
    "cli._cannot_write": "error path: an output path that cannot be written",
    "corpus.serialize_group": "writes the group file format the loaders read",
    # Regular representations: the tests build them, and the benchmark's
    # tracer wraps CayleyTable.validate and group_from_cayley.
    "groups.group_from_cayley": "regular representations in the tests; the benchmark's tracer",
    "groups.CayleyTable.__init__": "the table that group_from_cayley takes",
    "groups.CayleyTable._find_identity": "called by CayleyTable.__init__",
    "groups.CayleyTable.validate": "called by CayleyTable.__init__; the benchmark's tracer",
    "groups._right_generators": "called by CayleyTable.validate and group_from_cayley",
}


def _defined_functions():
    """{code object: qualified name} of every function and method defined
    in the package's modules, memoized ones by their unwrapped body."""
    out = {}
    for info in pkgutil.iter_modules(permlat.__path__):
        mod = importlib.import_module(f"permlat.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[inspect.unwrap(obj).__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = (
                        getattr(member, "fget", None)  # property
                        or getattr(member, "func", None)  # cached_property
                        or getattr(member, "__func__", member)
                    )
                    if inspect.isfunction(fn):
                        out[inspect.unwrap(fn).__code__] = f"{info.name}.{name}.{attr}"
    # Dataclasses and named tuples generate methods with no package source.
    return {
        code: name
        for code, name in out.items()
        if code.co_filename.startswith(PACKAGE_DIR)
    }


def _nested(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            yield const
            yield from _nested(const)


def _commands(tmp_path):
    group_dir = tmp_path / "corpus"
    dot = str(tmp_path / "psl27.dot")
    yield ["analyze", "S4"]
    yield ["analyze", "A5", "--props", "all"]
    yield ["check-subgroup", "S4", "--gens", "(1 2)(3 4)", "--predicate", "weakly-s-supplemented"]
    yield ["lattice", "PSL(2,7)", "--dot", dot]
    yield ["reproduce-example42"]
    for predicate in cli._PREDICATES:
        yield ["check-subgroup", "S4", "--gens", "(1 2)", "--predicate", predicate]
    report, csv = str(tmp_path / "registry.json"), str(tmp_path / "registry.csv")
    yield ["verify", "--statement", "all", "--max-order", "60",
           "--report", report, "--csv", csv, "--with-timings"]
    yield ["scan-q13", "--max-order", "60"]
    yield ["analyze", str(group_dir / "C6.group")]
    yield ["verify", "--statement", "C4.3", "--corpus", str(group_dir)]


def test_every_package_function_is_reached(tmp_path, capsys):
    defined = _defined_functions()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    group_dir = tmp_path / "corpus"
    group_dir.mkdir()
    (group_dir / "C6.group").write_text(corpus.serialize_group(corpus.builtin_group("C6")))
    corpus._builtin.cache_clear()  # rebuild the corpus under the profiler
    sys.setprofile(profile)
    try:
        for argv in _commands(tmp_path):
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    unreached = sorted(
        name
        for code, name in defined.items()
        if code not in seen and not any(c in seen for c in _nested(code))
    )
    dunder = [n for n in unreached if n.rsplit(".", 1)[1].startswith("__")]
    missing = [n for n in unreached if n not in dunder and n not in ALLOWED]
    assert missing == []
    # An entry that the commands do reach no longer belongs on the list.
    assert sorted(set(ALLOWED) - set(unreached)) == []
