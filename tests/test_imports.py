"""No module of the package imports a name it does not use.

No linter runs in the suite, so this walks each module's syntax tree: a
name bound by an import must be read somewhere in its module (a bare name
or the root of an attribute chain) or be listed in the module's
``__all__``.
"""

import ast
from pathlib import Path

import permlat

PACKAGE_DIR = Path(permlat.__file__).parent

# (module, name) imports kept although the module does not read them.
EXEMPT = {
    ("embedding", "is_supersolvable"): "the benchmark's tracer rebinds it",
    ("reports", "enumerate_subgroups"): "the benchmark's tracer self-test reads it",
}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used():
    """The unused imports are exactly the exempt ones, so an exemption
    also goes once its module reads the name."""
    unused = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported_names(tree)
        unused |= {(path.stem, name) for name in _imported_names(tree) if name not in used}
    assert unused == set(EXEMPT)
