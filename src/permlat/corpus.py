"""Built-in verification corpus and the group spec file format.

A group file is a small key/value text format:

    # optional comments
    name: S4
    degree: 4
    gens: (1 2), (1 2 3 4)
    expected_order: 24

Keys may appear in any order; name, degree and gens are required. The
gens value is a comma-separated list of cycle products over 1-based
points; an empty value gives the trivial group of the stated degree.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import GroupFileError, InvalidPermutationError
from .groups import (
    DEFAULT_GROUP_CAP,
    CayleyTable,
    Group,
    Perm,
    close_generators,
    direct_product,
    group_from_cayley,
    wreath_regular,
)
from .perms import parse_cycle_string

PRODUCT_ORDER_LIMIT = 200
PRODUCT_BUDGET = 40


class GroupSpecFile(NamedTuple):
    name: str
    degree: int
    gens: tuple
    expected_order: Optional[int] = None
    # (line, column) of each key's value; read, never written.
    positions: dict = {}


_KNOWN_KEYS = ("name", "degree", "gens", "expected_order")


def _split_outside_parens(value: str, lineno: int, col0: int):
    """Split on commas at paren depth zero; (token, column) pairs."""
    parts = []
    depth = 0
    cur: list = []
    start = 0
    for i, ch in enumerate(value):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GroupFileError("unbalanced ')'", lineno, col0 + i)
        if ch == "," and depth == 0:
            parts.append(("".join(cur), col0 + start))
            cur = []
            start = i + 1
        else:
            cur.append(ch)
    if depth != 0:
        raise GroupFileError("unbalanced '('", lineno, col0 + len(value))
    parts.append(("".join(cur), col0 + start))
    return parts


def parse_group_text(text: str) -> GroupSpecFile:
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise GroupFileError("expected 'key: value'", lineno, col)
        key, _, value = line.partition(":")
        col = len(key) - len(key.rstrip()) + 1
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise GroupFileError(f"unknown key {key!r}", lineno, 1)
        if key in fields:
            raise GroupFileError(f"duplicate key {key!r}", lineno, 1)
        value_col = line.index(":") + 2
        fields[key] = (value.strip(), lineno, value_col, value)
    for key in ("name", "degree", "gens"):
        if key not in fields:
            raise GroupFileError(f"missing required key {key!r}")

    name, name_line, name_col, _ = fields["name"]
    if not name:
        raise GroupFileError("empty name", name_line, name_col)

    deg_text, deg_line, deg_col, _ = fields["degree"]
    try:
        degree = int(deg_text)
    except ValueError:
        raise GroupFileError(
            f"degree {deg_text!r} is not an integer", deg_line, deg_col
        ) from None
    if degree < 1:
        raise GroupFileError("degree must be at least 1", deg_line, deg_col)

    gens_text, gens_line, gens_col, gens_raw = fields["gens"]
    gens: list = []
    if gens_text:
        raw_value = gens_raw.rstrip()
        for token, token_col in _split_outside_parens(
            raw_value, gens_line, gens_col - (len(gens_raw) - len(gens_raw.lstrip()))
        ):
            stripped = token.strip()
            if not stripped:
                raise GroupFileError("empty generator", gens_line, token_col)
            try:
                parse_cycle_string(stripped, degree)
            except InvalidPermutationError as exc:
                raise GroupFileError(
                    str(exc), gens_line, token_col + len(token) - len(token.lstrip())
                ) from None
            gens.append(stripped)

    expected_order = None
    positions = {k: (v[1], v[2]) for k, v in fields.items()}
    if "expected_order" in fields:
        eo_text, eo_line, eo_col, _ = fields["expected_order"]
        try:
            expected_order = int(eo_text)
        except ValueError:
            raise GroupFileError(
                f"expected_order {eo_text!r} is not an integer", eo_line, eo_col
            ) from None
        if expected_order < 1:
            raise GroupFileError("expected_order must be positive", eo_line, eo_col)

    return GroupSpecFile(name, degree, tuple(gens), expected_order, positions)


def parse_group_file(path) -> GroupSpecFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GroupFileError(f"cannot read {path}: {exc}") from None
    return parse_group_text(text)


def load_group(spec: GroupSpecFile, cap: int = DEFAULT_GROUP_CAP) -> Group:
    gens = [parse_cycle_string(g, spec.degree) for g in spec.gens]
    group = close_generators(spec.degree, gens, cap=cap, name=spec.name)
    if spec.expected_order is not None and group.order != spec.expected_order:
        line, col = spec.positions.get("expected_order", (1, 1))
        raise GroupFileError(
            f"closure of {spec.name} has order {group.order}, "
            f"expected {spec.expected_order}",
            line,
            col,
        )
    return group


def serialize_group(group: Group, name: Optional[str] = None) -> str:
    """Group file text that re-loads to an equal element table."""
    name = name or group.name or f"order{group.order}"
    gens = ", ".join(p.cycle_notation() for p in group.generators)
    return (
        f"name: {name}\n"
        f"degree: {group.degree}\n"
        f"gens: {gens}\n"
        f"expected_order: {group.order}\n"
    )


def load_corpus_dir(path, cap: int = DEFAULT_GROUP_CAP) -> list:
    """(name, Group) for every *.group file under path, sorted by filename.
    Names must be distinct: verdict rows identify groups by name."""
    root = Path(path)
    if not root.is_dir():
        raise GroupFileError(f"{path} is not a directory")
    out = []
    files: dict = {}
    for p in sorted(root.glob("*.group")):
        spec = parse_group_file(p)
        if spec.name in files:
            raise GroupFileError(
                f"{files[spec.name]} and {p} both name the group {spec.name!r}"
            )
        files[spec.name] = p
        out.append((spec.name, load_group(spec, cap=cap)))
    if not out:
        raise GroupFileError(f"no .group files in {path}")
    return out


# -- built-in corpus ---------------------------------------------------------


def _cyclic(n: int) -> Group:
    return close_generators(
        n, [Perm.from_cycles(n, [tuple(range(1, n + 1))])], name=f"C{n}"
    )


def _dihedral(order: int) -> Group:
    m = order // 2
    rot = Perm.from_cycles(m, [tuple(range(1, m + 1))])
    ref = Perm.from_cycles(m, [(i + 1, m - i) for i in range(m // 2)])
    return close_generators(m, [rot, ref], name=f"D{order}")


def _dicyclic(m: int, name: str) -> Group:
    """Order 4m: a of order 2m, b^2 = a^m, b inverts a. Built from the
    multiplication rule on normal forms a^i b^j and realized by the
    regular representation."""
    n = 4 * m
    two_m = 2 * m

    def pack(i: int, j: int) -> int:
        return j * two_m + i

    table = [[0] * n for _ in range(n)]
    for i1 in range(two_m):
        for j1 in (0, 1):
            row = table[pack(i1, j1)]
            for i2 in range(two_m):
                for j2 in (0, 1):
                    if j1 == 0:
                        r = pack((i1 + i2) % two_m, j2)
                    elif j2 == 0:
                        r = pack((i1 - i2) % two_m, 1)
                    else:
                        r = pack((i1 - i2 + m) % two_m, 0)
                    row[pack(i2, j2)] = r
    cay = CayleyTable(table)
    return group_from_cayley(
        cay, name=name, generator_indices=[pack(1, 0), pack(0, 1)]
    )


def _symmetric(n: int, name: str) -> Group:
    gens = [Perm.from_cycles(n, [tuple(range(1, n + 1))])]
    if n >= 2:
        gens.append(Perm.from_cycles(n, [(1, 2)]))
    return close_generators(n, gens, name=name)


def _alternating_named(n: int, name: str) -> Group:
    cycle = tuple(range(1, n + 1)) if n % 2 else tuple(range(2, n + 1))
    gens = [Perm.from_cycles(n, [(1, 2, 3)]), Perm.from_cycles(n, [cycle])]
    return close_generators(n, gens, name=name)


def _psl27() -> Group:
    gens = [
        Perm.from_cycles(8, [(2, 3, 4, 5, 6, 7, 8)]),
        Perm.from_cycles(8, [(1, 2), (3, 8), (4, 5), (6, 7)]),
    ]
    return close_generators(8, gens, name="PSL(2,7)")


def _elementary_abelian(p: int, rank: int, name: str) -> Group:
    gens = [
        Perm.from_cycles(p * rank, [tuple(range(i * p + 1, (i + 1) * p + 1))])
        for i in range(rank)
    ]
    return close_generators(p * rank, gens, name=name)


# The generators that ``p_residual(B648, 2)`` picks, in its order: the
# three 3-cycles of the base group and two elements of order 3 that move
# the blocks. ``statements.build_example42`` proves that they generate
# O^2(B648).
_G324_GENERATORS = (
    "(7 8 9)",
    "(4 5 6)",
    "(1 2 3)",
    "(1 4 7)(2 5 8)(3 6 9)",
    "(1 4 7)(2 5 9)(3 6 8)",
)


def example_pair(cap: int = DEFAULT_GROUP_CAP) -> tuple[Group, Group]:
    """The order-324 control example: B648 = S3 wr C3 on 9 points and its
    2-residual G324 = O^2(B648), closed from the residual's five
    generators, so B648 builds no Cayley table. Fresh groups on every
    call; a ``cap`` below 648 raises before anything is closed."""
    b = wreath_regular(_symmetric(3, "S3"), 3, cap=cap)
    b.name = "B648"
    gens = [parse_cycle_string(text, b.degree) for text in _G324_GENERATORS]
    return b, close_generators(b.degree, gens, cap=cap, name="G324")


def _product(name: str, a: Group, b: Group) -> Group:
    prod = direct_product(a, b)
    prod.name = name
    return prod


# Name -> builder of every builtin entry except the budgeted products, in
# corpus order. Each builder returns a fresh group of that name.
_BUILDERS: dict = {
    **{f"C{n}": functools.partial(_cyclic, n) for n in range(2, 25)},
    **{f"D{order}": functools.partial(_dihedral, order) for order in range(6, 25, 2)},
    "Q8": functools.partial(_dicyclic, 2, "Q8"),
    "Q16": functools.partial(_dicyclic, 4, "Q16"),
    "EA8": functools.partial(_elementary_abelian, 2, 3, "EA8"),
    "EA27": functools.partial(_elementary_abelian, 3, 3, "EA27"),
    "S3": functools.partial(_symmetric, 3, "S3"),
    "S4": functools.partial(_symmetric, 4, "S4"),
    "A4": functools.partial(_alternating_named, 4, "A4"),
    "A5": functools.partial(_alternating_named, 5, "A5"),
    "A6": functools.partial(_alternating_named, 6, "A6"),
    "PSL(2,7)": _psl27,
    "D8xC3": lambda: _product("D8xC3", _dihedral(8), _cyclic(3)),
    "Q8xC3": lambda: _product("Q8xC3", _dicyclic(2, "Q8"), _cyclic(3)),
    "S3xS3": lambda: _product("S3xS3", _symmetric(3, "S3"), _symmetric(3, "S3")),
    "C3:C4": functools.partial(_dicyclic, 3, "C3:C4"),
    "B648": lambda: example_pair()[0],
    "G324": lambda: example_pair()[1],
}

# Explicitly listed products; the budgeted scan skips these combinations.
_EXPLICIT_PAIRS = {("C3", "D8"), ("C3", "Q8"), ("S3", "S3")}


@functools.lru_cache(maxsize=1)
def _builtin() -> tuple:
    # B648 and G324 come from one example_pair() call.
    pair = dict(zip(("B648", "G324"), example_pair()))
    base = [
        (name, pair[name] if name in pair else build())
        for name, build in _BUILDERS.items()
    ]

    candidates = []
    for i, (na, ga) in enumerate(base):
        for nb, gb in base[i:]:
            if ga.order * gb.order > PRODUCT_ORDER_LIMIT:
                continue
            if (na, nb) in _EXPLICIT_PAIRS or (nb, na) in _EXPLICIT_PAIRS:
                continue
            if "x" in na or "x" in nb:
                continue
            candidates.append((ga.order * gb.order, na, nb, ga, gb))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    out = list(base)
    for _, na, nb, ga, gb in candidates[:PRODUCT_BUDGET]:
        name = f"{na}x{nb}"
        out.append((name, _product(name, ga, gb)))
    return tuple(out)


def builtin_corpus() -> list:
    """(name, Group) entries; deterministic order, built once per process."""
    return list(_builtin())


def builtin_group(name: str) -> Optional[Group]:
    """The builtin entry called name, or None.

    Every entry but the budgeted products is built alone, as a fresh
    group. Only a name ``AxB`` with both factors listed can be a budgeted
    product, and only such a name is looked up in the whole corpus.
    """
    build = _BUILDERS.get(name)
    if build is not None:
        return build()
    factors = name.split("x")
    if len(factors) != 2 or not all(f in _BUILDERS for f in factors):
        return None
    return dict(builtin_corpus()).get(name)
