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
    Group,
    Perm,
    close_generators,
    direct_product,
    wreath_regular,
)
from .perms import parse_cycle_string


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
    """Parse a group file, which is UTF-8 whatever the locale."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    """Order 4m: a of order 2m, b^2 = a^m, b inverts a. Closed from the
    right-regular images of a and b on the normal forms a^i b^j, with
    a^i b^j the point j*2m + i + 1: right multiplication by a sends a^i
    to a^(i+1) and a^i b to a^(i-1) b, and by b sends a^i to a^i b and
    a^i b to a^(i+m)."""
    two_m = 2 * m
    a = [(i + 1) % two_m + 1 for i in range(two_m)]
    a += [two_m + (i - 1) % two_m + 1 for i in range(two_m)]
    b = [two_m + i + 1 for i in range(two_m)]
    b += [(i + m) % two_m + 1 for i in range(two_m)]
    return close_generators(2 * two_m, [Perm(a), Perm(b)], name=name)


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
# the blocks. ``cli.build_example42`` (``reproduce-example42``) proves
# that they generate O^2(B648).
_G324_GENERATORS = (
    "(7 8 9)",
    "(4 5 6)",
    "(1 2 3)",
    "(1 4 7)(2 5 8)(3 6 9)",
    "(1 4 7)(2 5 9)(3 6 8)",
)


def _b648(cap: int = DEFAULT_GROUP_CAP) -> Group:
    b = wreath_regular(_symmetric(3, "S3"), 3, cap=cap)
    b.name = "B648"
    return b


def _g324(cap: int = DEFAULT_GROUP_CAP) -> Group:
    gens = [parse_cycle_string(text, 9) for text in _G324_GENERATORS]
    return close_generators(9, gens, cap=cap, name="G324")


def example_pair(cap: int = DEFAULT_GROUP_CAP) -> tuple[Group, Group]:
    """The order-324 control example: B648 = S3 wr C3 on 9 points and its
    2-residual G324 = O^2(B648). G324 is closed from the residual's
    generators, so B648 builds no Cayley table. Fresh groups on every
    call; a ``cap`` below 648 raises before anything is closed."""
    return _b648(cap), _g324(cap)


def _product(name: str, a: Group, b: Group) -> Group:
    prod = direct_product(a, b)
    prod.name = name
    return prod


# Name -> builder of every builtin entry except those in _PRODUCTS, in
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
    "B648": _b648,
    "G324": _g324,
}

# The direct products that follow _BUILDERS, in corpus order; the factors
# of each are the two names either side of its "x". They are the 40
# smallest products, of order at most 200, of two entries above that are
# not products themselves, besides the three that _BUILDERS lists.
_PRODUCTS = tuple(
    """C2xC2 C2xC3 C2xC4 C3xC3 C2xC5 C2xC6 C2xD6 C2xS3 C3xC4 C2xC7 C3xC5 C2xC8
    C2xD8 C2xEA8 C2xQ8 C4xC4 C2xC9 C3xC6 C3xD6 C3xS3 C2xC10 C2xD10 C4xC5 C3xC7
    C2xC11 C2xA4 C2xC12 C2xC3:C4 C2xD12 C3xC8 C3xEA8 C4xC6 C4xD6 C4xS3 C5xC5
    C2xC13 C3xC9 C2xC14 C2xD14 C4xC7""".split()
)


@functools.lru_cache(maxsize=1)
def _builtin() -> tuple:
    base = {name: build() for name, build in _BUILDERS.items()}
    products = [
        (name, _product(name, *(base[f] for f in name.split("x"))))
        for name in _PRODUCTS
    ]
    return (*base.items(), *products)


def builtin_corpus() -> list:
    """(name, Group) entries; deterministic order, built once per process."""
    return list(_builtin())


def builtin_group(name: str) -> Optional[Group]:
    """The builtin entry called name, built alone as a fresh group (a
    listed product from two fresh factors), or None."""
    if name in _PRODUCTS:
        return _product(name, *(_BUILDERS[f]() for f in name.split("x")))
    build = _BUILDERS.get(name)
    return None if build is None else build()
