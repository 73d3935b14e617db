"""Permutations of {1, ..., n} stored as immutable image tuples.

Composition is left-to-right throughout: (p * q) sends x to q(p(x)).
Points are 1-based, matching the cycle notation used in group files.
"""

from __future__ import annotations

import re
from math import lcm

from .errors import DegreeMismatchError, InvalidPermutationError


class Perm:
    """A permutation; ``images[i]`` is the image of point i+1."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidPermutationError(
                f"images {images!r} are not a bijection of 1..{n}"
            )
        object.__setattr__(self, "images", images)

    @staticmethod
    def _unchecked(images: tuple) -> "Perm":
        p = object.__new__(Perm)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm._unchecked(tuple(range(1, degree + 1)))

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Perm":
        """Build a permutation from disjoint-or-not cycles of 1-based points.

        Cycles are applied left to right, so overlapping cycles compose in
        the same orientation as ``*``.
        """
        images = list(range(1, degree + 1))
        for cyc in cycles:
            cyc = tuple(cyc)
            for pt in cyc:
                if not 1 <= pt <= degree:
                    raise InvalidPermutationError(
                        f"point {pt} out of range for degree {degree}"
                    )
            if len(set(cyc)) != len(cyc):
                raise InvalidPermutationError(f"repeated point in cycle {cyc!r}")
            step = {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}
            images = [step.get(x, x) for x in images]
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        """Apply self first, then other."""
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DegreeMismatchError(
                f"cannot compose degree {len(a)} with degree {len(b)}"
            )
        return Perm._unchecked(tuple(b[x - 1] for x in a))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x - 1] = i + 1
        return Perm._unchecked(tuple(inv))

    def __invert__(self) -> "Perm":
        return self.inverse()

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self.images[start - 1]
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self.images[x - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles())) if not self.is_identity() else 1

    def cycle_notation(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __repr__(self) -> str:
        return f"Perm[{self.cycle_notation()}]"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycle_string(text: str, degree: int) -> Perm:
    """Parse one cycle product like ``(1 2 3)(4 5)`` or ``()``.

    Points may be separated by spaces or commas.
    """
    text = text.strip()
    if text in ("()", "", "e", "id"):
        return Perm.identity(degree)
    pos = 0
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        if text[pos:m.start()].strip():
            raise InvalidPermutationError(
                f"unexpected text {text[pos:m.start()]!r} in cycle string"
            )
        body = m.group(1).replace(",", " ").split()
        if not body:
            continue
        try:
            cycles.append(tuple(int(tok) for tok in body))
        except ValueError as exc:
            raise InvalidPermutationError(f"bad point in cycle {m.group(0)!r}") from exc
        pos = m.end()
    if text[pos:].strip():
        raise InvalidPermutationError(f"unexpected trailing text {text[pos:]!r}")
    if not cycles:
        return Perm.identity(degree)
    return Perm.from_cycles(degree, cycles)
