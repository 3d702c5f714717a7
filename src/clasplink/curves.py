"""Unit-step lattice curves traced out by clasp words.

Reading a word with a fixed pair of indices (i, j) draws a path on the
integer grid: x_i steps right, x_i^-1 left, x_j up, x_j^-1 down, and all
other letters are skipped.  Everything here is exact integer arithmetic.

A curve keeps its vertices as two ``array('q')`` columns of machine
integers, 16 bytes a vertex.  ``is_simple``, ``line_integral_x_dy`` and
``reversed`` make each pass over the columns at C level (``map``,
``operator``, ``islice``).  No coordinate can overflow: a curve of n steps
from (0, 0) stays within n of it, and a word holds at most
``WORD_LETTER_CAP`` letters.
"""

from __future__ import annotations

from array import array
from itertools import islice, repeat
from operator import add, eq, mul, sub
from typing import Sequence

from .words import ClaspWord

Point = tuple[int, int]

_PROBE = 4096  # interior vertices is_simple checks before it sorts them all


class LatticeCurve:
    """A path of grid points starting at (0, 0) with unit cardinal steps.

    ``xs`` and ``ys`` are the vertices' coordinate columns; treat them as
    read-only.  ``vertices`` builds the tuple of ``(x, y)`` points on
    demand.  Curves compare and hash by their vertices.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, vertices: Sequence[Point]) -> None:
        if not vertices:
            raise ValueError("a curve needs at least its start vertex")
        if vertices[0] != (0, 0):
            raise ValueError(f"curve must start at (0, 0), got {vertices[0]}")
        for (x0, y0), (x1, y1) in zip(vertices, islice(vertices, 1, None)):
            if abs(x1 - x0) + abs(y1 - y0) != 1:
                raise ValueError(f"step from ({x0}, {y0}) to ({x1}, {y1}) is not a unit cardinal step")
        xs, ys = zip(*vertices)
        object.__setattr__(self, "xs", array("q", xs))
        object.__setattr__(self, "ys", array("q", ys))

    @classmethod
    def _unchecked(cls, xs: array, ys: array) -> "LatticeCurve":
        """A curve on columns its caller built from (0, 0) by unit steps,
        without walking them again in ``__init__``."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "xs", xs)
        object.__setattr__(curve, "ys", ys)
        return curve

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable LatticeCurve")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.xs == other.xs and self.ys == other.ys

    def __hash__(self) -> int:
        return hash((self.xs.tobytes(), self.ys.tobytes()))

    def __repr__(self) -> str:
        return f"LatticeCurve(vertices={self.vertices!r})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, past __setattr__
        return self.__class__, (self.vertices,)

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The path's grid points, built anew on each access."""
        return tuple(zip(self.xs, self.ys))

    @property
    def length(self) -> int:
        """Number of unit steps."""
        return len(self.xs) - 1

    def is_closed(self) -> bool:
        return self.xs[-1] == 0 and self.ys[-1] == 0

    def is_simple(self) -> bool:
        """True iff no grid point is revisited, apart from start = end.

        Only defined for closed curves.  Each interior vertex is coded as
        ``x * span + y``, and a repeat shows as equal sorted neighbours.
        The code is one integer per point: n vertices from (0, 0) by unit
        steps keep every y within n - 1 of 0, so fewer than ``span``
        values apart.  Taking ``span`` from n spares two passes for the
        ys' bounds.  A walk that revisits a point mostly does so soon
        after it starts, so the first ``_PROBE`` vertices are checked
        before all of them are sorted.
        """
        if not self.is_closed():
            raise ValueError("simplicity is only defined for closed curves")
        xs, ys = self.xs, self.ys
        span = 2 * len(ys) - 1
        interior = len(xs) - 1

        def repeats(count: int) -> bool:
            codes = sorted(map(add, map(mul, islice(xs, count), repeat(span)), ys))
            return any(map(eq, codes, islice(codes, 1, None)))

        return not (repeats(min(interior, _PROBE)) or repeats(interior))

    def line_integral_x_dy(self) -> int:
        """Exact value of the line integral of x dy along the path.

        Each upward step at column x contributes +x, each downward step -x,
        horizontal steps contribute nothing.
        """
        ys = self.ys
        return sum(map(mul, self.xs, map(sub, islice(ys, 1, None), ys)))

    def reversed(self) -> "LatticeCurve":
        """The same path traversed backwards, translated to start at (0, 0)."""
        xs, ys = self.xs, self.ys
        return LatticeCurve._unchecked(
            array("q", map(sub, reversed(xs), repeat(xs[-1]))),
            array("q", map(sub, reversed(ys), repeat(ys[-1]))),
        )

    def to_text(self) -> str:
        """Plain-text export: one "x y" pair per line."""
        return "\n".join(f"{x} {y}" for x, y in zip(self.xs, self.ys)) + "\n"


def build_curve(w: ClaspWord, i: int, j: int) -> LatticeCurve:
    """Trace the curve read off w with x_i horizontal and x_j vertical.

    Letters with other indices contribute no step, so the curve length is
    the number of letters with index i or j.
    """
    if i == j:
        raise ValueError("curve construction requires two distinct indices")
    x, y = 0, 0
    xs, ys = array("q", [0]), array("q", [0])
    x_append, y_append = xs.append, ys.append
    for letter in w:
        if letter.index == i:
            x += letter.sign
        elif letter.index == j:
            y += letter.sign
        else:
            continue
        x_append(x)
        y_append(y)
    return LatticeCurve._unchecked(xs, ys)
