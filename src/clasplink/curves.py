"""Unit-step lattice curves traced out by clasp words.

Reading a word with a fixed pair of indices (i, j) draws a path on the
integer grid: x_i steps right, x_i^-1 left, x_j up, x_j^-1 down, and all
other letters are skipped.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .words import ClaspWord

Point = tuple[int, int]


@dataclass(frozen=True)
class LatticeCurve:
    """A path of grid points starting at (0, 0) with unit cardinal steps.

    The step check, ``is_simple`` and ``line_integral_x_dy`` walk
    ``vertices`` in place rather than through slice copies of it.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a curve needs at least its start vertex")
        if self.vertices[0] != (0, 0):
            raise ValueError(f"curve must start at (0, 0), got {self.vertices[0]}")
        for (x0, y0), (x1, y1) in zip(self.vertices, islice(self.vertices, 1, None)):
            if abs(x1 - x0) + abs(y1 - y0) != 1:
                raise ValueError(f"step from ({x0}, {y0}) to ({x1}, {y1}) is not a unit cardinal step")

    @classmethod
    def _unchecked(cls, vertices: tuple[Point, ...]) -> "LatticeCurve":
        """A curve on vertices its caller built from (0, 0) by unit steps,
        without walking them again in ``__post_init__``."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "vertices", vertices)
        return curve

    @property
    def length(self) -> int:
        """Number of unit steps."""
        return len(self.vertices) - 1

    def is_closed(self) -> bool:
        return self.vertices[-1] == (0, 0)

    def is_simple(self) -> bool:
        """True iff no grid point is revisited, apart from start = end.

        Only defined for closed curves.
        """
        if not self.is_closed():
            raise ValueError("simplicity is only defined for closed curves")
        interior = len(self.vertices) - 1
        return len(set(islice(self.vertices, interior))) == interior

    def line_integral_x_dy(self) -> int:
        """Exact value of the line integral of x dy along the path.

        Each upward step at column x contributes +x, each downward step -x,
        horizontal steps contribute nothing.
        """
        total = 0
        for (x0, y0), (_, y1) in zip(self.vertices, islice(self.vertices, 1, None)):
            total += x0 * (y1 - y0)
        return total

    def reversed(self) -> "LatticeCurve":
        """The same path traversed backwards, translated to start at (0, 0)."""
        xe, ye = self.vertices[-1]
        return LatticeCurve(tuple((x - xe, y - ye) for x, y in reversed(self.vertices)))

    def to_text(self) -> str:
        """Plain-text export: one "x y" pair per line."""
        return "\n".join(f"{x} {y}" for x, y in self.vertices) + "\n"


def build_curve(w: ClaspWord, i: int, j: int) -> LatticeCurve:
    """Trace the curve read off w with x_i horizontal and x_j vertical.

    Letters with other indices contribute no step, so the curve length is
    the number of letters with index i or j.
    """
    if i == j:
        raise ValueError("curve construction requires two distinct indices")
    x, y = 0, 0
    vertices = [(0, 0)]
    for letter in w:
        if letter.index == i:
            x += letter.sign
        elif letter.index == j:
            y += letter.sign
        else:
            continue
        vertices.append((x, y))
    return LatticeCurve._unchecked(tuple(vertices))
