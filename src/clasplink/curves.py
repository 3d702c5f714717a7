"""Unit-step lattice curves traced out by clasp words.

Reading a word with a fixed pair of indices (i, j) draws a path on the
integer grid: x_i steps right, x_i^-1 left, x_j up, x_j^-1 down, and all
other letters are skipped.  Everything here is exact integer arithmetic.

A curve is its steps from (0, 0), one byte a step: ``RIGHT`` (0) for +x,
``LEFT`` (1) for -x, ``UP`` (2) for +y and ``DOWN`` (3) for -y.  Those
bytes are the one field of the frozen record ``LatticeCurve(steps)``, and
the vertices are built only when asked for.  ``length``, ``is_closed``,
``reversed``, ``==`` and ``hash`` work on the bytes at C level.  The line
integral and the bounding box walk the curve's straight segments, one step
of Python per segment and none per vertex.  ``is_simple`` sorts one integer
code per vertex, accumulated from per-step deltas.  No coordinate can
overflow: a curve of n steps from (0, 0) stays within n of it.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice
from operator import eq
from typing import Iterator

from ._record import FrozenRecord
from .words import ClaspWord

Point = tuple[int, int]

_PROBE = 4096  # interior vertices is_simple checks before it sorts them all

RIGHT, LEFT, UP, DOWN = range(4)  # the step codes
# x and y change of each step code, in lists: map() calls a list's
# __getitem__ faster than a tuple's
_DX = [1, -1, 0, 0]
_DY = [0, 0, 1, -1]
_CODES = bytes([RIGHT, LEFT, UP, DOWN])
_FLIP = bytes.maketrans(_CODES, bytes([LEFT, RIGHT, DOWN, UP]))
_SEGMENT = re.compile(rb"\x00+|\x01+|\x02+|\x03+")  # a maximal straight run
_WINDOW = 4096  # steps searched for straight runs at a time


class LatticeCurve(FrozenRecord):
    """A path of grid points starting at (0, 0) with unit cardinal steps.

    ``steps`` holds one code byte per step (see the module docstring).
    ``vertices`` builds the coordinates on each access.  As a frozen record
    a curve compares, hashes, shows, copies and pickles by its steps, which
    fix its vertices, and refuses assignment and deletion.
    """

    __slots__ = _fields = ("steps",)

    def __init__(self, steps: bytes) -> None:
        # one C-level pass: deleting every valid code leaves nothing
        if type(steps) is not bytes or steps.translate(None, _CODES):
            raise ValueError("steps must be a bytes object of step codes 0 to 3")
        object.__setattr__(self, "steps", steps)

    def _coordinates(self, delta: list[int]) -> Iterator[int]:
        return accumulate(map(delta.__getitem__, self.steps), initial=0)

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The path's grid points, built anew on each access."""
        return tuple(zip(self._coordinates(_DX), self._coordinates(_DY)))

    @property
    def length(self) -> int:
        """Number of unit steps."""
        return len(self.steps)

    def segments(self) -> Iterator[bytes]:
        """The curve's straight runs of steps in order, each one step code
        repeated.  They are found ``_WINDOW`` steps at a time, so no list of
        every run is built, and a straight segment that crosses a window's
        edge comes as two runs."""
        steps = self.steps
        for start in range(0, len(steps), _WINDOW):
            yield from _SEGMENT.findall(steps, start, start + _WINDOW)

    def is_closed(self) -> bool:
        count = self.steps.count
        return count(RIGHT) == count(LEFT) and count(UP) == count(DOWN)

    def is_simple(self) -> bool:
        """True iff no grid point is revisited, apart from start = end.

        Only defined for closed curves.  Each interior vertex is coded as
        ``x * span + y``, and a repeat shows as equal sorted neighbours.
        The code is one integer per point: n vertices from (0, 0) by unit
        steps keep every y within n - 1 of 0, so fewer than ``span``
        values apart.  The codes are the running sum of each step's change
        of code (``span`` along x, 1 along y).  A walk that revisits a
        point mostly does so soon after it starts, so the first ``_PROBE``
        vertices are checked before all of them are sorted.
        """
        if not self.is_closed():
            raise ValueError("simplicity is only defined for closed curves")
        span = 2 * len(self.steps) + 1
        interior = len(self.steps)

        def repeats(count: int) -> bool:
            codes = sorted(islice(self._coordinates([span, -span, 1, -1]), count))
            return any(map(eq, codes, islice(codes, 1, None)))

        return not (repeats(min(interior, _PROBE)) or repeats(interior))

    def line_integral_x_dy(self) -> int:
        """Exact value of the line integral of x dy along the path.

        Each upward step at column x contributes +x, each downward step -x,
        horizontal steps contribute nothing; so a vertical segment of n
        steps contributes n times its column.
        """
        x = total = 0
        for run in self.segments():
            code = run[0]
            if code == RIGHT:
                x += len(run)
            elif code == LEFT:
                x -= len(run)
            elif code == UP:
                total += x * len(run)
            else:
                total -= x * len(run)
        return total

    def bounding_box(self) -> tuple[int, int, int, int]:
        """``(min_x, max_x, min_y, max_y)`` over the vertices.  An extreme
        is met at the end of a segment, so only segment ends are visited."""
        x = y = min_x = max_x = min_y = max_y = 0
        for run in self.segments():
            code = run[0]
            if code == RIGHT:
                x += len(run)
                if x > max_x:
                    max_x = x
            elif code == LEFT:
                x -= len(run)
                if x < min_x:
                    min_x = x
            elif code == UP:
                y += len(run)
                if y > max_y:
                    max_y = y
            else:
                y -= len(run)
                if y < min_y:
                    min_y = y
        return min_x, max_x, min_y, max_y

    def reversed(self) -> "LatticeCurve":
        """The same path traversed backwards, translated to start at (0, 0)."""
        return LatticeCurve(self.steps[::-1].translate(_FLIP))


def build_curve(w: ClaspWord, i: int, j: int) -> LatticeCurve:
    """Trace the curve read off w with x_i horizontal and x_j vertical.

    Letters with other indices contribute no step, so the curve length is
    the number of letters with index i or j.
    """
    if i == j:
        raise ValueError("curve construction requires two distinct indices")
    steps = bytearray()
    append = steps.append
    for letter in w:
        if letter.index == i:
            append(RIGHT if letter.sign == 1 else LEFT)
        elif letter.index == j:
            append(UP if letter.sign == 1 else DOWN)
    return LatticeCurve(bytes(steps))
