"""Unit-step lattice curves traced out by clasp words.

Reading a word with a fixed pair of indices (i, j) draws a path on the
integer grid: x_i steps right, x_i^-1 left, x_j up, x_j^-1 down, and all
other letters are skipped.  Everything here is exact integer arithmetic.

A curve is its steps from (0, 0), one byte a step: ``RIGHT`` (0) for +x,
``LEFT`` (1) for -x, ``UP`` (2) for +y and ``DOWN`` (3) for -y.  Those
bytes are the one field of the frozen record ``LatticeCurve(steps)``, and
the vertices are built only when asked for.  ``length``, ``is_closed``,
``reversed``, ``==`` and ``hash`` work on the bytes at C level.  A curve
walks its straight segments once, when it is built, one step of Python per
segment and none per vertex, and keeps the line integral and the bounding
box that walk gives.  ``is_simple`` marks the vertices in a bitmap of that
box, one byte a cell and one slice a segment, unless the box is large for
the curve's length.  No coordinate can overflow: a curve of n steps from
(0, 0) stays within n of it.  ``write_svg`` draws a curve as SVG text,
passed to a writer a straight segment at a time, so the whole document is
never held.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice
from operator import eq
from typing import Callable, Iterator

from ._record import FrozenRecord
from .words import ClaspWord, _require_letter_index

Point = tuple[int, int]

_BOX_CELLS_PER_STEP = 8  # the largest bounding box is_simple maps, per step

RIGHT, LEFT, UP, DOWN = range(4)  # the step codes
# x and y change of each step code, in lists: map() calls a list's
# __getitem__ faster than a tuple's
_DX = [1, -1, 0, 0]
_DY = [0, 0, 1, -1]
_CODES = bytes([RIGHT, LEFT, UP, DOWN])
_FLIP = bytes.maketrans(_CODES, bytes([LEFT, RIGHT, DOWN, UP]))
_SEGMENT = re.compile(rb"\x00+|\x01+|\x02+|\x03+")  # a maximal straight run
_WINDOW = 4096  # steps searched for straight runs at a time
SVG_SCALE = 40  # pixels per lattice unit


class LatticeCurve(FrozenRecord):
    """A path of grid points starting at (0, 0) with unit cardinal steps.

    ``steps`` holds one code byte per step (see the module docstring).
    ``vertices`` builds the coordinates on each access.  As a frozen record
    a curve compares, hashes, shows, copies and pickles by its steps, which
    fix its vertices, and refuses assignment and deletion.  The bounding box
    and the line integral are kept beside the steps, from the one walk of
    the straight segments that builds the curve: an extreme is met at the
    end of a segment, and a vertical segment of n steps adds n times its
    column.
    """

    __slots__ = ("steps", "_box", "_integral")
    _fields = ("steps",)

    def __init__(self, steps: bytes) -> None:
        # one C-level pass: deleting every valid code leaves nothing
        if type(steps) is not bytes or steps.translate(None, _CODES):
            raise ValueError("steps must be a bytes object of step codes 0 to 3")
        self._set_slots(steps)  # first, for segments() to read
        x = y = min_x = max_x = min_y = max_y = total = 0
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
                total += x * len(run)
                y += len(run)
                if y > max_y:
                    max_y = y
            else:
                total -= x * len(run)
                y -= len(run)
                if y < min_y:
                    min_y = y
        self._set_slots(steps, (min_x, max_x, min_y, max_y), total)

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

        Only defined for closed curves.  If the bounding box holds at most
        ``_BOX_CELLS_PER_STEP`` cells a step, the vertices mark a bitmap of
        the box, one byte a cell.  Each straight run reads its cells with
        one strided slice (stride 1 along a row, the box width along a
        column), then sets them.  A run takes its first vertex up to, not
        including, its last, which the next run takes; so every vertex is
        marked once, apart from the closing one.  A bigger box, such as the
        n**2 / 16 cells of a closed diagonal staircase of n steps, falls
        back to sorting the interior vertices, each coded as
        ``x * span + y``: the running sum of each step's change of code
        (``span`` along x, 1 along y).  A repeat shows as equal sorted
        neighbours.  n vertices from (0, 0) by unit steps keep every y
        within n - 1 of 0, so fewer than ``span`` values apart.
        """
        if not self.is_closed():
            raise ValueError("simplicity is only defined for closed curves")
        interior = len(self.steps)
        min_x, max_x, min_y, max_y = self._box
        width = max_x - min_x + 1
        cells = width * (max_y - min_y + 1)
        if cells > _BOX_CELLS_PER_STEP * interior:
            span = 2 * interior + 1
            codes = sorted(islice(self._coordinates([span, -span, 1, -1]), interior))
            return not any(map(eq, codes, islice(codes, 1, None)))
        seen = bytearray(cells)
        stride = [1, -1, width, -width]  # change of cell index of each step code
        at = -min_y * width - min_x  # the cell of (0, 0)
        for run in self.segments():
            step = stride[run[0]]
            end = at + len(run) * step  # the last vertex's cell, so never below 0
            if 1 in seen[at:end:step]:
                return False
            seen[at:end:step] = b"\x01" * len(run)
            at = end
        return True

    def line_integral_x_dy(self) -> int:
        """Exact value of the line integral of x dy along the path: +x for
        each step up at column x, -x for each step down."""
        return self._integral

    def bounding_box(self) -> tuple[int, int, int, int]:
        """``(min_x, max_x, min_y, max_y)`` over the vertices."""
        return self._box

    def reversed(self) -> "LatticeCurve":
        """The same path traversed backwards, translated to start at (0, 0)."""
        return LatticeCurve(self.steps[::-1].translate(_FLIP))


def build_curve(w: ClaspWord, i: int, j: int) -> LatticeCurve:
    """Trace the curve read off w with x_i horizontal and x_j vertical.

    Each run of the word adds its step code times its length.  Letters of
    other indices make no step, so the length counts those of index i or j.
    """
    if i == j:
        raise ValueError("curve construction requires two distinct indices")
    _require_letter_index(i)
    _require_letter_index(j)
    codes = {i: bytes([RIGHT]), -i: bytes([LEFT]), j: bytes([UP]), -j: bytes([DOWN])}  # by letter key
    steps = bytearray()
    for key, count in w.runs:
        steps += codes.get(key, b"") * count
    return LatticeCurve(bytes(steps))


def write_svg(curve: LatticeCurve, write: Callable[[str], object], grid: bool = False) -> None:
    """Write the curve as an SVG polyline with a start-point marker.

    Each header line, grid line, straight segment's points, the marker and
    the closing tag go to ``write`` as soon as they are made, so no text
    longer than one segment is built.  One unit of margin surrounds the
    bounding box; the y axis is flipped so upward steps render upward.  Each
    coordinate in the box is formatted once, " X," a column and "Y" a row.
    A horizontal segment's points join a slice of the columns with its row,
    a vertical one's a slice of the rows with its column.  The slice runs
    backwards (step -1) for a segment that runs left or down; the margin
    keeps every index at least 1, so a backward slice never ends at -1.
    """
    min_x, max_x, min_y, max_y = curve.bounding_box()
    width = (max_x - min_x + 2) * SVG_SCALE
    height = (max_y - min_y + 2) * SVG_SCALE

    # cols[x - min_x + 1] and py[y - min_y + 1] are column x and row y, for
    # the box and its one-unit margin
    cols = [f" {k * SVG_SCALE}," for k in range(max_x - min_x + 3)]
    py = [str(k * SVG_SCALE) for k in range(max_y - min_y + 2, -1, -1)]
    x0, y0 = 1 - min_x, 1 - min_y  # the start vertex

    write('<?xml version="1.0" encoding="UTF-8"?>\n')
    write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    if grid:
        for col in cols:
            sx = col[1:-1]
            write(f'  <line x1="{sx}" y1="0" x2="{sx}" y2="{height}" stroke="#cccccc" stroke-width="1"/>\n')
        for sy in py:
            write(f'  <line x1="0" y1="{sy}" x2="{width}" y2="{sy}" stroke="#cccccc" stroke-width="1"/>\n')
    if curve.length:
        x, y = x0, y0
        write(f'  <polyline points="{cols[x][1:]}{py[y]}')
        for run in curve.segments():
            code = run[0]
            s = -1 if code & 1 else 1  # LEFT and DOWN are the odd codes
            if code < UP:
                end = x + s * len(run)
                write(py[y].join(cols[x + s : end + s : s]) + py[y])
                x = end
            else:
                end = y + s * len(run)
                write(cols[x] + cols[x].join(py[y + s : end + s : s]))
                y = end
        write('" fill="none" stroke="#000000" stroke-width="2"/>\n')
    write(f'  <circle cx="{cols[x0][1:-1]}" cy="{py[y0]}" r="{SVG_SCALE // 8}" fill="#cc0000"/>\n')
    write("</svg>\n")
