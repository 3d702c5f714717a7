"""Brute-force verifiers for the closed-form bounds.

Two independent jobs:

* walk every fixed polyomino of a given area (translation-distinct,
  rotations and reflections counted separately) by Redelmeier's method,
  counting adjacent cell pairs as each cell is added, so the same pass
  yields the count and the minimal perimeter 4*A - 2*(adjacent pairs) of
  every area; a second method that builds and normalizes the cell sets
  (:func:`enumerate_polyominoes`) cross-checks the counts;
* search every balanced two-letter word up to a length cap, one length at
  a time over the distinct states (x, y, integral so far), and confirm
  that word length is at least 2*ceil(2*sqrt(|integral|)) for the curve
  it traces, recording the minimal length for each achieved value.

Both searches are capped so the full suite stays fast; the caps can be
raised from the CLI.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Iterator

from ._record import FrozenRecord, clip
from .bounds import ceil_two_sqrt

POLYOMINO_AREA_CAP = 10
WORD_LENGTH_CAP = 12

Cell = tuple[int, int]


class CapExceededError(ValueError):
    """Raised when an oracle sweep is asked to exceed its runtime cap."""


class Polyomino(FrozenRecord):
    """A nonempty, translation-normalized set of unit grid cells."""

    __slots__ = _fields = ("cells",)
    cells: frozenset[Cell]

    def __init__(self, cells: frozenset[Cell]) -> None:
        if not cells:
            raise ValueError("a polyomino has at least one cell")
        if min(x for x, _ in cells) != 0 or min(y for _, y in cells) != 0:
            raise ValueError("polyomino cells must be normalized to min x = min y = 0")
        self._set_fields(cells)

    @property
    def area(self) -> int:
        return len(self.cells)

    def perimeter(self) -> int:
        """Unit edges adjacent to exactly one cell: 4*area - 2*(adjacent pairs)."""
        adjacent = sum(
            ((x + 1, y) in self.cells) + ((x, y + 1) in self.cells)
            for x, y in self.cells
        )
        return 4 * len(self.cells) - 2 * adjacent

    def is_connected(self) -> bool:
        """Edge-connectivity check by flood fill."""
        todo = [next(iter(self.cells))]
        seen = set(todo)
        while todo:
            x, y = todo.pop()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in self.cells and nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
        return len(seen) == len(self.cells)


class OracleReport(FrozenRecord):
    """One row of an oracle sweep: swept parameter, observed extremum,
    closed-form prediction."""

    __slots__ = _fields = ("parameter", "observed", "predicted")
    parameter: int
    observed: int
    predicted: int

    def __init__(self, parameter: int, observed: int, predicted: int) -> None:
        self._set_fields(parameter, observed, predicted)

    @property
    def agree(self) -> bool:
        return self.observed == self.predicted


def format_reports(reports: list[OracleReport]) -> str:
    """Fixed-width table, one row per report."""
    lines = [f"{'parameter':>9}  {'observed':>8}  {'predicted':>9}  {'agree':>5}"]
    for r in reports:
        lines.append(f"{r.parameter:>9}  {r.observed:>8}  {r.predicted:>9}  {'yes' if r.agree else 'no':>5}")
    return "\n".join(lines) + "\n"


def _normalize(cells: frozenset[Cell]) -> frozenset[Cell]:
    dx = min(x for x, _ in cells)
    dy = min(y for _, y in cells)
    if dx == 0 and dy == 0:
        return cells
    return frozenset((x - dx, y - dy) for x, y in cells)


@lru_cache(maxsize=None)
def _fixed_shapes(area: int) -> frozenset[frozenset[Cell]]:
    """All normalized fixed polyominoes of the given area, by growth: every
    area-a polyomino is some area-(a-1) polyomino plus one adjacent cell."""
    if area == 1:
        return frozenset({frozenset({(0, 0)})})
    shapes = set()
    for smaller in _fixed_shapes(area - 1):
        for x, y in smaller:
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb not in smaller:
                    shapes.add(_normalize(smaller | {nb}))
    return frozenset(shapes)


def enumerate_polyominoes(area: int, cap: int = POLYOMINO_AREA_CAP) -> list[Polyomino]:
    """All fixed polyominoes of the given area, sorted canonically."""
    if area < 1:
        raise ValueError(f"area must be at least 1, got {clip(str(area))}")
    if area > cap:
        raise CapExceededError(f"area {clip(str(area))} exceeds the cap {clip(str(cap))}")
    shapes = [Polyomino(cells) for cells in _fixed_shapes(area)]
    shapes.sort(key=lambda p: tuple(sorted(p.cells)))
    return shapes


_SPARE_FRAMES = 10  # headroom over the walk's one frame per cell


def _redelmeier(max_area: int) -> tuple[list[int], list[int]]:
    """Counts and minimal perimeters of fixed polyominoes, index = area
    (index 0 unused), by one walk that never builds or normalizes cell sets.

    Candidate cells are restricted to the half plane y > 0 or (y = 0,
    x >= 0), pinning the translation class.  Each shape is counted exactly
    once: candidates are tried in order and stay forbidden for the
    remainder of the branch once their subtree is exhausted.  Adding a
    candidate adds one adjacent pair per shape cell it touches, and the
    perimeter is 4*area - 2*(adjacent pairs).

    The walk recurses once per cell, and its first branch is a straight
    line of max_area cells, so an area deeper than the recursion limit
    leaves is refused up front with :class:`CapExceededError`.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if max_area + depth + _SPARE_FRAMES > sys.getrecursionlimit():
        raise CapExceededError(
            f"max_area {clip(str(max_area))} needs a deeper recursion than the limit {sys.getrecursionlimit()} allows"
        )
    counts = [0] * (max_area + 1)
    min_perimeter = [4 * area for area in range(max_area + 1)]
    touching: dict[Cell, int] = {(0, 0): 0}  # cell -> shape cells next to it

    def grow(untried: list[Cell], seen: set[Cell], size: int, adjacent: int) -> None:
        # Each candidate in untried gives one shape of this area.
        area = size + 1
        counts[area] += len(untried)
        perimeter = 4 * area - 2 * (adjacent + max(map(touching.__getitem__, untried)))
        if perimeter < min_perimeter[area]:
            min_perimeter[area] = perimeter
        if area == max_area:
            return
        while untried:
            cell = untried.pop()
            cx, cy = cell
            neighbors = ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1))
            added = []
            for nb in neighbors:
                touching[nb] = touching.get(nb, 0) + 1
                x, y = nb
                if (y > 0 or (y == 0 and x >= 0)) and nb not in seen:
                    seen.add(nb)
                    added.append(nb)
            if untried or added:
                grow(untried + added, seen, area, adjacent + touching[cell])
            for nb in neighbors:
                touching[nb] -= 1
            for nb in added:
                seen.discard(nb)

    grow([(0, 0)], {(0, 0)}, 0, 0)
    return counts, min_perimeter


def count_fixed_polyominoes(max_area: int) -> list[int]:
    """Counts of fixed polyominoes for areas 1..max_area, by Redelmeier's
    method (see :func:`_redelmeier`)."""
    if max_area < 1:
        raise ValueError(f"max_area must be at least 1, got {clip(str(max_area))}")
    return _redelmeier(max_area)[0][1:]


def verify_min_perimeter(max_area: int, cap: int = POLYOMINO_AREA_CAP) -> list[OracleReport]:
    """Compare the minimal perimeter over every fixed polyomino against
    2*ceil(2*sqrt(A)) for every area 1..max_area."""
    if max_area < 1:
        raise ValueError(f"max_area must be at least 1, got {clip(str(max_area))}")
    if max_area > cap:
        raise CapExceededError(f"max_area {clip(str(max_area))} exceeds the cap {clip(str(cap))}")
    min_perimeter = _redelmeier(max_area)[1]
    return [
        OracleReport(area, min_perimeter[area], 2 * ceil_two_sqrt(area))
        for area in range(1, max_area + 1)
    ]


def verify_word_length_bound(max_len: int, cap: int = WORD_LENGTH_CAP) -> list[OracleReport]:
    """Exhaust all balanced words over {x1^±1, x2^±1} of length <= max_len.

    A balanced word (both signed letter counts zero) traces a closed curve
    whose length is the word length.  For each achieved |integral| value A
    the report row holds the minimal word length found against the
    predicted minimum 2*ceil(2*sqrt(A)); observed < predicted anywhere
    would be a counterexample.

    Sweeping two letter indices loses no generality: the integral only
    depends on the word restricted to the two indices.  The search runs
    one length at a time over the set of states (x, y, integral so far)
    that some word of that length reaches; every word is covered, and
    words reaching the same state are merged.  States that cannot return
    to the origin within the length budget are pruned (they have no
    balanced continuation, so nothing in scope is skipped).  The minimal
    length for A is the first length at which a state (0, 0, ±A) appears.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {clip(str(max_len))}")
    if max_len > cap:
        raise CapExceededError(f"max_len {clip(str(max_len))} exceeds the cap {clip(str(cap))}")
    min_len: dict[int, int] = {}
    for length, states in enumerate(_word_states(max_len)):
        for x, y, acc in states:
            if x == 0 and y == 0:
                min_len.setdefault(abs(acc), length)
    return [
        OracleReport(a, min_len[a], 2 * ceil_two_sqrt(a))
        for a in sorted(min_len)
    ]


def _word_states(max_len: int) -> Iterator[set[tuple[int, int, int]]]:
    """Yield, for each word length 0..max_len in turn, the set of states
    (x, y, integral so far) that the words of that length reach without
    leaving the return-to-origin budget."""
    states = {(0, 0, 0)}
    yield states
    for depth in range(1, max_len + 1):
        budget = max_len - depth
        grown = set()
        for x, y, acc in states:
            ax, ay = abs(x), abs(y)
            if abs(x + 1) + ay <= budget:
                grown.add((x + 1, y, acc))
            if abs(x - 1) + ay <= budget:
                grown.add((x - 1, y, acc))
            if ax + abs(y + 1) <= budget:
                grown.add((x, y + 1, acc + x))
            if ax + abs(y - 1) <= budget:
                grown.add((x, y - 1, acc - x))
        yield grown
        states = grown
