"""Brute-force verifiers for the closed-form bounds.

Two independent jobs:

* walk every fixed polyomino of a given area (translation-distinct,
  rotations and reflections counted separately) by Redelmeier's method,
  counting adjacent cell pairs as each cell is added, so the same pass
  yields the count and the minimal perimeter 4*A - 2*(adjacent pairs) of
  every area;
* search every balanced two-letter word up to a length cap, one length at
  a time over the distinct states (x, y, integral so far), and confirm
  that word length is at least 2*ceil(2*sqrt(|integral|)) for the curve
  it traces, recording the minimal length for each achieved value.

Both searches are capped so the full suite stays fast; the caps can be
raised from the CLI.
"""

from __future__ import annotations

import sys
from typing import Iterator

from ._record import FrozenRecord, quote, require_int
from .bounds import ceil_two_sqrt, min_polyomino_perimeter

POLYOMINO_AREA_CAP = 10
WORD_LENGTH_CAP = 12


class CapExceededError(ValueError):
    """Raised when an oracle sweep is asked to exceed its runtime cap."""


class OracleReport(FrozenRecord):
    """One row of an oracle sweep: swept parameter, observed extremum,
    closed-form prediction."""

    __slots__ = _fields = ("parameter", "observed", "predicted")
    parameter: int
    observed: int
    predicted: int

    def __init__(self, parameter: int, observed: int, predicted: int) -> None:
        self._set_slots(parameter, observed, predicted)

    @property
    def agree(self) -> bool:
        return self.observed == self.predicted


def format_reports(reports: list[OracleReport]) -> str:
    """Fixed-width table, one row per report."""
    lines = [f"{'parameter':>9}  {'observed':>8}  {'predicted':>9}  {'agree':>5}"]
    for r in reports:
        lines.append(f"{r.parameter:>9}  {r.observed:>8}  {r.predicted:>9}  {'yes' if r.agree else 'no':>5}")
    return "\n".join(lines) + "\n"


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

    A cell is one int, ``x + W*y`` plus an offset, with ``W = 2*max_area +
    1``: every cell the walk reaches has ``|x| < max_area`` and ``-1 <= y <
    max_area``, so rows do not run into each other, the four neighbours of
    a cell are ``+1``, ``-1``, ``+W`` and ``-W``, and the half plane is the
    cells numbered at least the origin's number.

    The walk recurses once per cell, and its first branch is a straight
    line of max_area cells, so an area deeper than the recursion limit
    leaves is refused up front with :class:`CapExceededError`, before any
    table is allocated.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if max_area + depth + _SPARE_FRAMES > sys.getrecursionlimit():
        raise CapExceededError(
            f"max_area {quote(max_area)} needs a deeper recursion than the limit {sys.getrecursionlimit()} allows"
        )
    counts = [0] * (max_area + 1)
    min_perimeter = [4 * area for area in range(max_area + 1)]
    W = 2 * max_area + 1
    origin = max_area + W  # (0, 0), with x = -max_area .. max_area and y = -1 .. max_area - 1
    touching = [0] * (W * (max_area + 1))  # cell -> shape cells next to it
    seen = bytearray(len(touching))
    seen[origin] = 1

    def grow(untried: list[int], size: int, adjacent: int) -> None:
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
            neighbors = (cell + 1, cell - 1, cell + W, cell - W)
            added = []
            for nb in neighbors:
                touching[nb] += 1
                if nb >= origin and not seen[nb]:
                    seen[nb] = 1
                    added.append(nb)
            if untried or added:
                grow(untried + added, area, adjacent + touching[cell])
            for nb in neighbors:
                touching[nb] -= 1
            for nb in added:
                seen[nb] = 0

    grow([origin], 0, 0)
    return counts, min_perimeter


def _check_bound(name: str, value: int, cap: int) -> None:
    """Refuse the sweep bound ``name`` unless it is an int of at least 1 and
    at most ``cap``, an int."""
    require_int(name, value)
    require_int("cap", cap, None)
    if value > cap:
        raise CapExceededError(f"{name} {quote(value)} exceeds the cap {quote(cap)}")


def count_fixed_polyominoes(max_area: int) -> list[int]:
    """Counts of fixed polyominoes for areas 1..max_area, by Redelmeier's
    method (see :func:`_redelmeier`)."""
    require_int("max_area", max_area)
    return _redelmeier(max_area)[0][1:]


def verify_min_perimeter(max_area: int = POLYOMINO_AREA_CAP, cap: int = POLYOMINO_AREA_CAP) -> list[OracleReport]:
    """Compare the minimal perimeter over every fixed polyomino against
    2*ceil(2*sqrt(A)) for every area 1..max_area."""
    _check_bound("max_area", max_area, cap)
    min_perimeter = _redelmeier(max_area)[1]
    return [
        OracleReport(area, min_perimeter[area], min_polyomino_perimeter(area))
        for area in range(1, max_area + 1)
    ]


def verify_word_length_bound(max_len: int = WORD_LENGTH_CAP, cap: int = WORD_LENGTH_CAP) -> list[OracleReport]:
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
    _check_bound("max_len", max_len, cap)
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
