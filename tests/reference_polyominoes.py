"""Reference enumeration of fixed polyominoes, as sets of cells.

The library counts fixed polyominoes and finds their minimal perimeters by
one Redelmeier walk that never builds a shape
(:func:`clasplink.oracles.count_fixed_polyominoes` and
:func:`clasplink.oracles.verify_min_perimeter`).  The tests check that walk
against this slower, independent method: every polyomino of area a is some
polyomino of area a - 1 plus one edge-adjacent cell, so growing each shape
by each free neighbour and translating the result to min x = min y = 0
gives every fixed polyomino of area a exactly once.  A shape is a
``frozenset`` of ``(x, y)`` cells.
"""

from __future__ import annotations

Cell = tuple[int, int]


def _neighbours(x: int, y: int) -> tuple[Cell, ...]:
    return (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)


def normalize(cells: frozenset[Cell] | set[Cell]) -> frozenset[Cell]:
    """The cells translated so that min x = min y = 0."""
    dx = min(x for x, _ in cells)
    dy = min(y for _, y in cells)
    if dx == dy == 0:
        return frozenset(cells)  # the same object, for a frozenset
    return frozenset((x - dx, y - dy) for x, y in cells)


def fixed_polyominoes(max_area: int) -> list[list[frozenset[Cell]]]:
    """Every normalized fixed polyomino of each area 1..max_area, by
    growth; index = area (index 0 is empty), each area's shapes sorted by
    their sorted cells."""
    by_area: list[list[frozenset[Cell]]] = [[], [frozenset({(0, 0)})]]
    for _ in range(2, max_area + 1):
        grown = set()
        for smaller in by_area[-1]:
            for cell in smaller:
                for nb in _neighbours(*cell):
                    if nb not in smaller:
                        grown.add(normalize(smaller | {nb}))
        by_area.append(sorted(grown, key=sorted))
    return by_area[: max_area + 1]


def perimeter(cells: frozenset[Cell]) -> int:
    """Unit edges adjacent to exactly one cell: 4*area - 2*(adjacent pairs)."""
    adjacent = sum(((x + 1, y) in cells) + ((x, y + 1) in cells) for x, y in cells)
    return 4 * len(cells) - 2 * adjacent


def is_connected(cells: frozenset[Cell]) -> bool:
    """Edge connectivity, by flood fill from one cell."""
    todo = [next(iter(cells))]
    seen = set(todo)
    while todo:
        for nb in _neighbours(*todo.pop()):
            if nb in cells and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return len(seen) == len(cells)
