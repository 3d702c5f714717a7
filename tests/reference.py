"""Independent references: what the tests compare the library's results with.

Each function here is a slower or more literal method than the library's,
or the one the library replaced.  The module imports nothing from
``clasplink`` (``tests/test_cold_start.py`` checks it), so a wrong library
cannot agree with itself through a helper the two share.  It works on
plain data, and a test converts the library's objects to it:

* a clasp is an ``(id, a, b, sign)`` tuple, and an order a sequence of ids;
* a word is a list of letter keys, ``index * sign`` a letter;
* a curve is its step codes, a ``bytes`` of 0 (+x), 1 (-x), 2 (+y) and
  3 (-y), or its vertices, a tuple of ``(x, y)`` points from (0, 0);
* a polyomino is a ``frozenset`` of ``(x, y)`` cells;
* an error in word text is a ``(message, line, column)`` tuple.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice

QUOTE_CHARS = 40  # characters of input that an error message quotes
SVG_SCALE = 40  # pixels per lattice unit
WORD_INDEX_DIGITS = 100  # digits of a letter index, at most

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # the unit step of each step code
CODES = {step: code for code, step in enumerate(STEPS)}

Cell = tuple[int, int]


# --- error text ---------------------------------------------------------------


def clip(text: str) -> str:
    """The first ``QUOTE_CHARS`` characters of ``text``, then ``...`` if it was longer."""
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


def quote(text: str) -> str:
    """A string as an error message quotes it: the repr of its clip."""
    return repr(clip(text))


# --- complexes ------------------------------------------------------------------


def validate(n, clasps, orders):
    """The violations of a complex, found by walking every id of every
    order, as ``validate`` did before it accepted a well-formed order with
    one set comparison."""
    violations = []
    if n < 1:
        violations.append(f"component count must be at least 1, got {n}")

    seen = set()
    incident = defaultdict(set)
    for cid, a, b, _ in clasps:
        if cid in seen:
            violations.append(f"duplicate clasp id {quote(cid)}")
            continue
        seen.add(cid)
        if a == b:
            violations.append(f"clasp {quote(cid)} is a self-clasp (both ends on component {a})")
        unknown = sorted(end for end in {a, b} if end > n)
        for end in unknown:
            violations.append(f"clasp {quote(cid)} references unknown component {clip(str(end))}")
        if not unknown and a != b:
            incident[a].add(cid)
            incident[b].add(cid)

    for k in range(1, n + 1):
        expected = incident.get(k, set())
        listed = set()
        for cid in orders[k - 1]:
            if cid in listed:
                violations.append(f"order for component {k} repeats clasp id {quote(cid)}")
                continue
            listed.add(cid)
            if cid not in seen:
                violations.append(f"order for component {k} references unknown clasp id {quote(cid)}")
            elif cid not in expected:
                violations.append(f"order for component {k} lists non-incident clasp {quote(cid)}")
        for cid in sorted(expected - listed):
            violations.append(f"order for component {k} is incomplete: missing clasp id {quote(cid)}")
    return violations


def clasp_word(clasps, orders, k):
    """The letter keys of component k's word, in a pass of its own: for each
    id of its order, the clasp's other end times its sign."""
    key_of = {}
    for cid, a, b, sign in clasps:
        if k in (a, b):
            key_of[cid] = (b if a == k else a) * sign
    return [key_of[cid] for cid in orders[k - 1]]


# --- words ------------------------------------------------------------------


def letters(runs):
    """The letter keys of a word's ``(key, count)`` runs."""
    return [key for key, count in runs for _ in range(count)]


def e_ij(keys, i, j):
    """The literal double sum over letter pairs u <= v, with index i at u
    and j at v, of the product of their signs."""
    total = 0
    for v, later in enumerate(keys):
        if abs(later) == j:
            for earlier in islice(keys, v + 1):
                if abs(earlier) == i:
                    total += earlier // i * (later // j)
    return total


# the grammar as the per-token parser read it: a strict term, and a second
# match that words the error of a rejected one
_TERM_RE = re.compile(rf"x([1-9][0-9]{{0,{WORD_INDEX_DIGITS - 1}}})(?:\^(-?[1-9][0-9]*))?\Z")
_TOKEN_RE = re.compile(r"[^\s.]+")


def _term_error(token: str) -> str:
    # digits are compared as text: int() refuses very long digit strings
    m = re.match(r"x(-?[0-9]+)(?:\^(-?[0-9]+))?\Z", token)
    if m:
        index_text, exp_text = m.group(1), m.group(2)
        if index_text.startswith("-") or not index_text.strip("0"):
            return f"component index must be at least 1, got {clip(index_text)}"
        if index_text.startswith("0"):
            return f"component index may not have a leading zero: {clip(index_text)}"
        if len(index_text) > WORD_INDEX_DIGITS:
            return f"component index has more than {WORD_INDEX_DIGITS} digits"
        if exp_text is not None:
            if not exp_text.lstrip("-").strip("0"):
                return "exponent must be nonzero"
            return f"exponent may not have a leading zero: {clip(exp_text)}"
    return f"malformed term {quote(token)} (expected x<INT> or x<INT>^<SIGNEDINT>)"


def parse_word(text: str):
    """The letter keys of word text, or its first bad term's error: the
    per-token parser that ``parse_word`` replaced, which expands each term
    in place and has no letter cap."""
    keys: list[int] = []
    for line_no, line in enumerate(text.splitlines() or [""], start=1):
        if line.lstrip().startswith("#"):
            continue
        for match in _TOKEN_RE.finditer(line):
            token = match.group()
            term = _TERM_RE.match(token)
            if term is None:
                return _term_error(token), line_no, match.start() + 1
            index = int(term.group(1))
            exponent = int(term.group(2)) if term.group(2) else 1
            keys.extend([index if exponent > 0 else -index] * abs(exponent))
    return keys


# --- curves -----------------------------------------------------------------


def steps(keys, i, j):
    """The step codes of a word's curve, a letter at a time: x_i^±1 moves
    along ±x, x_j^±1 along ±y, and other letters do not move."""
    codes = bytearray()
    for key in keys:
        if abs(key) == i:
            codes.append(CODES[key // i, 0])
        elif abs(key) == j:
            codes.append(CODES[0, key // j])
    return bytes(codes)


def walk(unit_steps):
    """The vertices of the walk from (0, 0) by ``(dx, dy)`` unit steps."""
    x = y = 0
    vertices = [(0, 0)]
    for dx, dy in unit_steps:
        x += dx
        y += dy
        vertices.append((x, y))
    return tuple(vertices)


def vertices_of(codes: bytes):
    """The vertices of the curve of step codes."""
    return walk(map(STEPS.__getitem__, codes))


def codes_of(vertices) -> bytes:
    """The step codes of the curve through vertices from (0, 0) that move
    by unit steps."""
    return bytes([CODES[x1 - x0, y1 - y0] for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])])


@dataclass(frozen=True)
class TupleCurve:
    """The curve as it was kept before its coordinate columns and its step
    codes: a tuple of ``(x, y)`` points, with the same checks and methods."""

    vertices: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a curve needs at least its start vertex")
        if self.vertices[0] != (0, 0):
            raise ValueError(f"curve must start at (0, 0), got {self.vertices[0]}")
        for (x0, y0), (x1, y1) in zip(self.vertices, islice(self.vertices, 1, None)):
            if abs(x1 - x0) + abs(y1 - y0) != 1:
                raise ValueError(f"step from ({x0}, {y0}) to ({x1}, {y1}) is not a unit cardinal step")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def is_closed(self) -> bool:
        return self.vertices[-1] == (0, 0)

    def is_simple(self) -> bool:
        """Whether the vertices before the last are distinct."""
        if not self.is_closed():
            raise ValueError("simplicity is only defined for closed curves")
        interior = len(self.vertices) - 1
        return len(set(islice(self.vertices, interior))) == interior

    def line_integral_x_dy(self) -> int:
        total = 0
        for (x0, y0), (_, y1) in zip(self.vertices, islice(self.vertices, 1, None)):
            total += x0 * (y1 - y0)
        return total

    def reversed(self) -> "TupleCurve":
        xe, ye = self.vertices[-1]
        return TupleCurve(tuple((x - xe, y - ye) for x, y in reversed(self.vertices)))


def enclosed_cell_count(vertices) -> int:
    """Even-odd fill: cells whose rightward ray crosses an odd number of
    vertical curve edges.  Independent of the line integral."""
    vertical = [(x0, min(y0, y1)) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]) if x0 == x1]
    xs = [x for x, _ in vertices]
    ys = [y for _, y in vertices]
    count = 0
    for cx in range(min(xs), max(xs)):
        for cy in range(min(ys), max(ys)):
            crossings = sum(1 for ex, ey in vertical if ey == cy and ex > cx)
            if crossings % 2 == 1:
                count += 1
    return count


def quarter_turns(vertices) -> int:
    """Sum of signed turns along a closed curve; +4 means counterclockwise."""
    dirs = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])]
    return sum(dx0 * dy1 - dy0 * dx1 for (dx0, dy0), (dx1, dy1) in zip(dirs, dirs[1:] + dirs[:1]))


def render_curve_svg(vertices, grid: bool = False) -> str:
    """The SVG of a curve, built whole: every point string, then the whole
    polyline, then the whole document."""
    scale = SVG_SCALE
    xs = [x for x, _ in vertices]
    ys = [y for _, y in vertices]
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
    width = (max_x - min_x + 2) * scale
    height = (max_y - min_y + 2) * scale

    px = {x: str((x - min_x + 1) * scale) for x in range(min_x - 1, max_x + 2)}
    py = {y: str((max_y + 1 - y) * scale) for y in range(min_y - 1, max_y + 2)}

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    if grid:
        for gx in range(min_x - 1, max_x + 2):
            lines.append(f'  <line x1="{px[gx]}" y1="0" x2="{px[gx]}" y2="{height}" stroke="#cccccc" stroke-width="1"/>')
        for gy in range(min_y - 1, max_y + 2):
            lines.append(f'  <line x1="0" y1="{py[gy]}" x2="{width}" y2="{py[gy]}" stroke="#cccccc" stroke-width="1"/>')
    if len(vertices) > 1:
        points = " ".join([f"{px[x]},{py[y]}" for x, y in vertices])
        lines.append(f'  <polyline points="{points}" fill="none" stroke="#000000" stroke-width="2"/>')
    lines.append(f'  <circle cx="{px[0]}" cy="{py[0]}" r="{scale // 8}" fill="#cc0000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# --- bounds and oracles -------------------------------------------------------


def smallest_root_by_counting(target: int, coeff: int) -> int:
    """The least m >= 0 with coeff * m^2 >= target, counted up from 0."""
    m = 0
    while coeff * m * m < target:
        m += 1
    return m


def word_tree(max_len: int):
    """Every word over x1^±1 and x2^±1 of at most ``max_len`` letters whose
    curve can still get back to (0, 0) within that length, as ``(length,
    x, y, integral)``: where its curve ends and its line integral of x dy.
    The 4-ary tree of words, walked one letter at a time, depth first."""
    stack = [(0, 0, 0, 0)]
    while stack:
        node = depth, x, y, integral = stack.pop()
        yield node
        budget = max_len - depth - 1
        depth += 1
        ax, ay = abs(x), abs(y)
        if abs(x + 1) + ay <= budget:
            stack.append((depth, x + 1, y, integral))
        if abs(x - 1) + ay <= budget:
            stack.append((depth, x - 1, y, integral))
        if ax + abs(y + 1) <= budget:
            stack.append((depth, x, y + 1, integral + x))
        if ax + abs(y - 1) <= budget:
            stack.append((depth, x, y - 1, integral - x))


# Every fixed polyomino of area a is some polyomino of area a - 1 plus one
# edge-adjacent cell, so growing each shape by each free neighbour and
# translating the result to min x = min y = 0 gives every fixed polyomino
# of area a exactly once.


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
    """Unit edges between a cell and a cell outside: each (cell, side)
    whose neighbour is not in the shape."""
    return sum(nb not in cells for cell in cells for nb in _neighbours(*cell))


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
