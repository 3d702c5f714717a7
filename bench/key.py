"""Independent answer key for the clasplink CLI.

Nothing here imports ``clasplink``: every expected output is computed from
the benchmark's own models of a complex (clasps plus traversal orders) and
of a word (a list of exponent runs), so a wrong program cannot agree with
itself.  Where the paper gives a closed form (``mu(Brn) = n^2``, the clasp
lower bound ``2*ceil(2*sqrt(|mu|/3))``, the Harary-Harborth minimum
perimeter ``2*ceil(2*sqrt(A))``) the key uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

SVG_SCALE = 40  # pixels per lattice unit, as documented for `clasplink curve`


# --- integer square-root bounds ---------------------------------------------

def min_root(target: int, coeff: int) -> int:
    """Smallest m >= 0 with coeff * m * m >= target."""
    if target <= 0:
        return 0
    m = isqrt(target // coeff)
    while coeff * m * m < target:
        m += 1
    return m


def min_perimeter(area: int) -> int:
    """Harary-Harborth: 2*ceil(2*sqrt(A)) = 2 * min{m : m^2 >= 4A}."""
    return 2 * min_root(4 * area, 1)


def triple_lower_bound(mu: int) -> int:
    """2*ceil(2*sqrt(|mu|/3)) = 2 * min{m : 3m^2 >= 4|mu|}."""
    return 2 * min_root(4 * abs(mu), 3)


# --- complexes ---------------------------------------------------------------

@dataclass
class Complex:
    """n components, clasps as (id, a, b, sign) and one id order per component."""

    n: int
    clasps: list[tuple[str, int, int, int]]
    orders: list[list[str]]

    def word(self, k: int) -> list[tuple[int, int]]:
        """Clasp word of component k as (index, sign) letters."""
        ends = {cid: (a, b, s) for cid, a, b, s in self.clasps}
        letters = []
        for cid in self.orders[k - 1]:
            a, b, s = ends[cid]
            letters.append((b if a == k else a, s))
        return letters

    def lk(self, i: int, j: int) -> int:
        return sum(s for _, a, b, s in self.clasps if {a, b} == {i, j})


def eij_letters(letters, i: int, j: int) -> int:
    """Signed count of x_i-before-x_j pairs, over (index, exponent) runs or letters."""
    running = total = 0
    for index, e in letters:
        if index == i:
            running += e
        elif index == j:
            total += running * e
    return total


def letter_text(index: int, sign: int) -> str:
    return f"x{index}" if sign == 1 else f"x{index}^-1"


def words_output(cx: Complex) -> str:
    lines = []
    for k in range(1, cx.n + 1):
        text = " ".join(letter_text(i, s) for i, s in cx.word(k))
        lines.append(f"w{k} = {text}".rstrip())
    return "\n".join(lines) + "\n"


def mu_parts(cx: Complex, i: int, j: int, k: int) -> tuple[int, int, int]:
    return (
        eij_letters(cx.word(k), i, j),
        eij_letters(cx.word(i), j, k),
        eij_letters(cx.word(j), k, i),
    )


def mu_output(cx: Complex, i: int, j: int, k: int) -> str:
    parts = mu_parts(cx, i, j, k)
    defined = cx.lk(i, j) == 0 and cx.lk(j, k) == 0 and cx.lk(k, i) == 0
    return (
        f"mu = {sum(parts)}\n"
        f"e_{i}{j}(w{k}) = {parts[0]}\n"
        f"e_{j}{k}(w{i}) = {parts[1]}\n"
        f"e_{k}{i}(w{j}) = {parts[2]}\n"
        + ("WELL-DEFINED\n" if defined else "NOT-WELL-DEFINED\n")
    )


def bounds_output(cx: Complex) -> str:
    """The `bounds` report of a valid 2- or 3-component complex."""
    m = len(cx.clasps)
    upper = f"upper_C = {m} # clasp count of this complex"
    upper_b = f"upper_B = {m} # crossing change at each clasp"
    if cx.n == 2:
        lk = abs(cx.lk(1, 2))
        head = f"C = {lk} (exact)" if lk else "C in {0, 2}"
        exact = f"exact_C = {lk}" if lk else "exact_C in {0, 2}"
        return "\n".join([
            f"{head}; this complex has {m} {'clasp' if m == 1 else 'clasps'}",
            f"lower_C = {lk} # pairwise linking number",
            upper,
            f"{exact} # linking number determines the clasp number",
            f"lower_B = {lk} # sum of |lk| over pairs",
            upper_b,
        ]) + "\n"
    if cx.n != 3:
        raise ValueError(f"bound reports cover 2 or 3 components, got {cx.n}")
    lks = [cx.lk(1, 2), cx.lk(2, 3), cx.lk(3, 1)]
    sum_abs = sum(abs(v) for v in lks)
    if any(lks):
        lower, why = sum_abs, "sum of |lk| over pairs"
    else:
        lower, why = triple_lower_bound(sum(mu_parts(cx, 1, 2, 3))), "triple linking lower bound"
    lines = [f"C = {m} (exact)" if lower == m else f"{lower} <= C <= {m}",
             f"lower_C = {lower} # {why}", upper]
    if lower == m:
        lines.append(f"exact_C = {m} # lower and upper bounds coincide")
    lines += [f"lower_B = {sum_abs} # sum of |lk| over pairs", upper_b]
    return "\n".join(lines) + "\n"


def brn(n: int) -> Complex:
    """The n-fold generalized Borromean complex, as the paper draws it:
    w1 = x3^-n x2^n x3^n x2^-n, w2 = x1^n x1^-n, w3 = (x1 x1^-1)^n."""
    p = [f"p{m}" for m in range(1, n + 1)]
    q = [f"q{m}" for m in range(1, n + 1)]
    r = [f"r{m}" for m in range(1, n + 1)]
    s = [f"s{m}" for m in range(1, n + 1)]
    clasps = ([(c, 1, 2, 1) for c in p] + [(c, 1, 2, -1) for c in q]
              + [(c, 1, 3, 1) for c in r] + [(c, 1, 3, -1) for c in s])
    order3 = [x for pair in zip(r, s) for x in pair]
    return Complex(3, clasps, [s + p + r + q, p + q, order3])


def brn_text(n: int) -> str:
    """`gen-brn n` output: clasps in (a, b, appearance) order, then orders."""
    cx = brn(n)
    lines = [f"components {cx.n}"]
    lines += [f"clasp {c} {a} {b} {'+' if s == 1 else '-'}" for c, a, b, s in cx.clasps]
    lines += [" ".join(["order", str(k), *cx.orders[k - 1]]) for k in range(1, cx.n + 1)]
    return "\n".join(lines) + "\n"


def brn_bounds_output(n: int) -> str:
    """Closed form for Brn: mu = n^2, lower_C = 2*min{m : 3m^2 >= 4n^2}, upper_C = 4n."""
    lower, upper = triple_lower_bound(n * n), 4 * n
    lines = [f"C = {upper} (exact)" if lower == upper else f"{lower} <= C <= {upper}",
             f"lower_C = {lower} # triple linking lower bound",
             f"upper_C = {upper} # clasp count of this complex"]
    if lower == upper:
        lines.append(f"exact_C = {upper} # lower and upper bounds coincide")
    lines += ["lower_B = 0 # sum of |lk| over pairs",
              f"upper_B = {upper} # crossing change at each clasp"]
    return "\n".join(lines) + "\n"


def parse_complex_text(text: str) -> Complex:
    """Read a well-formed complex file (the self-check reads data/*.cc with it)."""
    n, clasps, orders = 0, [], {}
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "components":
            n = int(fields[1])
        elif fields[0] == "clasp":
            cid, a, b, sign = fields[1:]
            clasps.append((cid, int(a), int(b), 1 if sign == "+" else -1))
        elif fields[0] == "order":
            orders[int(fields[1])] = fields[2:]
    return Complex(n, clasps, [orders.get(k, []) for k in range(1, n + 1)])


# --- words and lattice curves ---------------------------------------------

def parse_word_text(text: str) -> list[tuple[int, int]]:
    """Read well-formed word text into (index, exponent) runs."""
    runs = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        for token in line.replace(".", " ").split():
            base, _, exp = token[1:].partition("^")
            runs.append((int(base), int(exp) if exp else 1))
    return runs


@dataclass(frozen=True)
class CurveFacts:
    """What `eij` and `curve` report for a word read with indices (i, j)."""

    eij: int
    length: int
    closed: bool
    simple: bool | None  # None for open curves
    area: int
    bbox: tuple[int, int, int, int]  # min_x, max_x, min_y, max_y

    def curve_line(self) -> str:
        if not self.closed:
            return f"length={self.length} open area={self.area}\n"
        shape = "simple" if self.simple else "nonsimple"
        return f"length={self.length} closed {shape} area={self.area}\n"


def curve_facts(runs, i: int, j: int) -> CurveFacts:
    """Walk the runs step by step: x_i moves right/left, x_j up/down."""
    steps = [(index, e) for index, e in runs if index == i or index == j]
    x = y = length = area = 0
    min_x = max_x = min_y = max_y = 0
    for index, e in steps:
        # A run is monotone, so the bounding box only grows at run ends.
        if index == i:
            x += e
        else:
            area += x * e
            y += e
        length += abs(e)
        min_x, max_x = min(min_x, x), max(max_x, x)
        min_y, max_y = min(min_y, y), max(max_y, y)
    closed = x == 0 and y == 0
    simple = None
    if closed:
        # Interior vertices (all but the last, which is the start again) distinct.
        x = y = 0
        visited = {(0, 0)}
        for index, e in steps:
            dx, dy = ((1 if e > 0 else -1), 0) if index == i else (0, (1 if e > 0 else -1))
            for _ in range(abs(e)):
                x += dx
                y += dy
                visited.add((x, y))
        # visited is the set of interior vertices, since the end is the start.
        simple = length == 0 or len(visited) == length
    return CurveFacts(eij_letters(runs, i, j), length, closed, simple, area,
                      (min_x, max_x, min_y, max_y))


def svg_problem(svg: str, facts: CurveFacts, grid: bool) -> str | None:
    """Structural check of a rendered curve; returns the first problem found."""
    min_x, max_x, min_y, max_y = facts.bbox
    width = (max_x - min_x + 2) * SVG_SCALE
    height = (max_y - min_y + 2) * SVG_SCALE
    if not svg.startswith("<?xml") or not svg.endswith("</svg>\n"):
        return "svg is not a complete document"
    if f'width="{width}" height="{height}"' not in svg:
        return f"svg size is not {width}x{height}"
    points = svg.partition(' points="')[2].partition('"')[0]
    n_points = len(points.split()) if points else 1
    if n_points != facts.length + 1:
        return f"svg polyline has {n_points} vertices, expected {facts.length + 1}"
    grid_lines = svg.count("<line ")
    expected = (max_x - min_x + 3) + (max_y - min_y + 3) if grid else 0
    if grid_lines != expected:
        return f"svg has {grid_lines} grid lines, expected {expected}"
    return None


# --- oracles -----------------------------------------------------------------

def oracle_rows(kind: str, limit: int) -> list[tuple[int, int, int, str]]:
    """Rows of `oracle polyomino --max-area A` or `oracle words --max-len L`.

    Polyomino rows cover every area 1..A.  Word rows cover every |area|
    reachable by a closed curve of length <= L, which by Harary-Harborth
    is every A with 2*ceil(2*sqrt(A)) <= L (row 0 has length 0).
    """
    if kind == "polyomino":
        areas = range(1, limit + 1)
    else:
        top = 0
        while min_perimeter(top + 1) <= limit:
            top += 1
        areas = range(0, top + 1)
    return [(a, min_perimeter(a), min_perimeter(a), "yes") for a in areas]


ORACLE_HEADER = ("parameter", "observed", "predicted", "agree")


def oracle_table(text: str) -> list[tuple[str, ...]]:
    """Whitespace-split rows of an oracle table, header first."""
    return [tuple(line.split()) for line in text.splitlines()]


def oracle_expected_table(kind: str, limit: int) -> list[tuple[str, ...]]:
    return [ORACLE_HEADER] + [tuple(str(v) for v in row) for row in oracle_rows(kind, limit)]
