import copy
import itertools
import pickle
import random
import tracemalloc
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import eq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clasplink import curves
from clasplink._record import QUOTE_CHARS
from clasplink.bounds import ceil_two_sqrt
from clasplink.curves import DOWN, LEFT, RIGHT, UP, LatticeCurve, build_curve
from clasplink.invariants import e_ij
from clasplink.words import ClaspWord, SignedLetter, parse_word

STAIRCASE = "x1 x2 x1 x2 x1^-2 x2^-2"

L1P = SignedLetter(1, 1)
L1N = SignedLetter(1, -1)
L2P = SignedLetter(2, 1)
L2N = SignedLetter(2, -1)
TWO_INDEX_ALPHABET = (L1P, L1N, L2P, L2N)
CODES = {(1, 0): RIGHT, (-1, 0): LEFT, (0, 1): UP, (0, -1): DOWN}


def curve_of(vertices):
    """The curve through vertices that start at (0, 0) and move by unit
    cardinal steps."""
    return LatticeCurve(bytes([CODES[x1 - x0, y1 - y0] for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])]))


def two_index_words(max_len):
    for length in range(max_len + 1):
        for combo in itertools.product(TWO_INDEX_ALPHABET, repeat=length):
            yield ClaspWord(combo)


def closed_self_avoiding_curves(max_len):
    """Every closed curve from the origin whose interior vertices are all
    distinct, up to the length cap.  Includes the trivial single-vertex
    curve and both traversal directions of each polygon."""
    found = [LatticeCurve(b"")]
    path = [(0, 0)]
    visited = {(0, 0)}

    def dfs():
        x, y = path[-1]
        steps = len(path) - 1
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb == (0, 0):
                if steps + 1 <= max_len:
                    found.append(curve_of(path + [(0, 0)]))
            elif nb not in visited and abs(nb[0]) + abs(nb[1]) <= max_len - steps - 1:
                visited.add(nb)
                path.append(nb)
                dfs()
                path.pop()
                visited.discard(nb)

    dfs()
    return found


def enclosed_cell_count(curve):
    """Even-odd fill: cells whose rightward ray crosses an odd number of
    vertical curve edges.  Independent of the line integral."""
    vertical = [
        (x0, min(y0, y1))
        for (x0, y0), (x1, y1) in zip(curve.vertices, curve.vertices[1:])
        if x0 == x1
    ]
    xs = [x for x, _ in curve.vertices]
    ys = [y for _, y in curve.vertices]
    count = 0
    for cx in range(min(xs), max(xs)):
        for cy in range(min(ys), max(ys)):
            crossings = sum(1 for ex, ey in vertical if ey == cy and ex > cx)
            if crossings % 2 == 1:
                count += 1
    return count


def quarter_turns(curve):
    """Sum of signed turns along a closed curve; +4 means counterclockwise."""
    dirs = [
        (x1 - x0, y1 - y0)
        for (x0, y0), (x1, y1) in zip(curve.vertices, curve.vertices[1:])
    ]
    return sum(
        dx0 * dy1 - dy0 * dx1
        for (dx0, dy0), (dx1, dy1) in zip(dirs, dirs[1:] + dirs[:1])
    )


def test_build_curve_unit_square():
    curve = build_curve(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2)
    assert curve.vertices == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))


def test_build_curve_staircase():
    curve = build_curve(parse_word(STAIRCASE), 1, 2)
    assert curve.vertices == (
        (0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), (0, 0),
    )
    assert curve.length == 8
    assert curve.is_closed()
    assert curve.is_simple()
    assert curve.line_integral_x_dy() == 3


def test_build_curve_skips_other_indices():
    curve = build_curve(parse_word("x3 x3^-1"), 1, 2)
    assert curve.vertices == ((0, 0),)
    assert curve.length == 0
    assert curve.line_integral_x_dy() == 0
    mixed = build_curve(parse_word("x3 x1 x3^-1 x2"), 1, 2)
    assert mixed.vertices == ((0, 0), (1, 0), (1, 1))


def test_build_curve_rejects_equal_indices():
    with pytest.raises(ValueError):
        build_curve(parse_word("x1"), 3, 3)
    # the equal-index message comes first, even for indices below 1
    with pytest.raises(ValueError, match="^curve construction requires two distinct indices$"):
        build_curve(parse_word("x1"), 0, 0)


@pytest.mark.parametrize(
    "i, j, bad",
    [(0, 2, 0), (2, -1, -1), (True, 2, True), (1, 2.0, 2.0), ("1", 2, "1"), pytest.param(-(10**100), 1, None, id="long")],
)
def test_build_curve_refuses_an_index_that_is_not_a_letter_index(i, j, bad):
    with pytest.raises(ValueError) as caught:
        build_curve(parse_word("x1 x2 x2^-1"), i, j)
    quoted = repr(bad) if bad is not None else "-1" + "0" * (QUOTE_CHARS - 2) + "..."
    assert str(caught.value) == f"letter index must be a positive integer, got {quoted}"


def test_curve_validation():
    # the steps are checked, not converted: refusals are tested below
    assert LatticeCurve(b"").vertices == ((0, 0),)
    assert LatticeCurve(bytes([RIGHT, UP, LEFT, DOWN])).vertices == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))


def test_build_curve_output_passes_the_public_check():
    # the vertices start at (0, 0) and move by unit cardinal steps
    rng = random.Random(11)
    for _ in range(500):
        w = ClaspWord.from_pairs(
            (rng.randint(1, 3), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 30))
        )
        curve = build_curve(w, 1, 2)
        assert ReferenceLatticeCurve(curve.vertices).vertices == curve.vertices
        assert curve_of(curve.vertices) == LatticeCurve(curve.steps) == curve


def test_is_closed():
    assert build_curve(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2).is_closed()
    assert not build_curve(parse_word("x1 x2"), 1, 2).is_closed()


def test_closed_iff_signed_counts_vanish():
    rng = random.Random(7)
    for _ in range(2000):
        w = ClaspWord.from_pairs(
            (rng.randint(1, 3), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 16))
        )
        curve = build_curve(w, 1, 2)
        balanced = all(sum(letter.sign for letter in w if letter.index == i) == 0 for i in (1, 2))
        assert curve.is_closed() == balanced


def test_is_simple():
    assert build_curve(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2).is_simple()
    revisits_origin = build_curve(parse_word("x1 x1^-1 x2 x2^-1"), 1, 2)
    assert revisits_origin.is_closed()
    assert not revisits_origin.is_simple()
    double_loop = build_curve(
        parse_word("x1 x2 x1^-1 x2^-1 x1^-1 x2 x1 x2^-1"), 1, 2
    )
    assert double_loop.is_closed()
    assert not double_loop.is_simple()


def test_is_simple_requires_closed():
    with pytest.raises(ValueError):
        build_curve(parse_word("x1 x2"), 1, 2).is_simple()


def test_line_integral_examples():
    assert build_curve(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2).line_integral_x_dy() == 1
    assert LatticeCurve(b"").line_integral_x_dy() == 0
    # clockwise unit square
    assert build_curve(parse_word("x2 x1 x2^-1 x1^-1"), 1, 2).line_integral_x_dy() == -1


def test_reversal_flips_integral_and_is_involutive():
    rng = random.Random(13)
    for _ in range(500):
        w = ClaspWord.from_pairs(
            (rng.randint(1, 2), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 14))
        )
        curve = build_curve(w, 1, 2)
        back = curve.reversed()
        assert back.reversed() == curve
        if curve.is_closed():
            # translation-invariant only when the curve closes up
            assert back.is_closed()
            assert back.line_integral_x_dy() == -curve.line_integral_x_dy()


def test_reversal_of_trivial_curve():
    point = LatticeCurve(b"")
    assert point.reversed() == point


def test_integral_matches_pair_count_exhaustively():
    """Every word over two letter indices up to length 8: the signed
    before-count equals the curve integral."""
    for w in two_index_words(8):
        assert e_ij(w, 1, 2) == build_curve(w, 1, 2).line_integral_x_dy()


def test_integral_matches_pair_count_random_three_index():
    rng = random.Random(20260810)
    for _ in range(10_000):
        w = ClaspWord.from_pairs(
            (rng.randint(1, 3), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 30))
        )
        i, j = rng.sample((1, 2, 3), 2)
        assert e_ij(w, i, j) == build_curve(w, i, j).line_integral_x_dy()


def test_simple_closed_curves_enclose_integral_many_cells():
    """Exhaustive to length 12: for each simple closed curve the even-odd
    cell count equals |integral|, with the sign given by the traversal
    orientation (via the total turning)."""
    curves = closed_self_avoiding_curves(12)
    assert len(curves) > 2000
    for curve in curves:
        assert curve.is_simple()
        cells = enclosed_cell_count(curve)
        integral = curve.line_integral_x_dy()
        if cells == 0:
            assert integral == 0
        else:
            turns = quarter_turns(curve)
            assert turns in (4, -4)
            assert integral == (cells if turns == 4 else -cells)


def test_simple_curve_counts_agree_between_sweeps():
    """The word sweep filtered to simple closed curves matches the
    self-avoiding enumeration."""
    max_len = 8
    from_words = 0
    for w in two_index_words(max_len):
        curve = build_curve(w, 1, 2)
        if curve.is_closed() and curve.is_simple():
            from_words += 1
    assert from_words == len(closed_self_avoiding_curves(max_len))


def test_closed_curve_length_bound_exhaustive():
    """Every closed curve of length <= 8 has length at least
    2*ceil(2*sqrt(|integral|)); the oracle sweep pushes this to 12."""
    for w in two_index_words(8):
        curve = build_curve(w, 1, 2)
        if curve.is_closed():
            bound = 2 * ceil_two_sqrt(abs(curve.line_integral_x_dy()))
            assert curve.length >= bound


# --- the step-coded curve against the tuple-stored one it replaced ----------


@dataclass(frozen=True)
class ReferenceLatticeCurve:
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
        if not self.is_closed():
            raise ValueError("simplicity is only defined for closed curves")
        interior = len(self.vertices) - 1
        return len(set(islice(self.vertices, interior))) == interior

    def line_integral_x_dy(self) -> int:
        total = 0
        for (x0, y0), (_, y1) in zip(self.vertices, islice(self.vertices, 1, None)):
            total += x0 * (y1 - y0)
        return total

    def reversed(self) -> "ReferenceLatticeCurve":
        xe, ye = self.vertices[-1]
        return ReferenceLatticeCurve(tuple((x - xe, y - ye) for x, y in reversed(self.vertices)))


STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def walk(steps):
    x = y = 0
    vertices = [(0, 0)]
    for dx, dy in steps:
        x += dx
        y += dy
        vertices.append((x, y))
    return tuple(vertices)


def rebased(loop, k):
    """A closed loop's vertices started at its k-th vertex, moved to (0, 0)."""
    k %= len(loop) - 1
    x0, y0 = loop[k]
    cycle = loop[k:-1] + loop[:k + 1]
    return tuple((x - x0, y - y0) for x, y in cycle)


def figure_eight(a, c, d, e, k):
    """A closed curve whose interior meets one point, (a, 0), twice: a
    c-by-d loop hangs below it and an a-by-e loop closes above it."""
    steps = ([(1, 0)] * a + [(0, -1)] * d + [(1, 0)] * c + [(0, 1)] * d + [(-1, 0)] * c
             + [(0, 1)] * e + [(-1, 0)] * a + [(0, -1)] * e)
    return rebased(walk(steps), k)


def rectangle(a, b, k):
    steps = [(1, 0)] * a + [(0, 1)] * b + [(-1, 0)] * a + [(0, -1)] * b
    return rebased(walk(steps), k)


open_walks = st.lists(st.sampled_from(STEPS), max_size=40).map(walk)
# out and back the same way: closed, and non-simple unless empty
retraced = st.lists(st.sampled_from(STEPS), max_size=20).map(
    lambda steps: walk(steps + [(-dx, -dy) for dx, dy in reversed(steps)])
)
sides = st.integers(1, 5)
rectangles = st.builds(rectangle, sides, sides, st.integers(0, 40))
figure_eights = st.builds(figure_eight, sides, sides, sides, sides, st.integers(0, 80))
curve_vertices = st.one_of(st.just(((0, 0),)), open_walks, retraced, rectangles, figure_eights)


def test_figure_eights_revisit_exactly_one_interior_vertex():
    for a, c, d, e in itertools.product((1, 2, 3), repeat=4):
        for k in range(0, 40, 7):
            vertices = figure_eight(a, c, d, e, k)
            assert vertices[0] == vertices[-1] == (0, 0)
            interior = vertices[:-1]
            assert len(interior) - len(set(interior)) == 1


def simplicity(curve):
    try:
        return curve.is_simple()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(curve_vertices)
def test_columns_agree_with_the_tuple_curve(vertices):
    curve, reference = curve_of(vertices), ReferenceLatticeCurve(vertices)
    assert curve.vertices == reference.vertices
    assert curve.length == reference.length
    assert curve.is_closed() == reference.is_closed()
    assert simplicity(curve) == simplicity(reference)
    assert curve.line_integral_x_dy() == reference.line_integral_x_dy()
    assert curve.reversed().vertices == reference.reversed().vertices
    assert curve == curve_of(reference.vertices)
    assert hash(curve) == hash(curve_of(reference.vertices))
    assert curve.reversed().reversed() == curve
    xs, ys = zip(*reference.vertices)
    assert curve.bounding_box() == (min(xs), max(xs), min(ys), max(ys))


@pytest.mark.parametrize(
    "vertices",
    [rectangle(40_000, 1, 0), rectangle(1, 40_000, 3), figure_eight(30_000, 3, 2, 1, 29_999),
     figure_eight(2, 1, 30_000, 3, 5)],
    ids=["wide", "tall", "wide-eight", "tall-eight"],
)
def test_long_thin_curves_agree_with_the_tuple_curve(vertices):
    # x * span + y here passes 2**30, past the one-digit ints sort fastest;
    # the tall eight meets its repeated point only past is_simple's probe
    curve, reference = curve_of(vertices), ReferenceLatticeCurve(vertices)
    assert curve.is_simple() == reference.is_simple()
    assert curve.line_integral_x_dy() == reference.line_integral_x_dy()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(curve_vertices, curve_vertices)
def test_columns_compare_and_hash_as_the_tuple_curve(first, second):
    curves = curve_of(first), curve_of(second)
    references = ReferenceLatticeCurve(first), ReferenceLatticeCurve(second)
    assert (curves[0] == curves[1]) == (references[0] == references[1])
    assert (curves[0] != curves[1]) == (references[0] != references[1])
    if curves[0] == curves[1]:
        assert hash(curves[0]) == hash(curves[1])
    assert len(set(curves)) == len(set(references))


@pytest.mark.parametrize(
    "steps",
    [b"\x04", bytes([RIGHT, UP, LEFT, DOWN, 255]), bytes(range(256)), "", "0123", bytearray(b"\x00"),
     memoryview(b"\x00"), [RIGHT, UP], ((0, 0), (1, 0)), None],
    ids=["code-4", "code-255-last", "every-byte", "empty-str", "str", "bytearray", "memoryview", "list",
         "vertices", "none"],
)
def test_curve_refuses_all_but_bytes_of_step_codes(steps):
    with pytest.raises(ValueError, match="^steps must be a bytes object of step codes 0 to 3$"):
        LatticeCurve(steps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.binary(max_size=40))
def test_curve_takes_exactly_the_bytes_of_step_codes(steps):
    if all(code <= DOWN for code in steps):
        assert LatticeCurve(steps).steps is steps
    else:
        with pytest.raises(ValueError):
            LatticeCurve(steps)


def test_curve_is_immutable_and_not_equal_to_other_types():
    curve = build_curve(parse_word("x1 x2"), 1, 2)
    with pytest.raises(AttributeError):
        curve.steps = b""
    assert curve != curve.vertices
    assert curve != curve.steps
    assert repr(curve) == "LatticeCurve(steps=b'\\x00\\x02')"
    assert eval(repr(curve)) == curve
    assert copy.deepcopy(curve) == pickle.loads(pickle.dumps(curve)) == curve


def test_curve_refuses_deletion():
    curve = build_curve(parse_word("x1 x2"), 1, 2)
    with pytest.raises(AttributeError):
        del curve.steps
    with pytest.raises(AttributeError):
        delattr(curve, "steps")
    assert curve.steps == bytes([RIGHT, UP])


def test_equal_steps_give_equal_curves_and_hashes():
    steps = bytes([RIGHT, UP, LEFT, DOWN])
    first, second = LatticeCurve(steps), LatticeCurve(bytes(bytearray(steps)))
    assert first.steps is not second.steps
    assert first == second and hash(first) == hash(second)
    assert len({first, second, build_curve(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2)}) == 1
    assert first != LatticeCurve(steps[:-1])


# --- memory -----------------------------------------------------------------


def comb_word(teeth: int, height: int) -> ClaspWord:
    """A closed simple comb read with (i, j) = (1, 2): teeth up and down
    along x, closed by a base line one step below."""
    runs = []
    for _ in range(teeth):
        runs += [(2, 1)] * height + [(1, 1)] + [(2, -1)] * height + [(1, 1)]
    runs += [(2, -1)] + [(1, -1)] * (2 * teeth) + [(2, 1)]
    return ClaspWord.from_pairs(runs)


COMB = comb_word(teeth=250, height=200)  # about 1e5 vertices, coordinates past 256


def test_curve_holds_one_byte_a_step():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve = build_curve(COMB, 1, 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert curve.length > 100_000
    # one code byte a step, and the bytes and curve objects' headers
    assert held <= 2 * curve.length


def test_is_simple_peak_stays_near_its_sorted_codes():
    curve = build_curve(COMB, 1, 2)
    tracemalloc.start()
    try:
        simple = curve.is_simple()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert simple
    # the bitmap holds one byte a cell of the box, about one a step here;
    # the sort it replaced held one int and one list slot per interior
    # vertex, plus its merge space, and a set of the points over 60 bytes
    assert peak <= 50 * (curve.length + 1)


# --- is_simple: the bitmap and the fallback against the sort ----------------


def reference_is_simple(curve):
    """The sort-based ``is_simple`` that the bitmap replaced: each interior
    vertex coded as ``x * span + y``, a repeat shown by equal sorted
    neighbours, the first ``_PROBE`` vertices checked first."""
    if not curve.is_closed():
        raise ValueError("simplicity is only defined for closed curves")
    span = 2 * len(curve.steps) + 1
    code_delta = [span, -span, 1, -1]  # of each step code
    interior = len(curve.steps)

    def repeats(count):
        codes = sorted(islice(accumulate(map(code_delta.__getitem__, curve.steps), initial=0), count))
        return any(map(eq, codes, islice(codes, 1, None)))

    return not (repeats(min(interior, curves._PROBE)) or repeats(interior))


def closed(codes):
    """The step codes, then the steps back to x = 0 and y = 0."""
    x = codes.count(RIGHT) - codes.count(LEFT)
    y = codes.count(UP) - codes.count(DOWN)
    return codes + [LEFT if x > 0 else RIGHT] * abs(x) + [DOWN if y > 0 else UP] * abs(y)


step_codes = st.lists(st.sampled_from((RIGHT, LEFT, UP, DOWN)), max_size=30)
closed_walks = st.one_of(step_codes.map(closed), step_codes.map(closed).flatmap(st.permutations)).map(bytes)
# every way through is_simple on a small walk: the probe alone (default),
# the bitmap (probe 0 or 1) and the sort fallback (no box is small enough)
PATHS = [(probe, cells) for probe in (0, 1, curves._PROBE) for cells in (0, curves._BOX_CELLS_PER_STEP)]
SPLIT = curves._WINDOW + 10  # a straight run that segments() yields as two


@settings(max_examples=400, deadline=None, derandomize=True)
@given(closed_walks)
@example(b"")
@example(bytes([RIGHT, LEFT]))  # a backtrack of length 2 is simple
@example(bytes([RIGHT, UP, LEFT, DOWN, LEFT, DOWN, RIGHT, UP]))  # meets (0, 0) in mid-walk
@example(bytes([DOWN, LEFT, LEFT, UP, RIGHT, RIGHT]))  # a run left ends on cell 0
@example(bytes([LEFT, LEFT, DOWN, RIGHT, RIGHT, UP]))  # a run down ends on cell 0
@example(bytes([UP, RIGHT, DOWN, LEFT]))  # the closing run ends on cell 0
@example(bytes([UP] + [RIGHT] * SPLIT + [DOWN] * 2 + [LEFT] * SPLIT + [UP]))
@example(bytes([UP] + [RIGHT] * SPLIT + [DOWN] * 2 + [LEFT] * 2 + [UP] * 2  # back onto the split run
               + [DOWN] * 2 + [LEFT] * (SPLIT - 2) + [UP]))
def test_is_simple_agrees_with_the_sort_on_every_path(steps):
    curve = LatticeCurve(steps)
    expected = reference_is_simple(curve)
    for probe, cells in PATHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curves, "_PROBE", probe)
            patch.setattr(curves, "_BOX_CELLS_PER_STEP", cells)
            assert curve.is_simple() == expected, (probe, cells)


def comb_steps(teeth, detour=None):
    """The comb of ``curve simple-400000`` as step codes, teeth in rising
    order: tooth k goes up column 2k and down column 2k + 1, and a base line
    one step below closes it.  With ``detour = k`` the base line crosses
    tooth k on the way back: up two, left one and down two."""
    parts = []
    for height in range(teeth // 2 + 1, teeth // 2 + 1 + teeth):
        parts += [bytes([UP]) * height, bytes([RIGHT]), bytes([DOWN]) * height, bytes([RIGHT])]
    parts.append(bytes([DOWN]))
    if detour is None:
        parts.append(bytes([LEFT]) * (2 * teeth))
    else:
        parts += [bytes([LEFT]) * (2 * (teeth - detour) - 1), bytes([UP, UP, LEFT, DOWN, DOWN]),
                  bytes([LEFT]) * (2 * detour)]
    parts.append(bytes([UP]))
    return b"".join(parts)


def traced_is_simple(curve):
    tracemalloc.start()
    try:
        simple = curve.is_simple()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return simple, peak


def test_is_simple_maps_the_benchmark_comb_in_under_a_mebibyte():
    curve = LatticeCurve(comb_steps(387))
    assert curve.length == 301_088
    simple, peak = traced_is_simple(curve)
    assert simple
    # a 775-by-582 box, 1.5 cells a step; the sort peaked at 11.7 MiB
    assert peak < 1 << 20


def test_is_simple_bitmap_finds_a_crossing_past_the_probe():
    steps = comb_steps(387, detour=200)
    curve = LatticeCurve(steps)
    assert curve.is_closed() and steps.index(bytes([UP, UP, LEFT])) > curves._PROBE
    simple, peak = traced_is_simple(curve)
    assert not simple and not reference_is_simple(curve)
    # under a mebibyte: the bitmap found it, not the sort
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "detour", [b"", bytes([DOWN, UP])], ids=["simple", "back-onto-the-stair"],
)
def test_is_simple_sorts_a_long_staircase(detour):
    # up the diagonal, then left and down; the detour revisits two points
    # about 4,200 steps in, past the probe
    m = 2100
    curve = LatticeCurve(bytes([RIGHT, UP]) * m + detour + bytes([LEFT]) * m + bytes([DOWN]) * m)
    box = (m + 1) ** 2
    assert curve.length > curves._PROBE and box > curves._BOX_CELLS_PER_STEP * curve.length
    simple, peak = traced_is_simple(curve)
    assert simple == reference_is_simple(curve) == (not detour)
    assert peak < box // 4  # the sort ran; the box was never allocated
