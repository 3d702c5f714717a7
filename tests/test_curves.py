import copy
import itertools
import pickle
import random

import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clasplink import curves
from clasplink._record import QUOTE_CHARS
from clasplink.bounds import ceil_two_sqrt
from clasplink.curves import DOWN, LEFT, RIGHT, UP, LatticeCurve, build_curve
from clasplink.invariants import e_ij
from clasplink.words import ClaspWord, parse_word
from test_memory_budgets import comb_steps, traced

STAIRCASE = "x1 x2 x1 x2 x1^-2 x2^-2"

TWO_INDEX_ALPHABET = ((1, 1), (-1, 1), (2, 1), (-2, 1))  # x1, x1^-1, x2, x2^-1 as runs


def curve_of(vertices):
    """The curve through vertices that start at (0, 0) and move by unit
    cardinal steps."""
    return LatticeCurve(reference.codes_of(vertices))


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
        w = ClaspWord(
            (rng.randint(1, 3) * rng.choice((1, -1)), 1)
            for _ in range(rng.randint(0, 30))
        )
        curve = build_curve(w, 1, 2)
        assert reference.TupleCurve(curve.vertices).vertices == curve.vertices
        assert curve_of(curve.vertices) == LatticeCurve(curve.steps) == curve


def test_is_closed():
    assert build_curve(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2).is_closed()
    assert not build_curve(parse_word("x1 x2"), 1, 2).is_closed()


def test_closed_iff_signed_counts_vanish():
    rng = random.Random(7)
    for _ in range(2000):
        keys = [rng.randint(1, 3) * rng.choice((1, -1)) for _ in range(rng.randint(0, 16))]
        w = ClaspWord((key, 1) for key in keys)
        curve = build_curve(w, 1, 2)
        balanced = all(keys.count(i) == keys.count(-i) for i in (1, 2))
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
        w = ClaspWord(
            (rng.randint(1, 2) * rng.choice((1, -1)), 1)
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


def test_simple_closed_curves_enclose_integral_many_cells():
    """Exhaustive to length 12: for each simple closed curve the even-odd
    cell count equals |integral|, with the sign given by the traversal
    orientation (via the total turning)."""
    curves = closed_self_avoiding_curves(12)
    assert len(curves) > 2000
    for curve in curves:
        assert curve.is_simple()
        vertices = reference.vertices_of(curve.steps)
        cells = reference.enclosed_cell_count(vertices)
        integral = curve.line_integral_x_dy()
        if cells == 0:
            assert integral == 0
        else:
            turns = reference.quarter_turns(vertices)
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
    return rebased(reference.walk(steps), k)


def rectangle(a, b, k):
    steps = [(1, 0)] * a + [(0, 1)] * b + [(-1, 0)] * a + [(0, -1)] * b
    return rebased(reference.walk(steps), k)


open_walks = st.lists(st.sampled_from(reference.STEPS), max_size=40).map(reference.walk)
# out and back the same way: closed, and non-simple unless empty
retraced = st.lists(st.sampled_from(reference.STEPS), max_size=20).map(
    lambda steps: reference.walk(steps + [(-dx, -dy) for dx, dy in reversed(steps)])
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


@settings(max_examples=400)
@given(curve_vertices)
def test_columns_agree_with_the_tuple_curve(vertices):
    curve, tuple_curve = curve_of(vertices), reference.TupleCurve(vertices)
    assert curve.vertices == tuple_curve.vertices
    assert curve.length == tuple_curve.length
    assert curve.is_closed() == tuple_curve.is_closed()
    assert simplicity(curve) == simplicity(tuple_curve)
    assert curve.line_integral_x_dy() == tuple_curve.line_integral_x_dy()
    assert curve.reversed().vertices == tuple_curve.reversed().vertices
    assert curve == curve_of(tuple_curve.vertices)
    assert hash(curve) == hash(curve_of(tuple_curve.vertices))
    assert curve.reversed().reversed() == curve
    xs, ys = zip(*tuple_curve.vertices)
    assert curve.bounding_box() == (min(xs), max(xs), min(ys), max(ys))


@pytest.mark.parametrize(
    "vertices",
    [rectangle(40_000, 1, 0), rectangle(1, 40_000, 3), figure_eight(30_000, 3, 2, 1, 29_999),
     figure_eight(2, 1, 30_000, 3, 5)],
    ids=["wide", "tall", "wide-eight", "tall-eight"],
)
def test_long_thin_curves_agree_with_the_tuple_curve(vertices):
    # x * span + y here passes 2**30, past the one-digit ints sort fastest;
    # the tall eight meets its repeated point only past the first 4,096
    # vertices, which is_simple once probed before the rest
    curve, tuple_curve = curve_of(vertices), reference.TupleCurve(vertices)
    assert curve.is_simple() == tuple_curve.is_simple()
    assert curve.line_integral_x_dy() == tuple_curve.line_integral_x_dy()


@settings(max_examples=300)
@given(curve_vertices, curve_vertices)
def test_columns_compare_and_hash_as_the_tuple_curve(first, second):
    curves = curve_of(first), curve_of(second)
    references = reference.TupleCurve(first), reference.TupleCurve(second)
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


@settings(max_examples=300)
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


# --- is_simple: the bitmap and the sort fallback against the vertex set -----


def simple_by_vertex_set(steps):
    """Whether the closed curve of the steps meets no vertex twice before
    its end, by the reference's own vertices."""
    return reference.TupleCurve(reference.vertices_of(steps)).is_simple()


def closed(codes):
    """The step codes, then the steps back to x = 0 and y = 0."""
    x = codes.count(RIGHT) - codes.count(LEFT)
    y = codes.count(UP) - codes.count(DOWN)
    return codes + [LEFT if x > 0 else RIGHT] * abs(x) + [DOWN if y > 0 else UP] * abs(y)


step_codes = st.lists(st.sampled_from((RIGHT, LEFT, UP, DOWN)), max_size=30)
closed_walks = st.one_of(step_codes.map(closed), step_codes.map(closed).flatmap(st.permutations)).map(bytes)
# both ways through is_simple: the sort fallback (no box is small enough)
# and the bitmap (default)
PATHS = [0, curves._BOX_CELLS_PER_STEP]
SPLIT = curves._WINDOW + 10  # a straight run that segments() yields as two


@settings(max_examples=400)
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
    expected = simple_by_vertex_set(steps)
    for cells in PATHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curves, "_BOX_CELLS_PER_STEP", cells)
            assert curve.is_simple() == expected, cells


def test_is_simple_bitmap_finds_a_crossing_past_the_probe():
    steps = comb_steps(387, detour=200)
    curve = LatticeCurve(steps)
    assert curve.is_closed() and steps.index(bytes([UP, UP, LEFT])) > 4096
    simple, peak, _ = traced(curve.is_simple)
    assert not simple and not simple_by_vertex_set(steps)
    # under a mebibyte: the bitmap found it, not the sort
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "detour", [b"", bytes([DOWN, UP])], ids=["simple", "back-onto-the-stair"],
)
def test_is_simple_sorts_a_long_staircase(detour):
    # up the diagonal, then left and down; the detour revisits two points
    # about 4,200 steps in, past the 4,096 that is_simple once probed first
    m = 2100
    curve = LatticeCurve(bytes([RIGHT, UP]) * m + detour + bytes([LEFT]) * m + bytes([DOWN]) * m)
    box = (m + 1) ** 2
    assert curve.length > 4096 and box > curves._BOX_CELLS_PER_STEP * curve.length
    simple, peak, _ = traced(curve.is_simple)
    assert simple == simple_by_vertex_set(curve.steps) == (not detour)
    assert peak < box // 4  # the sort ran; the box was never allocated
