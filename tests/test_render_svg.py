"""The SVG writer against the whole-string render it replaced.

``reference.render_curve_svg`` builds every point string, the whole
polyline and then the whole document before it joins them, from the
vertices the reference walks from the curve's steps.  ``write_svg``
passes the points to its writer a straight segment at a time, from runs
found a window of ``_WINDOW`` steps at a time.  On every curve, with and
without grid lines, the pieces it writes, joined here, must be the same
text.
"""

import random
from unittest import mock

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from clasplink.curves import _WINDOW, LatticeCurve, write_svg


def render(curve: LatticeCurve, grid: bool = False) -> str:
    """The pieces ``write_svg`` writes, joined."""
    pieces: list[str] = []
    write_svg(curve, pieces.append, grid=grid)
    return "".join(pieces)


def expected(curve: LatticeCurve, grid: bool = False) -> str:
    """The reference's SVG of the curve of the same steps."""
    return reference.render_curve_svg(reference.vertices_of(curve.steps), grid=grid)


def walk(steps) -> LatticeCurve:
    """The curve of the given ``(dx, dy)`` unit steps."""
    return LatticeCurve(reference.codes_of(reference.walk(steps)))


def random_walk(vertex_count: int, seed: int) -> LatticeCurve:
    rng = random.Random(seed)
    return walk(rng.choice(reference.STEPS) for _ in range(vertex_count - 1))


def straight(*runs) -> LatticeCurve:
    """The walk of each ``(step, count)`` run in turn."""
    return walk(step for step, count in runs for _ in range(count))


RIGHT, LEFT, UP, DOWN = reference.STEPS


@pytest.mark.parametrize(
    "vertex_count",
    [1, 2, _WINDOW - 1, _WINDOW, _WINDOW + 1, 3 * _WINDOW + 17],
)
@pytest.mark.parametrize("grid", [False, True])
def test_render_matches_the_reference_at_chunk_edges(vertex_count, grid):
    # the segment search's window edges: a run that crosses one is split
    curve = random_walk(vertex_count, seed=vertex_count)
    assert len(curve.vertices) == vertex_count
    assert render(curve, grid=grid) == expected(curve, grid=grid)


SEGMENT_CASES = {
    "single-vertex": straight(),
    "unit-segments": straight((RIGHT, 1), (UP, 1), (LEFT, 1), (UP, 1), (RIGHT, 1), (DOWN, 1), (LEFT, 1), (DOWN, 1)),
    "zigzag": straight(*[(RIGHT, 1), (UP, 1)] * 40 + [(LEFT, 1), (DOWN, 1)] * 40),
    "long-right": straight((RIGHT, 3 * _WINDOW + 5)),
    "long-left": straight((LEFT, 3 * _WINDOW + 5)),
    "long-up": straight((UP, 3 * _WINDOW + 5)),
    "long-down": straight((DOWN, 3 * _WINDOW + 5)),
    "long-square": straight((RIGHT, 700), (UP, 700), (LEFT, 700), (DOWN, 700)),
    "long-square-backwards": straight((DOWN, 700), (LEFT, 700), (UP, 700), (RIGHT, 700)),
    # every side of the box is reached away from the origin
    "touches-every-side": straight(
        (LEFT, 3), (UP, 5), (RIGHT, 9), (DOWN, 2), (LEFT, 2), (DOWN, 7), (RIGHT, 4), (UP, 3), (LEFT, 11), (DOWN, 1)
    ),
    "reversals": straight((RIGHT, 5), (LEFT, 9), (RIGHT, 2), (UP, 6), (DOWN, 8), (UP, 1)),
}


@pytest.mark.parametrize("name", sorted(SEGMENT_CASES))
@pytest.mark.parametrize("grid", [False, True])
def test_render_matches_the_reference_at_segment_edges(name, grid):
    curve = SEGMENT_CASES[name]
    assert render(curve, grid=grid) == expected(curve, grid=grid)


def test_segment_cases_are_what_they_claim():
    curve = SEGMENT_CASES["touches-every-side"]
    xs = [x for x, _ in curve.vertices]
    ys = [y for _, y in curve.vertices]
    assert curve.bounding_box() == (min(xs), max(xs), min(ys), max(ys))
    assert min(xs) < 0 < max(xs) and min(ys) < 0 < max(ys)
    assert all(len(run) == 1 for run in SEGMENT_CASES["unit-segments"].segments())
    assert [len(run) for run in SEGMENT_CASES["long-up"].segments()] == [_WINDOW, _WINDOW, _WINDOW, 5]


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.sampled_from(reference.STEPS), st.integers(1, 6)), max_size=30),
    st.booleans(),
    st.integers(1, 8),
)
def test_render_matches_the_reference_on_random_walks(runs, grid, window):
    # a small window puts its edges anywhere along the walks
    curve = straight(*runs)
    with mock.patch("clasplink.curves._WINDOW", window):
        svg = render(curve, grid=grid)
    assert svg == expected(curve, grid=grid)
