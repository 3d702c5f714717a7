"""The SVG writer against the whole-string render it replaced.

``reference_render_curve_svg`` builds every point string, the whole
polyline and then the whole document before it joins them.  ``write_svg``
passes the points to its writer a straight segment at a time, from runs
found a window of ``_WINDOW`` steps at a time.  On every curve, with and
without grid lines, the pieces it writes, joined here, must be the same
text.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clasplink.curves import _WINDOW, DOWN, LEFT, RIGHT, SVG_SCALE, UP, LatticeCurve, write_svg

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def reference_render_curve_svg(curve: LatticeCurve, grid: bool = False) -> str:
    scale = SVG_SCALE
    xs = [x for x, _ in curve.vertices]
    ys = [y for _, y in curve.vertices]
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
            lines.append(
                f'  <line x1="{px[gx]}" y1="0" x2="{px[gx]}" y2="{height}" '
                'stroke="#cccccc" stroke-width="1"/>'
            )
        for gy in range(min_y - 1, max_y + 2):
            lines.append(
                f'  <line x1="0" y1="{py[gy]}" x2="{width}" y2="{py[gy]}" '
                'stroke="#cccccc" stroke-width="1"/>'
            )
    if len(curve.vertices) > 1:
        points = " ".join([f"{px[x]},{py[y]}" for x, y in curve.vertices])
        lines.append(
            f'  <polyline points="{points}" fill="none" stroke="#000000" stroke-width="2"/>'
        )
    lines.append(f'  <circle cx="{px[0]}" cy="{py[0]}" r="{scale // 8}" fill="#cc0000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render(curve: LatticeCurve, grid: bool = False) -> str:
    """The pieces ``write_svg`` writes, joined."""
    pieces: list[str] = []
    write_svg(curve, pieces.append, grid=grid)
    return "".join(pieces)


CODES = {(1, 0): RIGHT, (-1, 0): LEFT, (0, 1): UP, (0, -1): DOWN}


def walk(steps) -> LatticeCurve:
    """The curve of the given ``(dx, dy)`` unit steps."""
    return LatticeCurve(bytes([CODES[step] for step in steps]))


def random_walk(vertex_count: int, seed: int) -> LatticeCurve:
    rng = random.Random(seed)
    return walk(rng.choice(STEPS) for _ in range(vertex_count - 1))


def straight(*runs) -> LatticeCurve:
    """The walk of each ``(step, count)`` run in turn."""
    return walk(step for step, count in runs for _ in range(count))


RIGHT, LEFT, UP, DOWN = STEPS


@pytest.mark.parametrize(
    "vertex_count",
    [1, 2, _WINDOW - 1, _WINDOW, _WINDOW + 1, 3 * _WINDOW + 17],
)
@pytest.mark.parametrize("grid", [False, True])
def test_render_matches_the_reference_at_chunk_edges(vertex_count, grid):
    # the segment search's window edges: a run that crosses one is split
    curve = random_walk(vertex_count, seed=vertex_count)
    assert len(curve.vertices) == vertex_count
    assert render(curve, grid=grid) == reference_render_curve_svg(curve, grid=grid)


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
    assert render(curve, grid=grid) == reference_render_curve_svg(curve, grid=grid)


def test_segment_cases_are_what_they_claim():
    curve = SEGMENT_CASES["touches-every-side"]
    xs = [x for x, _ in curve.vertices]
    ys = [y for _, y in curve.vertices]
    assert curve.bounding_box() == (min(xs), max(xs), min(ys), max(ys))
    assert min(xs) < 0 < max(xs) and min(ys) < 0 < max(ys)
    assert all(len(run) == 1 for run in SEGMENT_CASES["unit-segments"].segments())
    assert [len(run) for run in SEGMENT_CASES["long-up"].segments()] == [_WINDOW, _WINDOW, _WINDOW, 5]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.sampled_from(STEPS), st.integers(1, 6)), max_size=30),
    st.booleans(),
    st.integers(1, 8),
)
def test_render_matches_the_reference_on_random_walks(runs, grid, window):
    # a small window puts its edges anywhere along the walks
    curve = straight(*runs)
    with mock.patch("clasplink.curves._WINDOW", window):
        svg = render(curve, grid=grid)
    assert svg == reference_render_curve_svg(curve, grid=grid)
