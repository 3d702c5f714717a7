"""The SVG render against the whole-string render it replaced.

``reference_render_curve_svg`` builds every point string, the whole
polyline and then the whole document before it joins them.
``render_curve_svg`` formats the points a chunk of vertices at a time and
joins the document once.  On every curve, with and without grid lines, the
two must give the same text.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clasplink.cli import _POINTS_CHUNK, SVG_SCALE, render_curve_svg
from clasplink.curves import LatticeCurve

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def reference_render_curve_svg(curve: LatticeCurve, grid: bool = False, scale: int = SVG_SCALE) -> str:
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


def walk(steps) -> LatticeCurve:
    x = y = 0
    vertices = [(0, 0)]
    for dx, dy in steps:
        x += dx
        y += dy
        vertices.append((x, y))
    return LatticeCurve(tuple(vertices))


def random_walk(vertex_count: int, seed: int) -> LatticeCurve:
    rng = random.Random(seed)
    return walk(rng.choice(STEPS) for _ in range(vertex_count - 1))


@pytest.mark.parametrize(
    "vertex_count",
    [1, 2, _POINTS_CHUNK - 1, _POINTS_CHUNK, _POINTS_CHUNK + 1, 3 * _POINTS_CHUNK + 17],
)
@pytest.mark.parametrize("grid", [False, True])
def test_render_matches_the_reference_at_chunk_edges(vertex_count, grid):
    curve = random_walk(vertex_count, seed=vertex_count)
    assert len(curve.vertices) == vertex_count
    assert render_curve_svg(curve, grid=grid) == reference_render_curve_svg(curve, grid=grid)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(STEPS), max_size=60),
    st.booleans(),
    st.integers(1, 100),
    st.integers(1, 8),
)
def test_render_matches_the_reference_on_random_walks(steps, grid, scale, chunk):
    # a small chunk puts the walks' chunk edges anywhere along them
    curve = walk(steps)
    with mock.patch("clasplink.cli._POINTS_CHUNK", chunk):
        svg = render_curve_svg(curve, grid=grid, scale=scale)
    assert svg == reference_render_curve_svg(curve, grid=grid, scale=scale)


@pytest.mark.parametrize("grid", [False, True])
def test_render_peak_stays_within_three_svgs(grid):
    curve = random_walk(100_000, seed=5)
    tracemalloc.start()
    try:
        svg = render_curve_svg(curve, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(svg)
