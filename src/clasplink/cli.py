"""Command-line surface.

Subcommands:

    eij WORD I J [--method sum|integral|both]
    curve WORD I J --out FILE.svg [--grid]
    mu FILE I J K
    lk FILE I J
    words FILE
    bounds FILE
    validate FILE
    gen-brn N
    oracle polyomino [--max-area N] [--cap N]
    oracle words [--max-len N] [--cap N]

WORD and FILE may be "-" to read standard input, so ``gen-brn 3`` pipes
straight into ``mu`` or ``bounds``.  Each ``oracle`` kind refuses the
other's bound.  Exit codes: 0 success, 1 disagreement (an oracle row, or
the two ``eij`` methods), 2 input error, 3 I/O error.  Output is
deterministic byte for byte.

A subcommand imports only the modules it runs, when it runs: ``oracle``
loads no complex or curve code, ``eij`` and ``curve`` no complexes, bounds
or oracles (``eij --method sum`` no curves either, and ``eij --method
integral`` no invariants), and the complex subcommands no curves or
oracles.  An error line quotes at most ``QUOTE_CHARS`` characters of an
argument, however long it is.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .complexes import CComplex
    from .curves import LatticeCurve

SVG_SCALE = 40  # pixels per lattice unit
_PIECE_SEGMENTS = 1024  # polyline segments joined per piece


def render_curve_svg(curve: LatticeCurve, grid: bool = False) -> str:
    """Render the curve as an SVG polyline with a start-point marker.

    One unit of margin surrounds the bounding box; the y axis is flipped
    so upward steps render upward.  Each coordinate in the box is formatted
    once.  The polyline is written a straight segment at a time: the points
    of a horizontal segment are one ``str.join`` over a slice of the column
    strings, and those of a vertical one over a slice of the row strings.
    The slice runs backwards (step -1) for a segment that runs left or
    down; the margin keeps every index at least 1, so a backward slice
    never ends at -1.  The segments are joined ``_PIECE_SEGMENTS`` at a
    time, so the only whole-curve text built is the returned SVG and the
    pieces it is joined from.
    """
    from .curves import UP

    min_x, max_x, min_y, max_y = curve.bounding_box()
    width = (max_x - min_x + 2) * SVG_SCALE
    height = (max_y - min_y + 2) * SVG_SCALE

    # px[x - min_x + 1] and py[y - min_y + 1] are the pixel strings of
    # column x and row y, for the box and its one-unit margin
    px = [str(k * SVG_SCALE) for k in range(max_x - min_x + 3)]
    py = [str(k * SVG_SCALE) for k in range(max_y - min_y + 2, -1, -1)]
    x0, y0 = 1 - min_x, 1 - min_y  # the start vertex

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
    ]
    if grid:
        for sx in px:
            parts.append(f'  <line x1="{sx}" y1="0" x2="{sx}" y2="{height}" stroke="#cccccc" stroke-width="1"/>\n')
        for sy in py:
            parts.append(f'  <line x1="0" y1="{sy}" x2="{width}" y2="{sy}" stroke="#cccccc" stroke-width="1"/>\n')
    if curve.length:
        # A point is " X,Y".  A horizontal segment on row y joins its " X"
        # with rows[y] and ends with it; a vertical one on column x starts
        # with cols[x] and joins its "Y" with it.
        rows = ["," + sy for sy in py]
        cols = [" " + sx + "," for sx in px]
        xs = [" " + sx for sx in px]
        x, y = x0, y0
        parts.append(f'  <polyline points="{px[x]},{py[y]}')
        piece: list[str] = []
        add = piece.append
        for run in curve.segments():
            code = run[0]
            s = -1 if code & 1 else 1  # LEFT and DOWN are the odd codes
            if code < UP:
                end = x + s * len(run)
                add(rows[y].join(xs[x + s : end + s : s]) + rows[y])
                x = end
            else:
                end = y + s * len(run)
                add(cols[x] + cols[x].join(py[y + s : end + s : s]))
                y = end
            if len(piece) == _PIECE_SEGMENTS:
                parts.append("".join(piece))
                piece.clear()
        parts.append("".join(piece))
        parts.append('" fill="none" stroke="#000000" stroke-width="2"/>\n')
    parts.append(f'  <circle cx="{px[x0]}" cy="{py[y0]}" r="{SVG_SCALE // 8}" fill="#cc0000"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _read_text(source: str) -> str:
    return sys.stdin.read() if source == "-" else source


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_valid_complex(path: str) -> CComplex | None:
    from .complexes import parse_complex, validate

    F = parse_complex(_read_file(path))
    violations = validate(F)
    if violations:
        for v in violations:
            print(f"error: {v}", file=sys.stderr)
        return None
    return F


def cmd_eij(args: argparse.Namespace) -> int:
    from .words import parse_word

    w = parse_word(_read_text(args.word))
    by_sum = by_integral = None
    if args.method != "integral":
        from .invariants import e_ij

        by_sum = e_ij(w, args.i, args.j)
    if args.method != "sum":
        from .curves import build_curve

        by_integral = build_curve(w, args.i, args.j).line_integral_x_dy()
    if args.method == "both" and by_sum != by_integral:
        print(
            f"error: double sum gave {by_sum} but the line integral gave {by_integral}",
            file=sys.stderr,
        )
        return 1
    print(by_sum if by_integral is None else by_integral)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    from .curves import build_curve
    from .words import parse_word

    # neither the word nor the SVG text is bound: each is freed once used
    curve = build_curve(parse_word(_read_text(args.word)), args.i, args.j)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_curve_svg(curve, grid=args.grid))
    area = curve.line_integral_x_dy()
    if curve.is_closed():
        shape = "simple" if curve.is_simple() else "nonsimple"
        print(f"length={curve.length} closed {shape} area={area}")
    else:
        print(f"length={curve.length} open area={area}")
    return 0


def cmd_mu(args: argparse.Namespace) -> int:
    from .invariants import triple_linking

    F = _load_valid_complex(args.file)
    if F is None:
        return 2
    result = triple_linking(F, args.i, args.j, args.k)
    i, j, k = args.i, args.j, args.k
    print(f"mu = {result.value}")
    print(f"e_{i}{j}(w{k}) = {result.contributions[0]}")
    print(f"e_{j}{k}(w{i}) = {result.contributions[1]}")
    print(f"e_{k}{i}(w{j}) = {result.contributions[2]}")
    print("WELL-DEFINED" if result.well_defined else "NOT-WELL-DEFINED")
    return 0


def cmd_lk(args: argparse.Namespace) -> int:
    from .invariants import pairwise_linking

    F = _load_valid_complex(args.file)
    if F is None:
        return 2
    print(pairwise_linking(F, args.i, args.j))
    return 0


def cmd_words(args: argparse.Namespace) -> int:
    from .complexes import clasp_word

    F = _load_valid_complex(args.file)
    if F is None:
        return 2
    for k in range(1, F.n + 1):
        print(f"w{k} = {clasp_word(F, k)}".rstrip())
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import bound_report

    F = _load_valid_complex(args.file)
    if F is None:
        return 2
    sys.stdout.write(bound_report(F).format())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .complexes import parse_complex, validate

    F = parse_complex(_read_file(args.file))
    violations = validate(F)
    if not violations:
        print("OK")
        return 0
    for v in violations:
        print(v)
    return 2


def cmd_gen_brn(args: argparse.Namespace) -> int:
    from .complexes import generate_brn, print_complex

    sys.stdout.write(print_complex(generate_brn(args.n)))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    # each oracle takes its own bound and refuses the other's
    if args.kind == "polyomino" and args.max_len is not None:
        raise ValueError("--max-len does not apply to oracle polyomino")
    if args.kind == "words" and args.max_area is not None:
        raise ValueError("--max-area does not apply to oracle words")
    from . import oracles

    if args.kind == "polyomino":
        cap = args.cap if args.cap is not None else oracles.POLYOMINO_AREA_CAP
        max_area = args.max_area if args.max_area is not None else oracles.POLYOMINO_AREA_CAP
        reports = oracles.verify_min_perimeter(max_area, cap)
    else:
        cap = args.cap if args.cap is not None else oracles.WORD_LENGTH_CAP
        max_len = args.max_len if args.max_len is not None else oracles.WORD_LENGTH_CAP
        reports = oracles.verify_word_length_bound(max_len, cap)
    sys.stdout.write(oracles.format_reports(reports))
    return 0 if all(r.agree for r in reports) else 1


def _integer(text: str) -> int:
    """An integer argument in ASCII digits.  ``int`` also reads ``_``
    between digits and the digits of other scripts; those are refused like
    any other bad value.  argparse's own ``int`` error repeats the whole
    argument, this one quotes at most ``QUOTE_CHARS`` characters of it."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    from ._record import clip

    raise argparse.ArgumentTypeError(f"invalid int value: {clip(text)!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clasplink",
        description="Link invariants and clasp-number bounds from clasp data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sources = {"word": 'word text, or "-" for stdin', "file": 'complex file, or "-" for stdin'}

    def command(name: str, summary: str, func, source: str | None = None, integers: str = "") -> argparse.ArgumentParser:
        """A subcommand with its input source and one-letter integer arguments."""
        p = sub.add_parser(name, help=summary)
        if source:
            p.add_argument(source, help=sources[source])
        for integer in integers:
            p.add_argument(integer, type=_integer)
        p.set_defaults(func=func)
        return p

    p = command("eij", "signed x_i-before-x_j count of a word", cmd_eij, "word", "ij")
    p.add_argument("--method", choices=("sum", "integral", "both"), default="both")
    p = command("curve", "render a word's lattice curve to SVG", cmd_curve, "word", "ij")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--grid", action="store_true", help="draw grid lines")
    command("mu", "triple linking number of a complex", cmd_mu, "file", "ijk")
    command("lk", "pairwise linking number of a complex", cmd_lk, "file", "ij")
    command("words", "clasp word of every component", cmd_words, "file")
    command("bounds", "clasp-number bound report for a complex", cmd_bounds, "file")
    command("validate", "check a complex file's invariants", cmd_validate, "file")
    command("gen-brn", "emit the n-fold generalized Borromean complex", cmd_gen_brn, integers="n")
    p = command("oracle", "run a brute-force verification sweep", cmd_oracle)
    p.add_argument("kind", choices=("polyomino", "words"))
    # --max-area, --max-len and --cap default to the oracle's caps
    p.add_argument("--max-area", type=_integer, default=None)
    p.add_argument("--max-len", type=_integer, default=None)
    p.add_argument("--cap", type=_integer, default=None, help="raise the runtime guard")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # WordSyntaxError, ComplexFormatError and CapExceededError are ValueErrors
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
