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
    oracle polyomino|words [--max-area N | --max-len N] [--cap N]

WORD and FILE may be "-" to read standard input, so ``gen-brn 3`` pipes
straight into ``mu`` or ``bounds``.  Exit codes: 0 success, 1
disagreement (an oracle row, or the two ``eij`` methods), 2 input error,
3 I/O error.  Output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from .bounds import bound_report
from .complexes import (
    ComplexFormatError,
    clasp_word,
    generate_brn,
    parse_complex,
    print_complex,
    validate,
)
from .curves import LatticeCurve, build_curve
from .invariants import e_ij, pairwise_linking, triple_linking
from .oracles import (
    CapExceededError,
    POLYOMINO_AREA_CAP,
    WORD_LENGTH_CAP,
    format_reports,
    verify_min_perimeter,
    verify_word_length_bound,
)
from .words import WordSyntaxError, parse_word

SVG_SCALE = 40  # pixels per lattice unit
_POINTS_CHUNK = 4096  # polyline vertices formatted per joined piece


def render_curve_svg(curve: LatticeCurve, grid: bool = False, scale: int = SVG_SCALE) -> str:
    """Render the curve as an SVG polyline with a start-point marker.

    One unit of margin surrounds the bounding box; the y axis is flipped
    so upward steps render upward.  The polyline's points are formatted a
    chunk of vertices at a time, so the only whole-curve text built is the
    returned SVG and the pieces it is joined from.
    """
    xs, ys = curve.xs, curve.ys
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x + 2) * scale
    height = (max_y - min_y + 2) * scale

    # each coordinate in the box (and its one-unit margin) is formatted once
    px = {x: str((x - min_x + 1) * scale) for x in range(min_x - 1, max_x + 2)}
    py = {y: str((max_y + 1 - y) * scale) for y in range(min_y - 1, max_y + 2)}

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
    ]
    if grid:
        for gx in range(min_x - 1, max_x + 2):
            parts.append(
                f'  <line x1="{px[gx]}" y1="0" x2="{px[gx]}" y2="{height}" '
                'stroke="#cccccc" stroke-width="1"/>\n'
            )
        for gy in range(min_y - 1, max_y + 2):
            parts.append(
                f'  <line x1="0" y1="{py[gy]}" x2="{width}" y2="{py[gy]}" '
                'stroke="#cccccc" stroke-width="1"/>\n'
            )
    if len(xs) > 1:
        points = zip(xs, ys)
        prefix = '  <polyline points="'
        for _ in range(0, len(xs), _POINTS_CHUNK):
            chunk = " ".join([f"{px[x]},{py[y]}" for x, y in islice(points, _POINTS_CHUNK)])
            parts.append(prefix + chunk)
            prefix = " "
        parts.append('" fill="none" stroke="#000000" stroke-width="2"/>\n')
    parts.append(f'  <circle cx="{px[0]}" cy="{py[0]}" r="{scale // 8}" fill="#cc0000"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _read_text(source: str) -> str:
    return sys.stdin.read() if source == "-" else source


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_valid_complex(path: str):
    F = parse_complex(_read_file(path))
    violations = validate(F)
    if violations:
        for v in violations:
            print(f"error: {v}", file=sys.stderr)
        return None
    return F


def cmd_eij(args: argparse.Namespace) -> int:
    w = parse_word(_read_text(args.word))
    by_sum = e_ij(w, args.i, args.j)
    if args.method in ("integral", "both"):
        by_integral = build_curve(w, args.i, args.j).line_integral_x_dy()
        if args.method == "both" and by_sum != by_integral:
            print(
                f"error: double sum gave {by_sum} but the line integral gave {by_integral}",
                file=sys.stderr,
            )
            return 1
        print(by_integral)
    else:
        print(by_sum)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
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
    F = _load_valid_complex(args.file)
    if F is None:
        return 2
    print(pairwise_linking(F, args.i, args.j))
    return 0


def cmd_words(args: argparse.Namespace) -> int:
    F = _load_valid_complex(args.file)
    if F is None:
        return 2
    for k in range(1, F.n + 1):
        print(f"w{k} = {clasp_word(F, k)}".rstrip())
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    F = _load_valid_complex(args.file)
    if F is None:
        return 2
    sys.stdout.write(bound_report(F).format())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    F = parse_complex(_read_file(args.file))
    violations = validate(F)
    if not violations:
        print("OK")
        return 0
    for v in violations:
        print(v)
    return 2


def cmd_gen_brn(args: argparse.Namespace) -> int:
    sys.stdout.write(print_complex(generate_brn(args.n)))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.kind == "polyomino":
        cap = args.cap if args.cap is not None else POLYOMINO_AREA_CAP
        reports = verify_min_perimeter(args.max_area, cap)
    else:
        cap = args.cap if args.cap is not None else WORD_LENGTH_CAP
        reports = verify_word_length_bound(args.max_len, cap)
    sys.stdout.write(format_reports(reports))
    return 0 if all(r.agree for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clasplink",
        description="Link invariants and clasp-number bounds from clasp data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eij", help="signed x_i-before-x_j count of a word")
    p.add_argument("word", help='word text, or "-" for stdin')
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--method", choices=("sum", "integral", "both"), default="both")
    p.set_defaults(func=cmd_eij)

    p = sub.add_parser("curve", help="render a word's lattice curve to SVG")
    p.add_argument("word", help='word text, or "-" for stdin')
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--grid", action="store_true", help="draw grid lines")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("mu", help="triple linking number of a complex")
    p.add_argument("file", help='complex file, or "-" for stdin')
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("lk", help="pairwise linking number of a complex")
    p.add_argument("file", help='complex file, or "-" for stdin')
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_lk)

    p = sub.add_parser("words", help="clasp word of every component")
    p.add_argument("file", help='complex file, or "-" for stdin')
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("bounds", help="clasp-number bound report for a complex")
    p.add_argument("file", help='complex file, or "-" for stdin')
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("validate", help="check a complex file's invariants")
    p.add_argument("file", help='complex file, or "-" for stdin')
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-brn", help="emit the n-fold generalized Borromean complex")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_gen_brn)

    p = sub.add_parser("oracle", help="run a brute-force verification sweep")
    p.add_argument("kind", choices=("polyomino", "words"))
    p.add_argument("--max-area", type=int, default=POLYOMINO_AREA_CAP)
    p.add_argument("--max-len", type=int, default=WORD_LENGTH_CAP)
    p.add_argument("--cap", type=int, default=None, help="raise the runtime guard")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WordSyntaxError, ComplexFormatError, CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
