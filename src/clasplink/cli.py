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


def _read_text(source: str) -> str:
    return sys.stdin.read() if source == "-" else source


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


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
    from .curves import build_curve, write_svg
    from .words import parse_word

    # the word is not bound, so it is freed once the curve is built; the SVG
    # goes to the file a segment at a time and is never held whole
    curve = build_curve(parse_word(_read_text(args.word)), args.i, args.j)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_svg(curve, handle.write, grid=args.grid)
    area = curve.line_integral_x_dy()
    if curve.is_closed():
        shape = "simple" if curve.is_simple() else "nonsimple"
        print(f"length={curve.length} closed {shape} area={area}")
    else:
        print(f"length={curve.length} open area={area}")
    return 0


def cmd_mu(args: argparse.Namespace) -> int:
    from .complexes import parse_complex
    from .invariants import triple_linking

    F = parse_complex(_read_file(args.file))
    result = triple_linking(F, args.i, args.j, args.k)
    i, j, k = args.i, args.j, args.k
    print(f"mu = {result.value}")
    print(f"e_{i}{j}(w{k}) = {result.contributions[0]}")
    print(f"e_{j}{k}(w{i}) = {result.contributions[1]}")
    print(f"e_{k}{i}(w{j}) = {result.contributions[2]}")
    print("WELL-DEFINED" if result.well_defined else "NOT-WELL-DEFINED")
    return 0


def cmd_lk(args: argparse.Namespace) -> int:
    from .complexes import parse_complex
    from .invariants import pairwise_linking

    F = parse_complex(_read_file(args.file))
    print(pairwise_linking(F, args.i, args.j))
    return 0


def cmd_words(args: argparse.Namespace) -> int:
    from .complexes import clasp_words, parse_complex

    F = parse_complex(_read_file(args.file))
    for k, word in enumerate(clasp_words(F), start=1):
        print(f"w{k} = {word}".rstrip())
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import bound_report
    from .complexes import parse_complex

    F = parse_complex(_read_file(args.file))
    sys.stdout.write(bound_report(F).format())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .complexes import InvalidComplexError, parse_complex

    try:
        parse_complex(_read_file(args.file))
    except InvalidComplexError as exc:
        for v in exc.violations:
            print(v)
        return 2
    print("OK")
    return 0


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

    verify = oracles.verify_min_perimeter if args.kind == "polyomino" else oracles.verify_word_length_bound
    # a bound not given is left to the oracle, which defaults it to its cap
    bounds = {name: getattr(args, name) for name in ("max_area", "max_len", "cap") if getattr(args, name) is not None}
    reports = verify(**bounds)
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
    from ._record import quote

    raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}")


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
    # every input error is a ValueError; an InvalidComplexError lists its violations
    except ValueError as exc:
        for problem in getattr(exc, "violations", None) or (exc,):
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
