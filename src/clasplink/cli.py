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
oracles.  No subcommand loads :mod:`typing`, and ``oracle`` loads no
:mod:`re` either.  An error line quotes at most ``QUOTE_CHARS``
characters of an argument, however long it is.

Each subcommand is declared once, in ``COMMANDS``.  ``_read_args`` reads
a well-formed line from that table without importing argparse: a command
of the table, each option in its exact spelling and given once with its
value (not starting with ``-``) in the next token, exactly the
positionals the command takes (none starting with ``-`` but ``-``
itself), integers in ASCII digits alone, choices from the table, and
``--out`` for ``curve``.  Any other line, ``-h`` and every usage error
among them, goes to the argparse parser that ``build_parser`` builds from
the same table, so help and usage errors are argparse's own, byte for
byte.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace


def _read_text(source: str) -> str:
    return sys.stdin.read() if source == "-" else source


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_eij(args: SimpleNamespace) -> int:
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


def cmd_curve(args: SimpleNamespace) -> int:
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


def cmd_mu(args: SimpleNamespace) -> int:
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


def cmd_lk(args: SimpleNamespace) -> int:
    from .complexes import parse_complex
    from .invariants import pairwise_linking

    F = parse_complex(_read_file(args.file))
    print(pairwise_linking(F, args.i, args.j))
    return 0


def cmd_words(args: SimpleNamespace) -> int:
    from .complexes import clasp_words, parse_complex

    F = parse_complex(_read_file(args.file))
    for k, word in enumerate(clasp_words(F), start=1):
        print(f"w{k} = {word}".rstrip())
    return 0


def cmd_bounds(args: SimpleNamespace) -> int:
    from .bounds import bound_report
    from .complexes import parse_complex

    F = parse_complex(_read_file(args.file))
    sys.stdout.write(bound_report(F).format())
    return 0


def cmd_validate(args: SimpleNamespace) -> int:
    from .complexes import InvalidComplexError, parse_complex

    try:
        parse_complex(_read_file(args.file))
    except InvalidComplexError as exc:
        for v in exc.violations:
            print(v)
        return 2
    print("OK")
    return 0


def cmd_gen_brn(args: SimpleNamespace) -> int:
    from .complexes import generate_brn, print_complex

    sys.stdout.write(print_complex(generate_brn(args.n)))
    return 0


def cmd_oracle(args: SimpleNamespace) -> int:
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
    import argparse

    from ._record import quote

    raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}")


_REQUIRED = object()  # the default of an option that must be given

_WORD = ("word", str, 'word text, or "-" for stdin')
_FILE = ("file", str, 'complex file, or "-" for stdin')
_I, _J, _K, _N = ((name, _integer, None) for name in "ijkn")

# Each subcommand once: name -> (summary, function, positionals, options).
# A positional is (name, kind, help) and an option is flag -> (kind,
# default, help).  A kind is str (any text), _integer, a tuple of choices,
# or, for an option, bool (a flag that takes no value).
COMMANDS = {
    "eij": ("signed x_i-before-x_j count of a word", cmd_eij, (_WORD, _I, _J),
            {"--method": (("sum", "integral", "both"), "both", None)}),
    "curve": ("render a word's lattice curve to SVG", cmd_curve, (_WORD, _I, _J),
              {"--out": (str, _REQUIRED, "output SVG path"), "--grid": (bool, False, "draw grid lines")}),
    "mu": ("triple linking number of a complex", cmd_mu, (_FILE, _I, _J, _K), {}),
    "lk": ("pairwise linking number of a complex", cmd_lk, (_FILE, _I, _J), {}),
    "words": ("clasp word of every component", cmd_words, (_FILE,), {}),
    "bounds": ("clasp-number bound report for a complex", cmd_bounds, (_FILE,), {}),
    "validate": ("check a complex file's invariants", cmd_validate, (_FILE,), {}),
    "gen-brn": ("emit the n-fold generalized Borromean complex", cmd_gen_brn, (_N,), {}),
    # --max-area, --max-len and --cap default to the oracle's caps
    "oracle": ("run a brute-force verification sweep", cmd_oracle, (("kind", ("polyomino", "words"), None),),
               {"--max-area": (_integer, None, None), "--max-len": (_integer, None, None),
                "--cap": (_integer, None, "raise the runtime guard")}),
}


def build_parser():
    """The argparse parser of ``COMMANDS``: it parses every line that
    :func:`_read_args` does not, and prints the help and usage errors."""
    import argparse

    def typed(kind) -> dict:
        return {} if kind is str else {"choices": kind} if isinstance(kind, tuple) else {"type": kind}

    parser = argparse.ArgumentParser(
        prog="clasplink",
        description="Link invariants and clasp-number bounds from clasp data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest, kind, about in positionals:
            p.add_argument(dest, help=about, **typed(kind))
        for flag, (kind, default, about) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=about)
            else:
                required = default is _REQUIRED
                p.add_argument(flag, default=None if required else default, required=required, help=about,
                               **typed(kind))
        p.set_defaults(func=func)
    return parser


def _value(kind, text: str):
    """``text`` as a value of ``kind`` if it is well formed, else ValueError.
    An integer is what :func:`~clasplink._record.ascii_int` reads, which
    ``_integer`` reads as ``int`` does."""
    from ._record import ascii_int

    if kind is str:
        return text
    if kind is _integer and (value := ascii_int(text)) is not None:
        return value
    if isinstance(kind, tuple) and text in kind:
        return text
    raise ValueError(text)


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``build_parser().parse_args(argv)`` gives, read
    from ``COMMANDS`` without argparse, if ``argv`` is a well-formed line
    (see the module docstring); None otherwise."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, positionals, options = COMMANDS[argv[0]]
    words, given = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-" or not token.startswith("-"):
            words.append(token)
        elif token not in options or token in given:
            return None
        elif options[token][0] is bool:
            given[token] = True
        else:
            given[token] = next(tokens, "-")
            if given[token].startswith("-"):
                return None
    if len(words) != len(positionals):
        return None
    values = {"command": argv[0], "func": func}
    try:
        for (dest, kind, _), text in zip(positionals, words):
            values[dest] = _value(kind, text)
        for flag, (kind, default, _) in options.items():
            if flag in given:
                value = given[flag] if kind is bool else _value(kind, given[flag])
            elif default is _REQUIRED:
                return None
            else:
                value = default
            values[flag[2:].replace("-", "_")] = value
    except ValueError:
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv) or build_parser().parse_args(argv, SimpleNamespace())
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
