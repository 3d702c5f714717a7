"""Memory budgets: every bound on the memory a call or a request takes, as
rows of one table.  A row names its input, its measure, its bound and
where it holds; a bound that differs by Python version is two rows of one
name.  A measure is one of three kinds: a call's ``tracemalloc`` peak, or
the bytes it keeps, from its start (:func:`traced`); or a ``clasplink``
request's exit status in a child under an ``RLIMIT_AS`` address-space
limit (:func:`run_under_memory_limit`).  A measure also checks the call's
result, or the child's output, so that no row passes on the wrong work.
A comment gives what a row read when the code went wrong as it guards.

Run as a script, the module prints each row's value next to its bound:
``PYTHONPATH=src python tests/test_memory_budgets.py``.
"""

import functools
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import chain
from typing import Any, Callable, NamedTuple

from clasplink.complexes import BRN_CAP, clasp_words, generate_brn, parse_complex, print_complex, validate
from clasplink.curves import DOWN, LEFT, RIGHT, UP, LatticeCurve, build_curve, write_svg
from clasplink.invariants import triple_linking
from clasplink.words import WORD_LETTER_CAP, ClaspWord, parse_word

try:
    import resource
except ImportError:  # no address-space limit to set: no child row holds
    resource = None


def traced(call, *args, **kwargs):
    """``call(*args, **kwargs)``, its ``tracemalloc`` peak and the bytes it
    keeps, both counted from its start: ``(result, peak, kept)``."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


@functools.lru_cache(maxsize=1)  # so `bounds -` reads the gen-brn row's run
def run_under_memory_limit(args, mib, text=""):
    """``clasplink ARGS`` run on ``text`` in a child whose address space is
    capped at ``mib`` MiB, set in the child alone, before it runs Python."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mib * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))

    return subprocess.run([sys.executable, "-m", "clasplink.cli", *args], input=text, capture_output=True,
                          text=True, preexec_fn=limit, timeout=120)


class Row(NamedTuple):
    """A budget: ``measure(input())`` must be ``op`` ``bound``, in ``unit``."""

    name: str
    input: Callable[[], Any]  # built when the row runs
    measure: Callable[[Any], float]  # checks the call's result, then gives the value
    bound: float
    unit: str
    op: str = "<="
    holds: bool = True  # on this Python and platform


OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def child(name, args, mib, status, out, err="", text=lambda: ""):
    """The row of ``clasplink ARGS`` on ``text()`` under ``mib`` MiB of address
    space.  It must exit ``status`` and write ``err`` to stderr, and to stdout
    ``out``, or what the callable ``out`` accepts.  No RSS is shown: on Linux
    a child's starts at its parent's, this process."""

    def measure(run):
        assert (out(run.stdout) if callable(out) else run.stdout == out) and run.stderr == err, run.stderr[-400:]
        return run.returncode

    return Row(name, lambda: run_under_memory_limit(tuple(args), mib, text()), measure, status,
               f"exit status under an RLIMIT_AS of {mib} MiB", "==", resource is not None)


# --- inputs -------------------------------------------------------------------


def ci_word_terms():
    """The terms of the 400,000-letter word of CI's timing step: x1, x2 and
    x3 in runs of 1 to 4, Random(1)."""
    rng = random.Random(1)
    terms, letters = [], 0
    while letters < 400_000:
        exponent = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        terms.append(f"x{rng.randint(1, 3)}^{exponent}")
        letters += abs(exponent)
    return terms


def one_and_short_lines(sep):
    """CI's word on one line, and on lines of 6 to 24 terms, Random(2)."""
    terms = ci_word_terms()
    rng = random.Random(2)
    lines, start = [], 0
    while start < len(terms):
        stop = start + rng.randint(6, 24)
        lines.append(sep.join(terms[start:stop]))
        start = stop
    return sep.join(terms), "\n".join(lines)


def comb(teeth, height):
    """The step codes of a closed simple comb, CI's at (300, 200): ``teeth``
    teeth ``height`` steps high, each up one column and down the next,
    closed by a base line one step below."""
    tooth = bytes([UP]) * height + bytes([RIGHT]) + bytes([DOWN]) * height + bytes([RIGHT])
    return tooth * teeth + bytes([DOWN]) + bytes([LEFT]) * (2 * teeth) + bytes([UP])


def comb_word(teeth, height):
    """``comb(teeth, height)`` as a word read with (i, j) = (1, 2), one run a letter."""
    keys = {RIGHT: 1, LEFT: -1, UP: 2, DOWN: -2}
    return ClaspWord((keys[code], 1) for code in comb(teeth, height))


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


def benchmark_comb():
    curve = LatticeCurve(comb_steps(387))
    assert curve.length == 301_088
    return curve


def random_walk():
    """100,000 vertices, Random(5)."""
    rng = random.Random(5)
    return LatticeCurve(bytes(rng.choice((RIGHT, LEFT, UP, DOWN)) for _ in range(99_999)))


SIDE = 100_000
BOXES = {  # a flat and a tall closed box, SIDE steps long and one wide
    "flat": bytes([RIGHT]) * SIDE + bytes([UP]) + bytes([LEFT]) * SIDE + bytes([DOWN]),
    "tall": bytes([UP]) * SIDE + bytes([RIGHT]) + bytes([DOWN]) * SIDE + bytes([LEFT]),
}


def brn_5000():
    """The text of Brn(5000): 20,000 clasps."""
    return print_complex(generate_brn(5000))


def complex_size(F):
    """Bytes of F, its tuples, clasps and id strings, each object once."""
    parts = chain((F, F.clasps, F.orders), F.clasps, (c.id for c in F.clasps), F.orders, *F.orders)
    return sum(map(sys.getsizeof, {id(part): part for part in parts}.values()))


THREE_CLASPS = "clasp a 1 2 +\nclasp b 2 3 -\nclasp c 3 1 +\norder 1 a c\norder 2 a b\norder 3 b c\n"
GEN_BRN_AT_THE_CAP = ("gen-brn", str(BRN_CAP))


# --- measures -----------------------------------------------------------------


def kept_a_run(text):
    w, _, kept = traced(parse_word, text)
    assert len(w.runs) == 200_000
    return kept / len(w.runs)


def temporary_over_held(text):
    held = traced(parse_word, text)[1]
    temporary = traced(lambda: parse_word("x1 " * 1_000_000))[1]  # built in the call: parse_word holds its one reference
    return (temporary - held) / len(text)


def triple_linking_peak(text):
    F = parse_complex("components 1000000\n" + text)
    result, peak, _ = traced(triple_linking, F, 1, 2, 3)
    assert result == triple_linking(parse_complex("components 3\n" + text), 1, 2, 3)
    return peak / 2**20


def parse_peak_over_complex(text):
    F, peak, _ = traced(parse_complex, text)
    return peak / complex_size(F)


def validate_peak(F):
    violations, peak, _ = traced(validate, F.n, F.clasps, F.orders)
    assert violations == []
    return peak / 2**20


def id_strings(text):
    F = parse_complex(text)
    return len({id(cid) for cid in chain((c.id for c in F.clasps), *F.orders)})


def clasp_words_kept_a_letter(F):
    words, _, kept = traced(clasp_words, F)
    letters = sum(map(len, words))
    assert letters == 2 * len(F.clasps)
    return kept / letters


def curve_kept_a_step(word):
    curve, _, kept = traced(build_curve, word, 1, 2)
    assert curve.length > 100_000
    return kept / curve.length


def is_simple_peak(curve):
    simple, peak, _ = traced(curve.is_simple)
    assert simple
    return peak


def svg_peak_a_character(curve, grid=False):
    """``write_svg``'s peak into a sink that counts characters and keeps no
    text, so the peak is the writer's own, a character it writes."""
    written = 0

    def count(piece):
        nonlocal written
        written += len(piece)

    _, peak, _ = traced(write_svg, curve, count, grid=grid)
    pieces = []
    write_svg(curve, pieces.append, grid=grid)
    assert written == len("".join(pieces))
    return peak / written


def svg_peak_a_box_line(curve, grid):
    min_x, max_x, min_y, max_y = curve.bounding_box()
    return traced(write_svg, curve, lambda piece: None, grid=grid)[1] / (max_x - min_x + max_y - min_y + 2)


# --- the table ----------------------------------------------------------------

ROWS = [
    # 10.61 MiB against 3.83 MiB when a line was split whole
    *[Row(f"parse_word-one-line-against-short-lines-{name}", lambda sep=sep: one_and_short_lines(sep),
          lambda texts: traced(parse_word, texts[0])[1] / traced(parse_word, texts[1])[1], 1.5, "times the short-line peak")
      for name, sep in [("space", " "), ("dot", ".")]],
    # 22.6 when the text's lines and a line's terms were held whole, and 8.4
    # when the word's runs were copied into two columns
    Row("parse_word-one-letter-terms-peak", lambda: "x1 " * 1_000_000,
        lambda text: traced(parse_word, text)[1] / len(text), 6, "bytes of peak a character of text"),
    # 16 when the word kept a key column and a count column
    Row("parse_word-kept-a-run", lambda: "x1 x2^3 " * 100_000, kept_a_run, 9, "bytes kept a run"),
    # 1.0, one text more, when the text was held to the end; before 3.11 a
    # call's arguments stay on the caller's stack
    Row("parse_word-temporary-text-freed", lambda: "x1 " * 1_000_000, temporary_over_held, 0.5,
        "texts more at the peak when the text is a temporary", "<", sys.version_info >= (3, 11)),
    # a MemoryError traceback and exit 1 when the line's terms were held whole
    child("eij-half-the-cap-in-one-letter-terms", ["eij", "-", "1", "2"], 300, 0, "5000000\n",
          text=lambda: "x1 " * 5_000_000 + "x2"),
    child("eij-bad-term-past-5000000-terms", ["eij", "-", "1", "2"], 300, 2, "",
          "error: line 1, column 15000001: malformed term 'y3' (expected x<INT> or x<INT>^<SIGNEDINT>)\n",
          lambda: "x1 " * 5_000_000 + "y3"),
    # a flat and a tall word of WORD_LETTER_CAP letters: the curve's box is
    # 5,000,001 columns or rows, and the SVG writer formats each once; a
    # MemoryError and exit 1 when it kept two tables of coordinates an axis
    *[child(f"curve-at-the-letter-cap-{name}", ["curve", word, "1", "2", "--out", os.devnull], 500, 0,
            lambda out, word=word, area=area: len(parse_word(word)) == WORD_LETTER_CAP
            and out == f"length=10000000 closed simple area={area}\n")
      for name, word, area in [("flat", "x1^4999999 x2 x1^-4999999 x2^-1", 4999999),
                               ("tall", "x2^4999999 x1 x2^-4999999 x1^-1", -4999999)]],
    # 7.63 MiB when triple_linking kept a table per component
    Row("triple_linking-a-million-components-peak", lambda: THREE_CLASPS, triple_linking_peak, 1, "MiB of peak", "<"),
    # 2.29 when the whole text was split at once and validate kept its ids in sets
    Row("parse_complex-brn-5000-peak", brn_5000, parse_peak_over_complex, 1.6, "times the complex's size"),
    # 1.32 MiB when the ids read were held through the order checks.  The peak
    # is a dict of Brn(5000)'s 20,000 ids grown from 16,384 slots to 32,768,
    # holding both tables; before 3.11 their 10,922 and 21,845 entries each
    # hold the key's hash too, 8 bytes
    Row("validate-brn-5000-peak", lambda: generate_brn(5000), validate_peak, 1, "MiB of peak",
        holds=sys.version_info >= (3, 11)),
    Row("validate-brn-5000-peak", lambda: generate_brn(5000), validate_peak, 1 + 8 * (10_922 + 21_845) / 2**20,
        "MiB of peak", holds=sys.version_info < (3, 11)),
    # 4.76 MiB when each order held its own copy of every id
    Row("parse_complex-brn-5000-size", brn_5000, lambda text: complex_size(parse_complex(text)) / 2**20, 2.9, "MiB"),
    Row("parse_complex-brn-5000-id-strings", brn_5000, id_strings, 20_000, "distinct id strings", "=="),
    # 61 when the words made a fresh run tuple a letter
    Row("clasp_words-brn-5000-kept-a-letter", lambda: parse_complex(brn_5000()), clasp_words_kept_a_letter, 9,
        "bytes kept a letter"),
    child("gen-brn-at-the-cap", GEN_BRN_AT_THE_CAP, 250, 0,
          lambda out: out.startswith("components 3\nclasp p1 1 2 +\n") and out.endswith(f" s{BRN_CAP}\n")),
    child("bounds-at-the-cap", ["bounds", "-"], 250, 0, (
        "230942 <= C <= 400000\nlower_C = 230942 # triple linking lower bound\nupper_C = 400000 # clasp count "
        "of this complex\nlower_B = 0 # sum of |lk| over pairs\nupper_B = 400000 # crossing change at each clasp\n"
    ), text=lambda: run_under_memory_limit(GEN_BRN_AT_THE_CAP, 250).stdout),
    child("validate-a-million-components", ["validate", "-"], 150, 0, "OK\n", text=lambda: "components 1000000\n"),
    # about 1e5 vertices, coordinates past 256; one code byte a step, and the
    # bytes and curve objects' headers
    Row("build_curve-comb-kept-a-step", lambda: comb_word(250, 200), curve_kept_a_step, 2, "bytes kept a step"),
    # the bitmap holds one byte a cell of the box, about one a step here; the
    # sort it replaced held one int and one list slot per interior vertex,
    # plus its merge space, and a set of the points over 60 bytes
    Row("is_simple-comb-peak-a-vertex", lambda: build_curve(comb_word(250, 200), 1, 2),
        lambda curve: is_simple_peak(curve) / (curve.length + 1), 50, "bytes of peak a vertex"),
    # a 775-by-582 box, 1.5 cells a step; the sort peaked at 11.7 MiB
    Row("is_simple-benchmark-comb-peak", benchmark_comb, lambda curve: is_simple_peak(curve) / 2**20, 1,
        "MiB of peak", "<"),
    # fails if the pieces are collected, not only if the whole document is built
    *[Row(f"write_svg-random-walk-peak-a-character-grid-{grid}", random_walk,
          lambda curve, grid=grid: svg_peak_a_character(curve, grid), 0.25, "bytes of peak a character written")
      for grid in (False, True)],
    Row("write_svg-ci-comb-peak-a-character", lambda: LatticeCurve(comb(300, 200)), svg_peak_a_character, 0.25,
        "bytes of peak a character written"),
    # one table of formatted coordinates an axis is about 66 bytes a column
    # or row of the box; a second table of either axis passes 100
    *[Row(f"write_svg-{name}-box-peak-a-line-grid-{grid}", lambda name=name: LatticeCurve(BOXES[name]),
          lambda curve, grid=grid: svg_peak_a_box_line(curve, grid), 100, "bytes of peak a column or row of the box")
      for name in sorted(BOXES) for grid in (False, True)],
]


def pytest_generate_tests(metafunc):
    rows = [row for row in ROWS if row.holds]
    metafunc.parametrize("row", rows, ids=[row.name for row in rows])


def test_memory_budget(row):
    value = row.measure(row.input())
    assert OPS[row.op](value, row.bound), f"{value:.4g} {row.unit}, the bound {row.op} {row.bound:g}"


if __name__ == "__main__":
    over = 0
    for row in ROWS:
        if row.holds:
            value = row.measure(row.input())
            within = OPS[row.op](value, row.bound)
            over += not within
            print(f"{row.name:50} {value:10.6g} {row.op:2} {row.bound:<8g} {row.unit}{'' if within else '  OVER'}",
                  flush=True)
    sys.exit(over > 0)
