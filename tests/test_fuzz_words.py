"""Fuzz the word parser against a reference, and the exit contract of eij
and curve.

``reference.parse_word`` is the per-token parser that ``parse_word``
replaced: it expands each term in place into letter keys.  It holds its
own copy of that parser's grammar and of the error quoting, so it shares
none with the code it checks.
On any text whose expansion stays small the two must give the same letters,
or the same error message at the same line and column.

Every eij or curve run ends in exit 0 with a result, or exit 2 with an
``error:`` line on stderr.  Never a traceback, and never exit 1: the two
eij methods always agree.
"""

import re
import tempfile
from contextlib import suppress
from pathlib import Path

import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from clasplink.words import ClaspWord, WordSyntaxError, parse_word
from test_cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = [
    path.read_text()
    for path in [ROOT / "data" / "staircase.word", *sorted((ROOT / "tests" / "golden" / "words").glob("*.word"))]
]
FUZZ = settings(max_examples=100)


def small_expansion(text: str) -> bool:
    """True if no exponent in the text is large, so the reference parser,
    which has no letter cap, cannot build a huge word."""
    return all(len(digits) <= 4 for digits in re.findall(r"\^-?([0-9]+)", text))


# terms, near-terms and separators that the grammar gives meaning to
TOKENS = st.one_of(
    st.sampled_from([
        "x1", "x2", "x3^-1", "x2^7", "x0", "x-3", "x01", "x1^0", "x1^-0", "x1^01", "x1^-07",
        "x", "x^2", "x1^", "x1^^2", "x1^-", "X1", "y1", "x١", "x1²", "#", "# x1", ".", "^",
        "-", "\t", "\n", " . ", "",
    ]),
    st.builds("x{}^{}".format, st.integers(-3, 40), st.integers(-99, 99)),
    st.builds("x{}".format, st.integers(-3, 40)),
    st.text(max_size=6),
)


@st.composite
def mutated_words(draw):
    """A shipped or golden word file with a few token- or line-level edits.

    An "echo" edit inserts a piece of an earlier token on the same line, so
    a bad term often occurs inside a good one before it (``x1^`` after
    ``x1^-7``) and a column found by substring search would be wrong.
    """
    lines = [line.split(" ") for line in draw(st.sampled_from(SHIPPED)).split("\n")]
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "echo", "delete_token", "drop_line", "copy_line"]))
        col = draw(st.integers(0, max(len(lines[row]) - 1, 0)))
        if edit == "replace" and lines[row]:
            lines[row][col] = draw(TOKENS)
        elif edit == "echo" and lines[row]:
            source = lines[row][draw(st.integers(0, col))]
            start = draw(st.integers(0, len(source)))
            lines[row].insert(col + 1, source[start:draw(st.integers(start, len(source)))])
        elif edit == "insert":
            lines[row].insert(col, draw(TOKENS))
        elif edit == "delete_token" and lines[row]:
            del lines[row][col]
        elif edit == "drop_line" and len(lines) > 1:
            del lines[row]
        elif edit == "copy_line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[row]))
    return "\n".join(" ".join(line) for line in lines)


INPUTS = st.one_of(st.text(), st.lists(TOKENS).map(" ".join), mutated_words())


def outcome(text):
    """The letter keys of parse_word's word, or its error as (message, line, column)."""
    try:
        runs = parse_word(text).runs
    except WordSyntaxError as exc:
        return exc.message, exc.line, exc.column
    return reference.letters(runs)


def test_reference_agrees_on_the_shipped_words():
    for text in SHIPPED:
        assert outcome(text) == reference.parse_word(text)


@FUZZ
@given(INPUTS)
def test_parse_word_matches_the_reference(text):
    if small_expansion(text):
        assert outcome(text) == reference.parse_word(text)
    else:
        with suppress(WordSyntaxError):
            assert isinstance(parse_word(text), ClaspWord)


PAIRS = st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map(lambda p: [str(p[0]), str(p[1])])
COMMANDS = st.one_of(
    st.builds(lambda ij, m: ["eij", "-", *ij, "--method", m], PAIRS,
              st.sampled_from(["sum", "integral", "both"])),
    st.builds(lambda ij, grid: ["curve", "-", *ij, "--out", "OUT"] + grid, PAIRS,
              st.sampled_from([[], ["--grid"]])),
)


@FUZZ
@given(INPUTS, COMMANDS)
def test_word_subcommands_keep_the_exit_contract(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        svg = Path(tmp) / "curve.svg"
        code, out, err = run_cli([str(svg) if arg == "OUT" else arg for arg in argv], text)
        written = svg.exists()
    if code == 0:
        assert err == ""
        assert out
        assert written == (argv[0] == "curve")
    else:
        assert code == 2
        assert out == ""
        assert not written
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
