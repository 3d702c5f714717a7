"""Fuzz the integer arguments and the options of the command line.

Any text as ``lk``'s J, ``gen-brn``'s N or ``oracle words --max-len`` ends
in exit 0, or in exit 2 with a last stderr line that holds ``error:``;
never in a traceback.  Integers are ASCII digits: a text with a non-ASCII
character or an ``_`` is refused, although ``int`` reads some of them.

Option names, ``--method``, ``--grid`` and both oracle kinds with
``--max-len``, ``--max-area`` and ``--cap`` end in exit 0, 1 or 2: an
error is one ``error:`` line or argparse's usage error, never a
traceback.  No fuzzed run sweeps past length 8 or area 6.

Every fuzzed line is also read by ``cli._read_args``, the reader of
well-formed lines: it gives argparse's namespace or hands the line to
argparse.  The lines that the benchmark and the golden files send are all
well formed.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clasplink.cli import _read_args, build_parser
from test_cli import run_cli

BORROMEAN = str(Path(__file__).resolve().parents[1] / "data" / "borromean.cc")
FUZZ = settings(max_examples=100)

# ASCII, Arabic-Indic, Devanagari and fullwidth digits: int() reads them all
DIGITS = "".join(chr(start + k) for start in (0x30, 0x660, 0x966, 0xFF10) for k in range(10))
INTEGER_TEXT = st.one_of(
    st.text(max_size=8),
    st.integers(-60, 60).map(str),
    st.text(alphabet="0123456789_+- \t", min_size=1, max_size=6),
    st.text(alphabet=DIGITS + "_+-", min_size=1, max_size=4),
)

# each command with the largest ASCII value it is run with: no fuzzed run
# builds a large complex or a long sweep
COMMANDS = {
    "lk": (lambda text: ["lk", BORROMEAN, "1", text], None),
    "gen-brn": (lambda text: ["gen-brn", text], 50),
    "oracle": (lambda text: ["oracle", "words", "--max-len", text], 8),
}


def parsed(argv):
    """argparse's namespace of ``argv``, or None where it prints a usage
    error or the help and exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def assert_read_as_argparse_reads(argv):
    """The reader gives no namespace, or the one argparse gives."""
    read = _read_args(argv)
    if read is not None:
        assert vars(read) == vars(parsed(argv))


@FUZZ
@given(st.sampled_from(sorted(COMMANDS)), INTEGER_TEXT)
def test_integer_arguments_keep_the_exit_contract(command, text):
    build, largest = COMMANDS[command]
    if largest is not None and text.isascii() and "_" not in text:
        try:
            assume(int(text) <= largest)
        except ValueError:
            pass
    assert_read_as_argparse_reads(build(text))
    code, out, err = run_cli(build(text))
    assert "Traceback" not in out + err
    if code != 0:
        assert code == 2
        assert "error:" in err.splitlines()[-1]
    if not text.isascii() or "_" in text:
        assert code == 2


# Options beyond the integers: option names (real ones, abbreviations and
# near misses), --method, --grid, and both oracle kinds with their bounds.
# The options land before, between and after the positionals.  The real
# spellings are listed more than once, so that many runs get past argparse.
ORACLE_KINDS = ["words", "polyomino"] * 3 + ["word", ""]
ORACLE_OPTIONS = ["--max-len", "--max-area", "--cap"] * 5 + ["--max-l", "--max-a", "--ca", "--max", "--max_len",
                                                            "--cap=2", "--grid", "-h"]
ORACLE_VALUES = st.sampled_from([str(v) for v in range(-1, 9)] + ["", "x", "3.0", "--cap", "words"])
EIJ_OPTIONS = ["--method"] * 6 + ["--meth", "--m", "--method=sum", "--grid", "--max-len", "-m"]
EIJ_VALUES = st.one_of(st.sampled_from(["sum", "integral", "both"] * 4 + ["Sum", "", "both "]), st.text(max_size=3))
WORDS = ["x1 x2 x1^-1 x2^-1", "x1 x2 x1^2 x2^-1 x1^-3 x2^0", "x1 x3 x2", "", "x1^", "y2", "x0 x1"]
INDICES = ["1", "2", "3"] * 3 + ["0", "-1", "x", "1.5"]
# curve writes out.svg into the working directory; no token here names --out
CURVE_TOKENS = ["--grid"] * 6 + ["--gri", "--grid=yes", "--method", "sum", "-g", "--", "extra"]


@st.composite
def option_argvs(draw):
    command = draw(st.sampled_from(["oracle", "eij", "curve"]))
    if command == "oracle":
        # every run gets its kind's bound, at most 8; an option may override it
        kind = draw(st.sampled_from(ORACLE_KINDS))
        flag = "--max-len" if kind == "words" else "--max-area"
        chunks = [[kind], [flag, draw(st.integers(-1, 8).map(str))]][:: draw(st.sampled_from([1, -1]))]
        options, values = st.sampled_from(ORACLE_OPTIONS), ORACLE_VALUES
    else:
        chunks = [[draw(st.sampled_from(WORDS))], [draw(st.sampled_from(INDICES))], [draw(st.sampled_from(INDICES))]]
        options, values = st.sampled_from(EIJ_OPTIONS), EIJ_VALUES
        if command == "curve":
            chunks.append(["--out", "out.svg"])
            options, values = st.sampled_from(CURVE_TOKENS), st.sampled_from(CURVE_TOKENS)
    for _ in range(draw(st.integers(0, 2))):
        option = [draw(options)]
        # --grid takes no value; any other option name takes one, mostly
        takes_value = option != ["--grid"] and draw(st.integers(0, 4)) > 0
        # the positionals keep their order; an option goes anywhere between
        chunks.insert(draw(st.integers(0, len(chunks))), option + [draw(values)] if takes_value else option)
    return [command] + [token for chunk in chunks for token in chunk]


def sweep_size(argv):
    """The (kind, bound) of the sweep an oracle argv starts, else None."""
    from clasplink.oracles import POLYOMINO_AREA_CAP, WORD_LENGTH_CAP

    args = parsed(argv)
    if args is None or args.command != "oracle":
        return None
    if args.kind == "words" and args.max_area is None:
        return "words", WORD_LENGTH_CAP if args.max_len is None else args.max_len
    if args.kind == "polyomino" and args.max_len is None:
        return "polyomino", POLYOMINO_AREA_CAP if args.max_area is None else args.max_area
    return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-options")


@FUZZ
@given(option_argvs())
@example(["oracle", "words", "--max-len", "8", "--cap", "8"])
@example(["oracle", "--max-a", "6", "polyomino", "--ca", "6"])
@example(["eij", "--method", "sum", "x1 x2 x1^-1 x2^-1", "1", "2"])
@example(["eij", "x1 x2 x1^2 x2^-1 x1^-3 x2^0", "2", "1", "--method", "integral"])
@example(["curve", "x1 x2 x1^-1 x2^-1", "--grid", "1", "2", "--out", "out.svg"])
def test_options_keep_the_exit_contract(workdir, argv):
    sweep = sweep_size(argv)
    if sweep is not None:
        kind, bound = sweep
        assume(bound <= (8 if kind == "words" else 6))
    assert_read_as_argparse_reads(argv)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code, out, err = run_cli(argv)
    finally:
        os.chdir(cwd)
    assert "Traceback" not in out + err
    assert code in (0, 1, 2)
    if code == 0:
        assert out and err == ""
    elif code == 2 and err.startswith("usage: clasplink"):
        assert ": error: " in err  # argparse's usage error
    elif code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# The lines of bench/workloads.py and tests/golden/, by shape: the benchmark
# measures the reader, not argparse.
SENT_LINES = [
    ["bounds", "/work/brn-1000.cc"],
    ["bounds", "-"],
    ["words", "/work/random3-2000.cc"],
    ["lk", "/work/random2-3000.cc", "2", "1"],
    ["lk", "/golden/five-component.cc", "2", "5"],
    ["validate", "/work/corrupt-syntax-bad_sign.cc"],
    ["mu", "/work/brn-20000.cc", "1", "2", "3"],
    ["mu", "-", "5", "2", "4"],
    ["gen-brn", "2507"],
    ["eij", "-", "3", "1"],
    ["eij", "-", "2", "4", "--method", "sum"],
    ["eij", "-", "1", "2", "--method", "integral"],
    ["eij", "-", "1", "2", "--method", "both"],
    ["curve", "-", "4", "2", "--out", "/work/curve.svg"],
    ["curve", "-", "1", "3", "--out", "/work/curve.svg", "--grid"],
    ["oracle", "words", "--max-len", "12"],
    ["oracle", "polyomino", "--max-area", "9"],
]


@pytest.mark.parametrize("argv", SENT_LINES, ids=" ".join)
def test_sent_lines_are_read_without_argparse(argv):
    read = _read_args(argv)
    assert read is not None
    assert vars(read) == vars(build_parser().parse_args(argv))


HUGE = "7" * 5000  # ASCII digits that int() refuses: more than 4300 of them


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-brn", HUGE],
        ["oracle", "words", "--max-len", HUGE],
        ["gen-brn", "+2"],
        ["gen-brn", " 2"],
        ["lk", "-1", "1", "2"],
        ["oracle", "words", "--max-len", "-1"],
        ["curve", "x1", "1", "2", "--out", "-"],
        ["curve", "x1", "1", "2"],
        ["eij", "x1", "1", "2", "--method", "sum", "--method", "sum"],
        ["eij", "x1", "1", "2", "--meth", "sum"],
        ["eij", "x1", "1", "2", "--method=sum"],
        ["eij", "x1", "1", "2", "--method"],
        ["eij", "x1", "1", "2", "3"],
        ["eij", "--", "x1", "1", "2"],
        ["oracle", "word", "--max-len", "3"],
        ["eij", "-h"],
        ["-h"],
        ["egg"],
        [],
    ],
    ids=lambda argv: " ".join(argv)[:40],
)
def test_other_lines_go_to_argparse(argv):
    assert _read_args(argv) is None
