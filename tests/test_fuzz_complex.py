"""Fuzz the exit contract of the complex parser and subcommands.

Every input ends in exit 0 with a result, or exit 2 with ``error:`` lines
on stderr (``validate`` prints its violations on stdout instead).  Never a
traceback, and never exit 1, which is kept for oracle disagreement.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from clasplink.complexes import CComplex, ComplexFormatError, InvalidComplexError, parse_complex
from test_cli import run_cli

DATA = Path(__file__).resolve().parents[1] / "data"
SHIPPED = [path.read_text() for path in sorted(DATA.glob("*.cc"))]
FUZZ = settings(max_examples=100)

COMMANDS = st.sampled_from([
    ["bounds", "-"],
    ["words", "-"],
    ["lk", "-", "1", "2"],
    ["lk", "-", "2", "3"],
    ["mu", "-", "1", "2", "3"],
    ["validate", "-"],
])

# tokens that the format gives meaning to, and numbers of any size
TOKENS = st.one_of(
    st.sampled_from(["components", "clasp", "order", "+", "-", "#", "p", "q", "zz", "\n", ""]),
    st.integers().map(str),
    st.text(max_size=6),
)


@st.composite
def mutated_files(draw):
    """A shipped complex file with a few token- or line-level edits."""
    lines = [line.split(" ") for line in draw(st.sampled_from(SHIPPED)).split("\n")]
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete_token", "drop_line", "copy_line"]))
        col = draw(st.integers(0, max(len(lines[row]) - 1, 0)))
        if edit == "replace" and lines[row]:
            lines[row][col] = draw(TOKENS)
        elif edit == "insert":
            lines[row].insert(col, draw(TOKENS))
        elif edit == "delete_token" and lines[row]:
            del lines[row][col]
        elif edit == "drop_line" and len(lines) > 1:
            del lines[row]
        elif edit == "copy_line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[row]))
    return "\n".join(" ".join(line) for line in lines)


INPUTS = st.one_of(st.text(), mutated_files())


@FUZZ
@given(INPUTS)
def test_parse_complex_returns_or_raises_format_error(text):
    try:
        F = parse_complex(text)
    except ComplexFormatError as exc:
        assert str(exc)
    except InvalidComplexError as exc:
        assert exc.violations
        assert str(exc) == "invalid complex: " + "; ".join(exc.violations)
    else:
        assert isinstance(F, CComplex)


@FUZZ
@given(INPUTS, COMMANDS)
def test_complex_subcommands_keep_the_exit_contract(text, argv):
    code, out, err = run_cli(argv, text)
    if code == 0:
        assert err == ""
        assert out
    else:
        assert code == 2
        if argv[0] == "validate" and not err:
            assert out  # the violation list
        else:
            assert err.startswith("error: ")
            assert all(line.startswith("error: ") for line in err.splitlines())
