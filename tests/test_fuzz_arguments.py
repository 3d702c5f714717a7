"""Fuzz the integer arguments of the command line.

Any text as ``lk``'s J, ``gen-brn``'s N or ``oracle words --max-len`` ends
in exit 0, or in exit 2 with a last stderr line that holds ``error:``;
never in a traceback.  Integers are ASCII digits: a text with a non-ASCII
character or an ``_`` is refused, although ``int`` reads some of them.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clasplink.cli import main

BORROMEAN = str(Path(__file__).resolve().parents[1] / "data" / "borromean.cc")
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

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
    "oracle": (lambda text: ["oracle", "words", "--max-len", text], 12),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stopped:  # argparse's usage errors, and --help
            code = stopped.code
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(st.sampled_from(sorted(COMMANDS)), INTEGER_TEXT)
def test_integer_arguments_keep_the_exit_contract(command, text):
    build, largest = COMMANDS[command]
    if largest is not None and text.isascii() and "_" not in text:
        try:
            assume(int(text) <= largest)
        except ValueError:
            pass
    code, out, err = run(build(text))
    assert "Traceback" not in out + err
    if code != 0:
        assert code == 2
        assert "error:" in err.splitlines()[-1]
    if not text.isascii() or "_" in text:
        assert code == 2
