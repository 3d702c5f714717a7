import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from clasplink import complexes
from clasplink._record import PIECE, QUOTE_CHARS
from clasplink.cli import main
from clasplink.complexes import BRN_CAP, Clasp, clasp_word, parse_complex
from clasplink.curves import SVG_SCALE, LatticeCurve, build_curve
from clasplink.words import ClaspWord, parse_word

DATA = Path(__file__).resolve().parents[1] / "data"
BORROMEAN = str(DATA / "borromean.cc")
THREE_CLASPS = str(DATA / "two_component_three_clasps.cc")

GEN_BRN_1 = """\
components 3
clasp p1 1 2 +
clasp q1 1 2 -
clasp r1 1 3 +
clasp s1 1 3 -
order 1 s1 p1 r1 q1
order 2 p1 q1
order 3 r1 s1
"""


def run_cli(argv, stdin=None):
    """``main(argv)`` in this process: (exit code, stdout, stderr).

    ``stdin`` is the text that an argument "-" reads, and the ``sys.stdin``
    it replaces is put back afterwards.  argparse's usage errors and ``-h``
    end in SystemExit, whose code is returned.  Every test runs the command
    line in process through this one function; unlike ``capsys`` it works
    inside a Hypothesis test."""
    out, err, stdin_before = io.StringIO(), io.StringIO(), sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as stopped:
                code = stopped.code
    finally:
        sys.stdin = stdin_before
    return code, out.getvalue(), err.getvalue()


def test_eij():
    code, out, _ = run_cli(["eij", "x1 x2 x1^-1 x2^-1", "1", "2"])
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(["eij", "", "1", "2"])
    assert (code, out) == (0, "0\n")
    code, out, _ = run_cli(["eij", "x1 x2 x1 x2 x1^-2 x2^-2", "1", "2"])
    assert (code, out) == (0, "3\n")


def test_eij_reads_stdin():
    before = sys.stdin
    assert run_cli(["eij", "-", "1", "2"], stdin="x1 x2\nx1^-1 x2^-1\n") == (0, "1\n", "")
    assert sys.stdin is before


def test_eij_methods_disagree(monkeypatch):
    from clasplink import invariants

    monkeypatch.setattr(invariants, "e_ij", lambda w, i, j: 7)
    code, out, err = run_cli(["eij", "x1 x2 x1^-1 x2^-1", "1", "2", "--method", "both"])
    assert (code, out) == (1, "")
    assert err == "error: double sum gave 7 but the line integral gave 1\n"


def test_eij_error_paths():
    code, _, err = run_cli(["eij", "x1 xx", "1", "2"])
    assert code == 2
    assert "column 4" in err
    code, _, err = run_cli(["eij", "x1", "2", "2"])
    assert code == 2
    assert "distinct" in err


@pytest.mark.parametrize("i, j, bad", [("0", "2", "0"), ("-1", "2", "-1"), ("1", "0", "0")])
def test_eij_and_curve_refuse_an_index_below_one(tmp_path, i, j, bad):
    error = f"error: letter index must be a positive integer, got {bad}\n"
    for method in ("sum", "integral", "both"):
        assert run_cli(["eij", "x1 x2", i, j, "--method", method]) == (2, "", error)
    svg = tmp_path / "f.svg"
    assert run_cli(["curve", "x1 x2 x2^-1", i, j, "--out", str(svg)]) == (2, "", error)
    assert not svg.exists()


def test_lk():
    code, out, _ = run_cli(["lk", THREE_CLASPS, "1", "2"])
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(["lk", BORROMEAN, "1", "3"])
    assert (code, out) == (0, "0\n")


def chain_text(n):
    """Components 1..n in a chain: clasp ck joins k and k + 1 and is
    positive for odd k."""
    lines = [f"components {n}"]
    lines += [f"clasp c{k} {k} {k + 1} {'+' if k % 2 else '-'}" for k in range(1, n)]
    lines += [" ".join(["order", str(k)] + [f"c{m}" for m in (k - 1, k) if 1 <= m < n]) for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def test_words_reads_a_long_chain_in_one_pass(monkeypatch, tmp_path):
    n = 20_000
    text = chain_text(n)
    path = tmp_path / "chain.cc"
    path.write_text(text)
    # the _read_words calls, and the clasp ends they read as (clasp id, end);
    # a second call or a second read of an end fails at once, so a reader
    # that makes n passes fails in one, not after n passes
    calls, ends = [], set()
    read_words = complexes._read_words
    slots = {end: Clasp.__dict__[end] for end in ("a", "b")}

    def counted(end):
        slot = slots[end]

        def get(clasp):
            assert (clasp.id, end) not in ends, f"clasp {clasp.id}'s end {end} read twice"
            ends.add((clasp.id, end))
            return slot.__get__(clasp, Clasp)

        return property(get)

    def counting_read_words(F, components):
        assert not calls, "the words are read by a second _read_words call"
        calls.append(components)
        with monkeypatch.context() as patch:
            for end in slots:
                patch.setattr(Clasp, end, counted(end))
            return read_words(F, components)

    monkeypatch.setattr(complexes, "_read_words", counting_read_words)
    code, out, _ = run_cli(["words", str(path)])
    assert code == 0
    # one pass: all n words from one call, which reads each clasp's ends
    # once; one clasp_word call per component read every clasp n times
    assert calls == [range(1, n + 1)]
    assert ends == {(f"c{k}", end) for k in range(1, n) for end in "ab"}
    monkeypatch.undo()
    lines = out.splitlines()

    def letter(k, sign):
        return f"x{k}" if sign == 1 else f"x{k}^-1"

    def sign(k):  # of clasp ck
        return 1 if k % 2 else -1

    expected = [f"w1 = {letter(2, sign(1))}"]
    expected += [f"w{k} = {letter(k - 1, sign(k - 1))} {letter(k + 1, sign(k))}" for k in range(2, n)]
    expected += [f"w{n} = {letter(n - 1, sign(n - 1))}"]
    assert lines == expected
    F = parse_complex(text)
    for k in [*range(1, n + 1, 997), n]:
        assert lines[k - 1] == f"w{k} = {clasp_word(F, k)}"


TEETH, HEIGHT = 30, 100
# a closed simple comb of 6,122 steps: each tooth goes up one column and
# down the next, and a base line one step below closes it
COMB_TEXT = f"x2^{HEIGHT} x1 x2^-{HEIGHT} x1 " * TEETH + f"x2^-1 x1^-{2 * TEETH} x2"


@pytest.mark.parametrize(
    "text, line, walks",
    [
        # the curve is built, the SVG drawn and is_simple's bitmap marked
        (COMB_TEXT, f"length={TEETH * (2 * HEIGHT + 2) + 2 + 2 * TEETH} closed simple "
                    f"area={-TEETH * HEIGHT - 2 * TEETH}\n", 3),
        # the curve is built and the SVG drawn
        ("x1 x2^5000 x1", "length=5002 open area=5000\n", 2),
    ],
    ids=["closed-comb", "open"],
)
def test_curve_walks_the_segments_once_a_use(monkeypatch, tmp_path, text, line, walks):
    walked = []
    segments = LatticeCurve.segments

    def counting_segments(curve):
        walked.append(curve.length)
        return segments(curve)

    monkeypatch.setattr(LatticeCurve, "segments", counting_segments)
    svg_path = tmp_path / "curve.svg"
    assert run_cli(["curve", text, "1", "2", "--out", str(svg_path)]) == (0, line, "")
    assert len(walked) == walks and walked[0] > PIECE
    monkeypatch.undo()
    # the polyline passes through every vertex, with y flipped and one unit
    # of margin round the box
    vertices = build_curve(parse_word(text), 1, 2).vertices
    xs, ys = zip(*vertices)
    points = " ".join(f"{(x - min(xs) + 1) * SVG_SCALE},{(max(ys) - y + 1) * SVG_SCALE}" for x, y in vertices)
    svg = svg_path.read_text()
    width, height = (max(xs) - min(xs) + 2) * SVG_SCALE, (max(ys) - min(ys) + 2) * SVG_SCALE
    assert f'width="{width}" height="{height}"' in svg
    assert svg.split('points="')[1].split('"')[0] == points


def test_mu_builds_only_the_three_words_it_reads(monkeypatch, tmp_path):
    path = tmp_path / "chain.cc"
    path.write_text(chain_text(20_000))
    built = []
    of_runs = ClaspWord._of_runs

    def counting_of_runs(runs):
        built.append(sum(count for _, count in runs))
        return of_runs(runs)

    monkeypatch.setattr(ClaspWord, "_of_runs", counting_of_runs)
    code, out, _ = run_cli(["mu", str(path), "1", "2", "3"])
    assert code == 0
    assert out == "mu = 0\ne_12(w3) = 0\ne_23(w1) = 0\ne_31(w2) = 0\nNOT-WELL-DEFINED\n"
    # w1, w2 and w3, of one, two and two letters: no word of the other
    # 19,997 components is built
    assert built == [1, 2, 2]


def test_gen_brn_golden():
    code, out, _ = run_cli(["gen-brn", "1"])
    assert (code, out) == (0, GEN_BRN_1)


@pytest.mark.parametrize("n", [BRN_CAP + 1, 100_000_000])
def test_gen_brn_refuses_n_past_the_cap(n):
    assert run_cli(["gen-brn", str(n)]) == (2, "", f"error: n may be at most {BRN_CAP}, got {n}\n")


def test_curve_open_word(tmp_path):
    out_path = tmp_path / "open.svg"
    code, out, _ = run_cli(["curve", "x1 x2", "1", "2", "--out", str(out_path)])
    assert code == 0
    assert out == "length=2 open area=1\n"
    assert out_path.exists()


def test_curve_empty_word(tmp_path):
    out_path = tmp_path / "point.svg"
    code, out, _ = run_cli(["curve", "", "1", "2", "--out", str(out_path)])
    assert code == 0
    assert out == "length=0 closed simple area=0\n"
    svg = out_path.read_text()
    assert "<polyline" not in svg
    assert "<circle" in svg


def test_curve_unwritable_path(tmp_path):
    code, _, err = run_cli(["curve", "x1", "1", "2", "--out", str(tmp_path / "no" / "dir" / "x.svg")])
    assert code == 3
    assert "error" in err


def test_missing_input_file():
    code, _, err = run_cli(["mu", "/no/such/file.cc", "1", "2", "3"])
    assert code == 3


def test_oracle_disagreement_exit_code(monkeypatch):
    from clasplink import oracles
    from clasplink.oracles import OracleReport

    monkeypatch.setattr(
        oracles, "verify_min_perimeter", lambda **bounds: [OracleReport(1, 4, 6)]
    )
    code, out, _ = run_cli(["oracle", "polyomino", "--max-area", "1"])
    assert code == 1
    assert "no" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("oracle", "words", "--max-area", "3"), "error: --max-area does not apply to oracle words\n"),
        (("oracle", "polyomino", "--max-len", "2"), "error: --max-len does not apply to oracle polyomino\n"),
    ],
    ids=["words-max-area", "polyomino-max-len"],
)
def test_oracle_refuses_the_other_kinds_bound(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", message)


# --- error lines that quote a command-line integer -----------------------------

HUGE = "9" * 3000  # converts: int() refuses only past 4300 digits
CLIPPED = "9" * QUOTE_CHARS + "..."


def usage_error(argv) -> str:
    """The last stderr line of an argparse usage error (exit 2)."""
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: clasplink")
    return err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, name",
    [
        (("eij", "x1", "1", "9" * 5000), "j"),
        (("curve", "x1", "1" + "x" * 3000, "2", "--out", "c.svg"), "i"),
        (("lk", BORROMEAN, "1", "2" * 3000 + "z"), "j"),
        (("mu", BORROMEAN, "1", "2", "3" * 5000), "k"),
        (("gen-brn", "1" * 5000), "n"),
        (("oracle", "words", "--max-len", "4" * 5000), "--max-len"),
        (("oracle", "polyomino", "--max-area", "3", "--cap", "12" * 3000), "--cap"),
    ],
)
def test_invalid_int_argument_is_clipped(argv, name):
    bad = next(arg for arg in argv if len(arg) > 1000)
    line = usage_error(argv)
    assert line.endswith(f"error: argument {name}: invalid int value: {bad[:QUOTE_CHARS] + '...'!r}")
    assert len(line) < 150


@pytest.mark.parametrize("value", ["abc", "", "1.5", "1e3", "x" * QUOTE_CHARS, "'\"\\"])
def test_invalid_int_argument_quotes_short_values_as_argparse_does(capsys, value):
    plain = argparse.ArgumentParser(prog="clasplink eij")
    plain.add_argument("word")
    plain.add_argument("i", type=int)
    plain.add_argument("j", type=int)
    with pytest.raises(SystemExit):
        plain.parse_args(["x1", "1", value])
    expected = capsys.readouterr().err.splitlines()[-1]
    assert usage_error(["eij", "x1", "1", value]) == expected


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (("lk", BORROMEAN, "1", "\u0662"), "j", "\u0662"),
        (("gen-brn", "0_1"), "n", "0_1"),
        (("oracle", "words", "--max-len", "\u0661\u0662"), "--max-len", "\u0661\u0662"),
    ],
    ids=["arabic-indic-two", "underscore", "arabic-indic-twelve"],
)
def test_integer_arguments_take_ascii_digits_only(argv, name, value):
    # int() reads each of these; complex files take ASCII digits only, and
    # so does the command line
    line = usage_error(argv)
    assert line == f"clasplink {argv[0]}: error: argument {name}: invalid int value: {value!r}"


@pytest.mark.parametrize(
    "j, expected",
    [
        ("+2", (0, "0\n", "")),
        (" 2", (0, "0\n", "")),
        ("-1", (2, "", "error: component -1 is not a component of this complex (n=3)\n")),
    ],
    ids=["plus-sign", "leading-space", "negative"],
)
def test_ascii_integer_arguments_keep_their_output(j, expected):
    assert run_cli(["lk", BORROMEAN, "1", j]) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lk", BORROMEAN, "1"), "clasplink lk: error: the following arguments are required: j"),
        (("eij", "x1", "1", "2", "--method", "area"), "clasplink eij: error: argument --method: invalid choice: 'area'"),
        (("gen-brn", "two"), "clasplink gen-brn: error: argument n: invalid int value: 'two'"),
    ],
    ids=["missing-argument", "bad-choice", "bad-integer"],
)
def test_usage_errors_print_the_usage_then_one_error_line(argv, message):
    # argparse's own errors are the one exception to a single error line
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: clasplink {argv[0]} [-h]")
    assert lines[-1].startswith(message)  # newer Pythons drop the quotes from a choice list
    assert sum("error:" in line for line in lines) == 1


@pytest.mark.parametrize("argv", [("lk", BORROMEAN, "1", HUGE), ("mu", BORROMEAN, HUGE, "2", "3")])
def test_component_past_the_complex_is_clipped(argv):
    assert run_cli(argv) == (2, "", f"error: component {CLIPPED} is not a component of this complex (n=3)\n")
    assert run_cli(["lk", BORROMEAN, "1", "4"]) == (2, "", "error: component 4 is not a component of this complex (n=3)\n")


def test_gen_brn_past_the_cap_is_clipped():
    assert run_cli(["gen-brn", HUGE]) == (2, "", f"error: n may be at most {BRN_CAP}, got {CLIPPED}\n")
    assert run_cli(["gen-brn", "-" + HUGE]) == (2, "", f"error: n must be at least 1, got -{CLIPPED[:-4]}...\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("oracle", "words", "--max-len", HUGE), f"max_len {CLIPPED} exceeds the cap 12"),
        (("oracle", "words", "--max-len", HUGE, "--cap", HUGE[:-1]), f"max_len {CLIPPED} exceeds the cap {CLIPPED}"),
        (("oracle", "polyomino", "--max-area", HUGE), f"max_area {CLIPPED} exceeds the cap 10"),
        (("oracle", "polyomino", "--max-area", "-" + HUGE), f"max_area must be at least 1, got -{CLIPPED[:-4]}..."),
        (("oracle", "polyomino", "--max-area", HUGE, "--cap", HUGE),
         f"max_area {CLIPPED} needs a deeper recursion than the limit {sys.getrecursionlimit()} allows"),
        (("oracle", "words", "--max-len", "13"), "max_len 13 exceeds the cap 12"),
    ],
)
def test_oracle_cap_messages_are_clipped(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")
