import argparse
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clasplink._record import QUOTE_CHARS
from clasplink.cli import main, render_curve_svg
from clasplink.complexes import BRN_CAP, clasp_word, parse_complex
from clasplink.curves import build_curve
from clasplink.words import ClaspWord, parse_word

DATA = Path(__file__).resolve().parents[1] / "data"
BORROMEAN = str(DATA / "borromean.cc")
THREE_CLASPS = str(DATA / "two_component_three_clasps.cc")

MU_BORROMEAN = """\
mu = 1
e_12(w3) = 0
e_23(w1) = 1
e_31(w2) = 0
WELL-DEFINED
"""

BOUNDS_BORROMEAN = """\
C = 4 (exact)
lower_C = 4 # triple linking lower bound
upper_C = 4 # clasp count of this complex
exact_C = 4 # lower and upper bounds coincide
lower_B = 0 # sum of |lk| over pairs
upper_B = 4 # crossing change at each clasp
"""

BOUNDS_THREE_CLASPS = """\
C = 1 (exact); this complex has 3 clasps
lower_C = 1 # pairwise linking number
upper_C = 3 # clasp count of this complex
exact_C = 1 # linking number determines the clasp number
lower_B = 1 # sum of |lk| over pairs
upper_B = 3 # crossing change at each clasp
"""

WORDS_BORROMEAN = """\
w1 = x3^-1 x2 x3 x2^-1
w2 = x1^-1 x1
w3 = x1^-1 x1
"""

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eij(capsys):
    code, out, _ = run(capsys, "eij", "x1 x2 x1^-1 x2^-1", "1", "2")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "eij", "", "1", "2")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "eij", "x1 x2 x1 x2 x1^-2 x2^-2", "1", "2")
    assert (code, out) == (0, "3\n")


def test_eij_methods_agree(capsys):
    word = "x1 x2 x1 x2 x1^-2 x2^-2"
    outputs = set()
    for method in ("sum", "integral", "both"):
        code, out, _ = run(capsys, "eij", word, "1", "2", "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {"3\n"}


def test_eij_methods_disagree(capsys, monkeypatch):
    from clasplink import invariants

    monkeypatch.setattr(invariants, "e_ij", lambda w, i, j: 7)
    code, out, err = run(capsys, "eij", "x1 x2 x1^-1 x2^-1", "1", "2", "--method", "both")
    assert (code, out) == (1, "")
    assert err == "error: double sum gave 7 but the line integral gave 1\n"


def test_eij_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("x1 x2\nx1^-1 x2^-1\n"))
    code, out, _ = run(capsys, "eij", "-", "1", "2")
    assert (code, out) == (0, "1\n")


def test_eij_error_paths(capsys):
    code, _, err = run(capsys, "eij", "x1 xx", "1", "2")
    assert code == 2
    assert "column 4" in err
    code, _, err = run(capsys, "eij", "x1", "2", "2")
    assert code == 2
    assert "distinct" in err


@pytest.mark.parametrize("i, j, bad", [("0", "2", "0"), ("-1", "2", "-1"), ("1", "0", "0")])
def test_eij_and_curve_refuse_an_index_below_one(capsys, tmp_path, i, j, bad):
    error = f"error: letter index must be a positive integer, got {bad}\n"
    for method in ("sum", "integral", "both"):
        assert run(capsys, "eij", "x1 x2", i, j, "--method", method) == (2, "", error)
    svg = tmp_path / "f.svg"
    assert run(capsys, "curve", "x1 x2 x2^-1", i, j, "--out", str(svg)) == (2, "", error)
    assert not svg.exists()


def test_mu_golden(capsys):
    code, out, _ = run(capsys, "mu", BORROMEAN, "1", "2", "3")
    assert code == 0
    assert out == MU_BORROMEAN


def test_mu_rejects_invalid_complex(capsys, tmp_path):
    bad = tmp_path / "bad.cc"
    bad.write_text("components 2\nclasp a 1 1 +\norder 1 a\norder 2\n")
    code, _, err = run(capsys, "mu", str(bad), "1", "2", "3")
    assert code == 2
    assert "self-clasp" in err


def test_lk(capsys):
    code, out, _ = run(capsys, "lk", THREE_CLASPS, "1", "2")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "lk", BORROMEAN, "1", "3")
    assert (code, out) == (0, "0\n")


def test_words_golden(capsys):
    code, out, _ = run(capsys, "words", BORROMEAN)
    assert code == 0
    assert out == WORDS_BORROMEAN


def chain_text(n):
    """Components 1..n in a chain: clasp ck joins k and k + 1 and is
    positive for odd k."""
    lines = [f"components {n}"]
    lines += [f"clasp c{k} {k} {k + 1} {'+' if k % 2 else '-'}" for k in range(1, n)]
    lines += [" ".join(["order", str(k)] + [f"c{m}" for m in (k - 1, k) if 1 <= m < n]) for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def test_words_reads_a_long_chain_in_one_pass(capsys, tmp_path):
    n = 20_000
    text = chain_text(n)
    path = tmp_path / "chain.cc"
    path.write_text(text)

    def best_of_two(command):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            code = main([command, str(path)])
            times.append(time.perf_counter() - start)
            out = capsys.readouterr().out
        assert code == 0
        return out, min(times)

    out, words_s = best_of_two("words")
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
    _, validate_s = best_of_two("validate")
    # one clasp_word call per component, each over every clasp, took 55
    # times as long as validate on this file
    assert words_s < 5 * validate_s


def test_mu_builds_only_the_three_words_it_reads(capsys, monkeypatch, tmp_path):
    path = tmp_path / "chain.cc"
    path.write_text(chain_text(20_000))
    built = []
    init = ClaspWord.__init__

    def counting_init(self, letters=()):
        built.append(len(letters))
        init(self, letters)

    monkeypatch.setattr(ClaspWord, "__init__", counting_init)
    code, out, _ = run(capsys, "mu", str(path), "1", "2", "3")
    assert code == 0
    assert out == "mu = 0\ne_12(w3) = 0\ne_23(w1) = 0\ne_31(w2) = 0\nNOT-WELL-DEFINED\n"
    # w1, w2 and w3, of one, two and two letters: no word of the other
    # 19,997 components is built
    assert built == [1, 2, 2]


def test_bounds_golden(capsys):
    code, out, _ = run(capsys, "bounds", BORROMEAN)
    assert (code, out) == (0, BOUNDS_BORROMEAN)
    code, out, _ = run(capsys, "bounds", THREE_CLASPS)
    assert (code, out) == (0, BOUNDS_THREE_CLASPS)


def test_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", BORROMEAN)
    assert (code, out) == (0, "OK\n")
    bad = tmp_path / "bad.cc"
    bad.write_text("components 2\nclasp a 1 2 +\norder 1 a\norder 2\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "incomplete" in out


def test_gen_brn_golden(capsys):
    code, out, _ = run(capsys, "gen-brn", "1")
    assert (code, out) == (0, GEN_BRN_1)


def test_gen_brn_rejects_zero(capsys):
    code, _, err = run(capsys, "gen-brn", "0")
    assert code == 2
    assert "at least 1" in err


@pytest.mark.parametrize("n", [BRN_CAP + 1, 100_000_000])
def test_gen_brn_refuses_n_past_the_cap(capsys, n):
    assert run(capsys, "gen-brn", str(n)) == (2, "", f"error: n may be at most {BRN_CAP}, got {n}\n")


def test_curve_svg(capsys, tmp_path):
    out_path = tmp_path / "stair.svg"
    code, out, _ = run(
        capsys, "curve", "x1 x2 x1 x2 x1^-2 x2^-2", "1", "2", "--out", str(out_path)
    )
    assert code == 0
    assert out == "length=8 closed simple area=3\n"
    svg = out_path.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0]
    assert len(points.split()) == 9  # one pair per vertex
    assert "<circle" in svg


def test_curve_open_word(capsys, tmp_path):
    out_path = tmp_path / "open.svg"
    code, out, _ = run(capsys, "curve", "x1 x2", "1", "2", "--out", str(out_path))
    assert code == 0
    assert out == "length=2 open area=1\n"
    assert out_path.exists()


def test_curve_empty_word(capsys, tmp_path):
    out_path = tmp_path / "point.svg"
    code, out, _ = run(capsys, "curve", "", "1", "2", "--out", str(out_path))
    assert code == 0
    assert out == "length=0 closed simple area=0\n"
    svg = out_path.read_text()
    assert "<polyline" not in svg
    assert "<circle" in svg


def test_curve_unwritable_path(capsys, tmp_path):
    code, _, err = run(
        capsys, "curve", "x1", "1", "2", "--out", str(tmp_path / "no" / "dir" / "x.svg")
    )
    assert code == 3
    assert "error" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "mu", "/no/such/file.cc", "1", "2", "3")
    assert code == 3


def test_oracle_polyomino(capsys):
    code, out, _ = run(capsys, "oracle", "polyomino", "--max-area", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["parameter", "observed", "predicted", "agree"]
    assert len(lines) == 7
    assert all(line.split()[-1] == "yes" for line in lines[1:])


def test_oracle_words(capsys):
    code, out, _ = run(capsys, "oracle", "words", "--max-len", "8")
    assert code == 0
    assert all(line.split()[-1] == "yes" for line in out.splitlines()[1:])


def test_oracle_disagreement_exit_code(capsys, monkeypatch):
    from clasplink import oracles
    from clasplink.oracles import OracleReport

    monkeypatch.setattr(
        oracles, "verify_min_perimeter", lambda max_area, cap: [OracleReport(1, 4, 6)]
    )
    code, out, _ = run(capsys, "oracle", "polyomino", "--max-area", "1")
    assert code == 1
    assert "no" in out


def test_oracle_cap_errors(capsys):
    code, _, err = run(capsys, "oracle", "polyomino", "--max-area", "0")
    assert code == 2
    code, _, err = run(capsys, "oracle", "polyomino", "--max-area", "12")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("oracle", "words", "--max-area", "3"), "error: --max-area does not apply to oracle words\n"),
        (("oracle", "polyomino", "--max-len", "2"), "error: --max-len does not apply to oracle polyomino\n"),
    ],
    ids=["words-max-area", "polyomino-max-len"],
)
def test_oracle_refuses_the_other_kinds_bound(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_oracle_polyomino_deeper_than_recursion_limit(capsys):
    # The Redelmeier walk recurses once per cell; an area past the
    # recursion limit is refused before the walk starts.
    code, out, err = run(capsys, "oracle", "polyomino", "--max-area", "2000", "--cap", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_area 2000 needs a deeper recursion")
    assert "Traceback" not in err


# --- error lines that quote a command-line integer -----------------------------

HUGE = "9" * 3000  # converts: int() refuses only past 4300 digits
CLIPPED = "9" * QUOTE_CHARS + "..."


def usage_error(capsys, *argv) -> str:
    """The last stderr line of an argparse usage error (exit 2)."""
    with pytest.raises(SystemExit) as stopped:
        main(list(argv))
    assert stopped.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


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
def test_invalid_int_argument_is_clipped(capsys, argv, name):
    bad = next(arg for arg in argv if len(arg) > 1000)
    line = usage_error(capsys, *argv)
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
    assert usage_error(capsys, "eij", "x1", "1", value) == expected


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (("lk", BORROMEAN, "1", "\u0662"), "j", "\u0662"),
        (("gen-brn", "0_1"), "n", "0_1"),
        (("oracle", "words", "--max-len", "\u0661\u0662"), "--max-len", "\u0661\u0662"),
    ],
    ids=["arabic-indic-two", "underscore", "arabic-indic-twelve"],
)
def test_integer_arguments_take_ascii_digits_only(capsys, argv, name, value):
    # int() reads each of these; complex files take ASCII digits only, and
    # so does the command line
    line = usage_error(capsys, *argv)
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
def test_ascii_integer_arguments_keep_their_output(capsys, j, expected):
    assert run(capsys, "lk", BORROMEAN, "1", j) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lk", BORROMEAN, "1"), "clasplink lk: error: the following arguments are required: j"),
        (("eij", "x1", "1", "2", "--method", "area"), "clasplink eij: error: argument --method: invalid choice: 'area'"),
        (("gen-brn", "two"), "clasplink gen-brn: error: argument n: invalid int value: 'two'"),
    ],
    ids=["missing-argument", "bad-choice", "bad-integer"],
)
def test_usage_errors_print_the_usage_then_one_error_line(capsys, argv, message):
    # argparse's own errors are the one exception to a single error line
    with pytest.raises(SystemExit) as stopped:
        main(list(argv))
    assert stopped.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: clasplink {argv[0]} [-h]")
    assert lines[-1].startswith(message)  # newer Pythons drop the quotes from a choice list
    assert sum("error:" in line for line in lines) == 1


@pytest.mark.parametrize("argv", [("lk", BORROMEAN, "1", HUGE), ("mu", BORROMEAN, HUGE, "2", "3")])
def test_component_past_the_complex_is_clipped(capsys, argv):
    assert run(capsys, *argv) == (2, "", f"error: component {CLIPPED} is not a component of this complex (n=3)\n")
    assert run(capsys, "lk", BORROMEAN, "1", "4") == (2, "", "error: component 4 is not a component of this complex (n=3)\n")


def test_gen_brn_past_the_cap_is_clipped(capsys):
    assert run(capsys, "gen-brn", HUGE) == (2, "", f"error: n may be at most {BRN_CAP}, got {CLIPPED}\n")
    assert run(capsys, "gen-brn", "-" + HUGE) == (2, "", f"error: n must be at least 1, got -{CLIPPED[:-4]}...\n")


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
def test_oracle_cap_messages_are_clipped(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_cli_outputs_are_deterministic(capsys, tmp_path):
    invocations = [
        ("mu", BORROMEAN, "1", "2", "3"),
        ("bounds", BORROMEAN),
        ("bounds", THREE_CLASPS),
        ("words", BORROMEAN),
        ("lk", BORROMEAN, "2", "3"),
        ("validate", BORROMEAN),
        ("gen-brn", "3"),
        ("eij", "x1 x2 x1^-1 x2^-1", "1", "2"),
        ("oracle", "polyomino", "--max-area", "4"),
        ("oracle", "words", "--max-len", "6"),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    run(capsys, "curve", "x1 x2 x1 x2 x1^-2 x2^-2", "1", "2", "--out", str(svg_a), "--grid")
    run(capsys, "curve", "x1 x2 x1 x2 x1^-2 x2^-2", "1", "2", "--out", str(svg_b), "--grid")
    assert svg_a.read_bytes() == svg_b.read_bytes()


def test_render_curve_svg_grid_lines():
    curve = build_curve(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2)
    svg = render_curve_svg(curve, grid=True)
    assert svg.count("<line") == 8  # 4 vertical + 4 horizontal for a unit square
    assert render_curve_svg(curve, grid=False).count("<line") == 0


def test_pipe_gen_brn_into_mu_and_bounds():
    gen = subprocess.run(
        [sys.executable, "-m", "clasplink.cli", "gen-brn", "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    mu = subprocess.run(
        [sys.executable, "-m", "clasplink.cli", "mu", "-", "1", "2", "3"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert mu.returncode == 0
    assert mu.stdout.splitlines()[0] == "mu = 9"

    bounds = subprocess.run(
        [sys.executable, "-m", "clasplink.cli", "bounds", "-"],
        input=subprocess.run(
            [sys.executable, "-m", "clasplink.cli", "gen-brn", "2"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout,
        capture_output=True,
        text=True,
    )
    assert bounds.returncode == 0
    assert bounds.stdout.splitlines()[0] == "6 <= C <= 8"
