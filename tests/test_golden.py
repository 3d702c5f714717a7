"""Diff CLI subcommands against golden stdout, stderr and exit codes.

The oracle files in tests/golden/ were captured from the tree-walk word
sweep and the cell-set polyomino enumeration that the current oracles
replaced, so any change in a row, the table layout or the exit code shows
here.

The files in tests/golden/complex/ were captured from the complex
subcommands before a complex was validated once and remembered: bounds,
words, lk, mu and validate on data/*.cc and on two invalid complexes kept
next to the outputs, and gen-brn N piped into bounds and mu for N = 1..6.
The five-component cases there (words, validate, bounds, lk 2 5 and mu on
1 2 3, 5 2 4 and the bad 1 2 6, on five-component.cc) were captured
before clasp_word, clasp_words and triple_linking read their words
through one loop.  Six more invalid complexes, one for each remaining kind
of violation (duplicate clasp id, unknown component, an order that repeats
an id, lists an unknown id or lists a non-incident clasp) and one with
several kinds at once that pins the order of the lines, were captured
through all five subcommands before validate accepted a well-formed order
with one set comparison.

The files in tests/golden/words/ were captured from eij (all three
methods) and curve (with and without --grid) before parse_word read each
distinct term once and the SVG render formatted each coordinate once:
stdout, stderr, exit code and the SVG bytes, on data/staircase.word,
three seeded words of 1e3 to 1e4 letters and one malformed word per
kind of bad term, all kept next to the outputs.  cases.json gives each
case's stdin, argv ("OUT" stands for the SVG path) and exit code.
"""

import io
import json
from pathlib import Path

import pytest

from clasplink.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


def argv_for(name):
    """oracle-words-07.out -> oracle words --max-len 7"""
    _, kind, size = name.removesuffix(".out").split("-")
    flag = "--max-len" if kind == "words" else "--max-area"
    return ["oracle", kind, flag, str(int(size))]


def test_golden_set_is_complete():
    expected = {f"oracle-words-{n:02d}.out" for n in range(1, 13)}
    expected |= {f"oracle-polyomino-{n:02d}.out" for n in range(1, 11)}
    assert set(EXIT_CODES) == expected
    assert {p.name for p in GOLDEN.glob("*.out")} == expected


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_oracle_matches_golden(capsys, name):
    code = main(argv_for(name))
    captured = capsys.readouterr()
    assert code == EXIT_CODES[name]
    assert captured.out == (GOLDEN / name).read_text()
    assert captured.err == ""


DATA = GOLDEN.parents[1] / "data"
COMPLEX = GOLDEN / "complex"
# the five-component and the later invalid cases were captured later, with
# their exit codes in files of their own, so the earlier captures stay byte
# for byte as taken
COMPLEX_EXIT_CODES = {
    **json.loads((COMPLEX / "exit_codes.json").read_text()),
    **json.loads((COMPLEX / "five-component-exit_codes.json").read_text()),
    **json.loads((COMPLEX / "invalid-kinds-exit_codes.json").read_text()),
}
SUBCOMMANDS = {
    "bounds": [],
    "words": [],
    "lk": ["1", "2"],
    "mu": ["1", "2", "3"],
    "validate": [],
}


def complex_cases():
    """name -> (argv, gen-brn size piped to stdin or None)."""
    cases = {}
    for path in sorted(DATA.glob("*.cc")) + sorted(COMPLEX.glob("invalid-*.cc")):
        three = "components 3" in path.read_text()
        for command, extra in SUBCOMMANDS.items():
            # mu on the shipped files is captured for 3-component ones only;
            # the invalid complexes go through all five subcommands
            if command == "mu" and not three:
                continue
            cases[f"{command}-{path.stem}"] = ([command, str(path), *extra], None)
    for n in range(1, 7):
        cases[f"gen-brn-{n}-bounds"] = (["bounds", "-"], n)
        cases[f"gen-brn-{n}-mu"] = (["mu", "-", "1", "2", "3"], n)
    # five components, clasped on every pair: mu on triples other than
    # 1 2 3 and on a component that is not there, and bounds refusing it
    five = COMPLEX / "five-component.cc"
    for command, *extra in (
        ("words",), ("validate",), ("bounds",), ("lk", "2", "5"),
        ("mu", "1", "2", "3"), ("mu", "5", "2", "4"), ("mu", "1", "2", "6"),
    ):
        cases["-".join([command, five.stem, *extra])] = ([command, str(five), *extra], None)
    return cases


CASES = complex_cases()


def test_complex_golden_set_is_complete():
    assert set(CASES) == set(COMPLEX_EXIT_CODES)
    assert {p.stem for p in COMPLEX.glob("*.out")} == set(CASES)
    assert {p.stem for p in COMPLEX.glob("*.err")} == set(CASES)
    assert len(CASES) == 68


@pytest.mark.parametrize("name", sorted(CASES))
def test_complex_subcommand_matches_golden(capsys, monkeypatch, name):
    argv, brn = CASES[name]
    if brn is not None:
        assert main(["gen-brn", str(brn)]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == COMPLEX_EXIT_CODES[name]
    assert captured.out == (COMPLEX / f"{name}.out").read_text()
    assert captured.err == (COMPLEX / f"{name}.err").read_text()


WORDS = GOLDEN / "words"
WORD_CASES = json.loads((WORDS / "cases.json").read_text())


def test_word_golden_set_is_complete():
    inputs = {Path(case["stdin"]).stem for case in WORD_CASES.values()}
    assert inputs == {"staircase"} | {p.stem for p in WORDS.glob("*.word")}
    assert len(inputs) == 11
    assert {p.stem for p in WORDS.glob("*.out")} == set(WORD_CASES)
    assert {p.stem for p in WORDS.glob("*.err")} == set(WORD_CASES)
    assert {p.stem for p in WORDS.glob("*.svg")} == {
        name for name, case in WORD_CASES.items() if case["argv"][0] == "curve" and case["exit"] == 0
    }
    for name, case in WORD_CASES.items():
        assert name.removeprefix(Path(case["stdin"]).stem + "-") in (
            "eij-sum", "eij-integral", "eij-both", "curve", "curve-grid"
        )


@pytest.mark.parametrize("name", sorted(WORD_CASES))
def test_word_subcommand_matches_golden(capsys, monkeypatch, tmp_path, name):
    case = WORD_CASES[name]
    svg = tmp_path / "curve.svg"
    text = (GOLDEN.parents[1] / case["stdin"]).read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main([str(svg) if arg == "OUT" else arg for arg in case["argv"]])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == (WORDS / f"{name}.out").read_text()
    assert captured.err == (WORDS / f"{name}.err").read_text()
    expected_svg = WORDS / f"{name}.svg"
    if expected_svg.exists():
        assert svg.read_bytes() == expected_svg.read_bytes()
    else:
        assert not svg.exists()
