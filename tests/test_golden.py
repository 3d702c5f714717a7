"""Diff the oracle subcommands against golden stdout and exit codes.

The files in tests/golden/ were captured from the tree-walk word sweep and
the cell-set polyomino enumeration that the current oracles replaced, so
any change in a row, the table layout or the exit code shows here.
"""

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
