"""Acceptance gate: every shipped guarantee, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

from reference import fixed_polyominoes, word_tree

from clasplink.bounds import bound_report, ceil_two_sqrt, three_component_lower_bound, two_component_clasp_number
from clasplink.cli import main
from clasplink.complexes import (
    generate_brn,
    parse_complex,
    validate,
    with_rotated_order,
)
from clasplink.curves import build_curve
from clasplink.invariants import e_ij, pairwise_linking, triple_linking
from clasplink.oracles import count_fixed_polyominoes, verify_min_perimeter, verify_word_length_bound
from clasplink.words import ClaspWord, parse_word

DATA = Path(__file__).resolve().parents[1] / "data"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_commutator_pair_count():
    with criterion(1, "e_12 of the commutator word is exactly 1, under 1 ms"):
        w = parse_word("x1 x2 x1^-1 x2^-1")
        assert e_ij(w, 1, 2) == 1  # warm call
        start = time.perf_counter()
        value = e_ij(w, 1, 2)
        elapsed = time.perf_counter() - start
        assert value == 1
        assert elapsed < 0.001


def test_criterion_2_staircase_both_paths():
    with criterion(2, "staircase word: both computation paths give 3; curve closed, simple, length 8"):
        w = parse_word("x1 x2 x1 x2 x1^-2 x2^-2")
        curve = build_curve(w, 1, 2)
        assert e_ij(w, 1, 2) == 3
        assert curve.line_integral_x_dy() == 3
        assert curve.is_closed()
        assert curve.is_simple()
        assert curve.length == 8


def test_criterion_3_shipped_borromean_file():
    with criterion(3, "shipped Borromean file: mu = 1 with contributions (0, 1, 0)"):
        F = parse_complex((DATA / "borromean.cc").read_text())
        assert validate(F.n, F.clasps, F.orders) == []
        result = triple_linking(F, 1, 2, 3)
        assert result.value == 1
        assert result.contributions == (0, 1, 0)
        assert result.well_defined


def test_criterion_4_generalized_borromean_family():
    with criterion(4, "n-fold family: mu = n^2, 4n clasps, vanishing linking, n <= 25, under 1 s"):
        start = time.perf_counter()
        for n in range(1, 26):
            F = generate_brn(n)
            assert triple_linking(F, 1, 2, 3).value == n * n
            assert len(F.clasps) == 4 * n
            for i, j in ((1, 2), (2, 3), (3, 1)):
                assert pairwise_linking(F, i, j) == 0
        assert time.perf_counter() - start < 1.0


def test_criterion_5_triple_linking_lower_bound(capsys):
    with criterion(5, "lower bound: mu=1 -> 4, mu=4 -> 6; report on the 2-fold complex prints 6 <= C <= 8"):
        assert three_component_lower_bound(1) == 4
        assert three_component_lower_bound(4) == 6
        report = bound_report(generate_brn(2))
        assert (report.lower_C, report.upper_C) == (6, 8)
        assert "6 <= C <= 8" in report.format()
        text = print_complex_via_cli(capsys)
        assert text.splitlines()[0] == "6 <= C <= 8"


def print_complex_via_cli(capsys):
    import io

    gen_code = main(["gen-brn", "2"])
    gen_out = capsys.readouterr().out
    assert gen_code == 0
    sys.stdin = io.StringIO(gen_out)
    try:
        bounds_code = main(["bounds", "-"])
    finally:
        sys.stdin = sys.__stdin__
    out = capsys.readouterr().out
    assert bounds_code == 0
    return out


def test_criterion_6_equivalence_exhaustive_and_random():
    with criterion(6, "pair count = line integral: all 4^8 length-8 words plus 10^4 random words, under 10 s"):
        start = time.perf_counter()
        alphabet = tuple((i * s, 1) for i in (1, 2) for s in (1, -1))
        checked = 0
        for combo in itertools.product(alphabet, repeat=8):
            w = ClaspWord(combo)
            assert e_ij(w, 1, 2) == build_curve(w, 1, 2).line_integral_x_dy()
            checked += 1
        assert checked == 4**8 == 65_536
        rng = random.Random(20260810)
        for _ in range(10_000):
            w = ClaspWord(
                (rng.randint(1, 3) * rng.choice((1, -1)), 1)
                for _ in range(rng.randint(0, 30))
            )
            for i, j in itertools.permutations((1, 2, 3), 2):
                assert e_ij(w, i, j) == build_curve(w, i, j).line_integral_x_dy()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_7_polyomino_oracle_gate():
    with criterion(7, "polyomino gate: minimal perimeter equals 2*ceil(2*sqrt(A)) for A <= 10, both counts agree, under 2 min"):
        start = time.perf_counter()
        reports = verify_min_perimeter(10)
        assert len(reports) == 10
        assert all(r.agree for r in reports)
        growth_counts = [len(shapes) for shapes in fixed_polyominoes(10)[1:]]
        assert growth_counts == count_fixed_polyominoes(10)
        assert growth_counts == [1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446]
        assert time.perf_counter() - start < 120.0


def test_criterion_8_word_length_oracle_gate():
    with criterion(8, "word gate: no counterexample to the length bound through length 12, under 2 min"):
        start = time.perf_counter()
        reports = verify_word_length_bound(12)
        assert all(r.observed >= r.predicted for r in reports)  # zero counterexamples
        assert all(r.agree for r in reports)  # the bound is attained at every value

        # Direct per-curve check: walk every balanced word again and test
        # each induced closed curve.  The total count of balanced words has
        # a closed form, which certifies the sweep itself is exhaustive.
        bound = {a: 2 * ceil_two_sqrt(a) for a in range(0, 10)}
        seen = 0
        for depth, x, y, integral in word_tree(12):
            if x == y == 0:
                seen += 1
                assert depth >= bound[abs(integral)]
        assert seen == sum(comb(length, length // 2) ** 2 for length in range(0, 13, 2))
        assert time.perf_counter() - start < 120.0


def test_criterion_9_basepoint_rotation_invariance():
    with criterion(9, "every single-component basepoint rotation preserves mu (Borromean and n <= 5 family)"):
        complexes = [parse_complex((DATA / "borromean.cc").read_text())]
        complexes += [generate_brn(n) for n in range(1, 6)]
        for F in complexes:
            expected = triple_linking(F, 1, 2, 3).value
            for k in (1, 2, 3):
                for r in range(len(F.orders[k - 1])):
                    assert triple_linking(with_rotated_order(F, k, r), 1, 2, 3).value == expected


def test_criterion_10_two_component_exactness():
    with criterion(10, "lk = 1 complex with 3 clasps: exact clasp number 1 beside upper bound 3"):
        assert two_component_clasp_number(1) == 1
        F = parse_complex((DATA / "two_component_three_clasps.cc").read_text())
        assert pairwise_linking(F, 1, 2) == 1
        report = bound_report(F)
        assert report.exact_C == 1
        assert report.upper_C == 3
        assert report.summary() == "C = 1 (exact); this complex has 3 clasps"


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "repeated CLI runs on the shipped files are byte-identical"):
        script = [sys.executable, "-m", "clasplink.cli"]
        invocations = [
            ["mu", str(DATA / "borromean.cc"), "1", "2", "3"],
            ["bounds", str(DATA / "borromean.cc")],
            ["bounds", str(DATA / "two_component_three_clasps.cc")],
            ["words", str(DATA / "borromean.cc")],
            ["lk", str(DATA / "two_component_three_clasps.cc"), "1", "2"],
            ["validate", str(DATA / "borromean.cc")],
            ["gen-brn", "4"],
            ["oracle", "polyomino", "--max-area", "5"],
            ["oracle", "words", "--max-len", "8"],
        ]
        for argv in invocations:
            first = subprocess.run(script + argv, capture_output=True)
            second = subprocess.run(script + argv, capture_output=True)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout  # something was printed

        word_file = DATA / "staircase.word"
        svgs = []
        for name in ("one.svg", "two.svg"):
            out_path = tmp_path / name
            result = subprocess.run(
                script + ["curve", "-", "1", "2", "--out", str(out_path), "--grid"],
                input=word_file.read_bytes(),
                capture_output=True,
            )
            assert result.returncode == 0
            assert result.stdout == b"length=8 closed simple area=3\n"
            svgs.append(out_path.read_bytes())
        assert svgs[0] == svgs[1]
