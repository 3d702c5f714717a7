from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import perimeter, smallest_root_by_counting
from test_invariants import shuffled_complexes

from clasplink.bounds import (
    BoundReport,
    bound_report,
    ceil_two_sqrt,
    min_polyomino_perimeter,
    three_component_lower_bound,
    two_component_clasp_number,
)
from clasplink.complexes import CComplex, Clasp, InvalidComplexError, generate_brn, parse_complex
from clasplink.invariants import e_ij
from clasplink.words import ClaspWord


def test_ceil_two_sqrt_examples():
    assert ceil_two_sqrt(0) == 0
    assert ceil_two_sqrt(1) == 2
    assert ceil_two_sqrt(3) == 4
    assert ceil_two_sqrt(4) == 4


def test_ceil_two_sqrt_defining_property():
    for a in range(1, 10_001):
        m = ceil_two_sqrt(a)
        assert m * m >= 4 * a
        assert (m - 1) * (m - 1) < 4 * a


def test_ceil_two_sqrt_huge_perfect_squares():
    # exactly where floating point sqrt would wobble
    for k in (10**8, 10**8 + 1, 3**20):
        assert ceil_two_sqrt(k * k) == 2 * k


def test_ceil_two_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        ceil_two_sqrt(-1)


def test_min_polyomino_perimeter_examples():
    assert min_polyomino_perimeter(1) == 4
    assert min_polyomino_perimeter(2) == 6
    assert min_polyomino_perimeter(7) == 12
    with pytest.raises(ValueError):
        min_polyomino_perimeter(0)


def test_min_polyomino_perimeter_matches_enumeration(shapes):
    for area in range(1, 11):
        observed = min(map(perimeter, shapes[area]))
        assert min_polyomino_perimeter(area) == observed


def test_two_component_clasp_number():
    assert two_component_clasp_number(1) == 1
    assert two_component_clasp_number(-5) == 5
    assert two_component_clasp_number(0) == frozenset({0, 2})


def test_three_component_lower_bound_examples():
    assert three_component_lower_bound(0) == 0
    assert three_component_lower_bound(1) == 4
    assert three_component_lower_bound(4) == 6
    assert three_component_lower_bound(-4) == 6


def test_three_component_lower_bound_against_counting():
    for mu in range(0, 2000):
        expected = 2 * smallest_root_by_counting(4 * mu, 3)
        assert three_component_lower_bound(mu) == expected


def test_square_inputs_consistency():
    """At mu = n^2 the bound equals 2*ceil(2n/sqrt(3)), in integer form."""
    for n in range(1, 1001):
        expected = 2 * smallest_root_by_counting(4 * n * n, 3)
        assert three_component_lower_bound(n * n) == expected


def test_bounds_are_monotone():
    values = [ceil_two_sqrt(a) for a in range(0, 500)]
    assert values == sorted(values)
    values = [three_component_lower_bound(mu) for mu in range(0, 500)]
    assert values == sorted(values)
    values = [min_polyomino_perimeter(a) for a in range(1, 500)]
    assert values == sorted(values)
    assert two_component_clasp_number(-7) <= two_component_clasp_number(9)


def test_bound_report_three_component_exact():
    report = bound_report(generate_brn(1))
    assert report.lower_C == 4
    assert report.upper_C == 4
    assert report.exact_C == 4
    assert report.lower_B == 0
    assert report.upper_B == 4
    assert report.summary() == "C = 4 (exact)"


def test_bound_report_without_exact_c_is_exact_when_its_bounds_meet():
    # bound_report always sets exact_C when the bounds meet; a report built
    # by hand need not
    report = BoundReport(3, 4, 4, 0, 4)
    assert report.summary() == "C = 4 (exact)"
    assert report.format() == "C = 4 (exact)\nlower_C = 4\nupper_C = 4\nlower_B = 0\nupper_B = 4\n"


def test_bound_report_three_component_gap():
    report = bound_report(generate_brn(2))
    assert (report.lower_C, report.upper_C) == (6, 8)
    assert report.exact_C is None
    assert report.summary() == "6 <= C <= 8"
    assert "lower_C = 6 # triple linking lower bound" in report.format()


def test_bound_report_two_component():
    F = parse_complex(
        "components 2\n"
        "clasp c1 1 2 +\nclasp c2 1 2 +\nclasp c3 1 2 -\n"
        "order 1 c1 c2 c3\norder 2 c1 c3 c2\n"
    )
    report = bound_report(F)
    assert report.exact_C == 1
    assert report.lower_C == 1
    assert report.upper_C == 3
    assert report.lower_B == 1
    assert report.upper_B == 3
    assert report.summary() == "C = 1 (exact); this complex has 3 clasps"


def test_bound_report_two_component_zero_linking():
    F = parse_complex(
        "components 2\n"
        "clasp a 1 2 +\nclasp b 1 2 -\n"
        "order 1 a b\norder 2 a b\n"
    )
    report = bound_report(F)
    assert report.exact_C == frozenset({0, 2})
    assert report.lower_C == 0
    assert report.summary() == "C in {0, 2}; this complex has 2 clasps"
    assert "exact_C in {0, 2}" in report.format()


def test_bound_report_three_component_nonvanishing_linking():
    F = CComplex(
        3,
        (Clasp("a", 1, 2, 1), Clasp("b", 2, 3, 1), Clasp("c", 2, 3, 1)),
        (("a",), ("a", "b", "c"), ("b", "c")),
    )
    report = bound_report(F)
    assert report.lower_C == 3  # |lk(1,2)| + |lk(2,3)| = 1 + 2
    assert report.upper_C == 3
    assert report.lower_B == 3
    assert report.provenance["lower_C"] == "sum of |lk| over pairs"


def test_bound_report_rejects_wrong_component_count():
    with pytest.raises(ValueError):
        bound_report(CComplex(1, (), ((),)))
    with pytest.raises(ValueError):
        bound_report(CComplex(4, (), ((), (), (), ())))


def test_bound_report_rejects_invalid_complex():
    # the complex is refused when it is built, before a report can take it
    with pytest.raises(InvalidComplexError, match="^invalid complex: "):
        bound_report(CComplex(2, (Clasp("a", 1, 2, 1),), ((), ())))


@settings(max_examples=100)
@given(st.one_of(shuffled_complexes(2, 3, max_clasps=4), shuffled_complexes(2, 3, balanced=True, max_clasps=8)))
def test_bound_report_on_random_valid_complexes(F):
    report = bound_report(F)  # constructor asserts lower <= upper
    assert report.upper_C == len(F.clasps)
    assert report.upper_B == report.upper_C
    assert set(report.provenance) >= {"lower_C", "upper_C", "lower_B", "upper_B"}


def test_bound_report_invariants_enforced():
    with pytest.raises(ValueError):
        BoundReport(n=3, lower_C=5, upper_C=4, lower_B=0, upper_B=4)
    with pytest.raises(ValueError):
        BoundReport(n=3, lower_C=0, upper_C=4, lower_B=5, upper_B=4)
    with pytest.raises(ValueError):
        BoundReport(n=3, lower_C=0, upper_C=4, lower_B=0, upper_B=5)
    # field types are checked before the order of the bounds
    with pytest.raises(ValueError, match="^lower_C must be an integer, got True$"):
        BoundReport(3, True, 1, 0, 1)
    with pytest.raises(ValueError, match="^lower_B must be an integer, got 'b'$"):
        BoundReport(3, 0, 1, "b", 1)
    with pytest.raises(ValueError, match="^exact_C must be an integer, got 'x'$"):
        BoundReport(3, 0, 1, 0, 1, exact_C="x")


def test_bound_report_checks_each_member_of_an_exact_C_set():
    # a string member once reached format(), whose sort raised a bare TypeError
    with pytest.raises(ValueError, match="^exact_C must be an integer, got 'a'$"):
        BoundReport(3, 0, 1, 0, 1, frozenset({"a", 1}))
    # and a bool or a negative member was printed: exact_C in {-3, True}
    with pytest.raises(ValueError, match="^exact_C must be (an integer, got True|at least 0, got -3)$"):
        BoundReport(3, 0, 1, 0, 1, frozenset({True, -3}))
    with pytest.raises(ValueError, match="^exact_C must be at least 0, got -3$"):
        BoundReport(3, 0, 1, 0, 1, frozenset({-3, 2}))
    assert "exact_C in {0, 2}" in BoundReport(2, 0, 2, 0, 2, frozenset({0, 2})).format()


def test_bound_report_keeps_exact_C_within_its_bounds():
    # an exact value above upper_C was printed as C = 7 (exact), and an
    # empty set as C in {}
    with pytest.raises(ValueError, match=r"^exact_C=7 is outside \[0, 1\]$"):
        BoundReport(3, 0, 1, 0, 1, 7)
    with pytest.raises(ValueError, match=r"^exact_C=0 is outside \[1, 2\]$"):
        BoundReport(3, 1, 2, 0, 1, 0)
    with pytest.raises(ValueError, match=r"^exact_C has no member in \[0, 1\]$"):
        BoundReport(3, 0, 1, 0, 1, frozenset())
    with pytest.raises(ValueError, match=r"^exact_C has no member in \[0, 1\]$"):
        BoundReport(3, 0, 1, 0, 1, frozenset({2, 5}))
    assert BoundReport(3, 0, 1, 0, 1, 1).exact_C == 1
    # what bound_report builds for a 2-component complex with no clasps
    assert BoundReport(2, 0, 0, 0, 0, frozenset({0, 2})).exact_C == frozenset({0, 2})
    report = bound_report(parse_complex("components 2\norder 1\norder 2\n"))
    assert (report.lower_C, report.upper_C, report.exact_C) == (0, 0, frozenset({0, 2}))


def arrangements(counts):
    """Every distinct sequence holding ``counts[k]`` copies of each key k."""
    if not any(counts.values()):
        yield ()
        return
    for key, left in counts.items():
        if left:
            counts[key] -= 1
            for rest in arrangements(counts):
                yield (key, *rest)
            counts[key] += 1


def test_clasp_model_fills_every_e12_up_to_bc():
    # A 3-component complex with vanishing pairwise linking has 2b clasps
    # with component 1 and 2c with component 2 on w_3, half of each sign:
    # its e_12(w_3) values are exactly the integers in [-bc, bc].  Every
    # b, c up to 3 but b = c = 3, which alone takes six times as long.
    for b, c in product(range(4), repeat=2):
        if b * c > 6:
            continue
        values = {
            e_ij(ClaspWord([(key, 1) for key in keys]), 1, 2)
            for keys in arrangements({1: b, -1: b, 2: c, -2: c})
        }
        assert values == set(range(-b * c, b * c + 1)), (b, c)


def test_three_component_bound_is_at_most_the_clasp_model_minimum():
    # the three words' orders are chosen independently, so |mu| reaches
    # ab + bc + ca with 2(a + b + c) clasps, and no further
    model = [
        2 * min(a + b + c for a, b, c in product(range(mu + 1), repeat=3) if a * b + b * c + c * a >= mu)
        for mu in range(1, 13)
    ]
    bound = [three_component_lower_bound(mu) for mu in range(1, 13)]
    assert model == [4, 6, 6, 8, 8, 10, 10, 10, 12, 12, 12, 12]
    assert bound == [4, 4, 4, 6, 6, 6, 8, 8, 8, 8, 8, 8]
    assert all(map(int.__le__, bound, model))
