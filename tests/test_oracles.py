import pytest
from reference import fixed_polyominoes, is_connected, normalize, perimeter, word_tree
from test_memory_budgets import traced

from clasplink.bounds import (
    BoundReport,
    ceil_two_sqrt,
    min_polyomino_perimeter,
    three_component_lower_bound,
    two_component_clasp_number,
)
from clasplink.complexes import generate_brn
from clasplink.oracles import (
    CapExceededError,
    _redelmeier,
    _word_states,
    OracleReport,
    count_fixed_polyominoes,
    format_reports,
    verify_min_perimeter,
    verify_word_length_bound,
)

# Fixed polyominoes (translations distinct from rotations/reflections) by
# area; the standard reference counts (OEIS A001168).
KNOWN_FIXED_COUNTS = [1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446, 135268, 505861]


def test_enumeration_matches_known_counts(shapes):
    assert [len(shapes[area]) for area in range(1, 11)] == KNOWN_FIXED_COUNTS[:10]


def test_second_method_matches_known_counts():
    assert count_fixed_polyominoes(10) == KNOWN_FIXED_COUNTS[:10]
    assert count_fixed_polyominoes(12) == KNOWN_FIXED_COUNTS


def test_small_enumerations_by_hand(shapes):
    assert [sorted(p) for p in shapes[1]] == [[(0, 0)]]
    assert set(shapes[2]) == {
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 0), (0, 1)}),
    }
    assert len(shapes[3]) == 6


def test_enumerated_polyominoes_are_normalized_connected_and_sized(shapes):
    for area in range(1, 7):
        assert len(shapes[area]) == len(set(shapes[area]))
        for p in shapes[area]:
            assert len(p) == area
            assert min(x for x, _ in p) == 0
            assert min(y for _, y in p) == 0
            assert is_connected(p)


def test_enumeration_is_deterministically_sorted(shapes):
    first = [tuple(sorted(p)) for p in shapes[5]]
    assert first == sorted(first)
    assert first == [tuple(sorted(p)) for p in fixed_polyominoes(5)[5]]


def test_perimeter_examples():
    assert perimeter(frozenset({(0, 0)})) == 4
    square = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
    assert perimeter(square) == 8
    bar = frozenset({(0, 0), (1, 0), (2, 0)})
    assert perimeter(bar) == 8


def test_perimeter_invariant_under_grid_symmetries(shapes):
    transforms = [
        lambda x, y: (x, y),
        lambda x, y: (-x, y),
        lambda x, y: (x, -y),
        lambda x, y: (-x, -y),
        lambda x, y: (y, x),
        lambda x, y: (-y, x),
        lambda x, y: (y, -x),
        lambda x, y: (-y, -x),
    ]
    for area in range(1, 6):
        for p in shapes[area]:
            for t in transforms:
                moved = normalize({t(x, y) for x, y in p})
                assert moved in shapes[area]
                assert perimeter(moved) == perimeter(p)


def test_reference_connectivity_and_normalization():
    assert is_connected(frozenset({(0, 0), (0, 1)}))
    assert not is_connected(frozenset({(0, 0), (0, 2)}))
    assert normalize({(3, -2), (4, -2)}) == frozenset({(0, 0), (1, 0)})


def test_verify_min_perimeter_small():
    reports = verify_min_perimeter(4)
    assert [(r.parameter, r.observed) for r in reports] == [
        (1, 4), (2, 6), (3, 8), (4, 8),
    ]
    assert all(r.agree for r in reports)


def test_verify_min_perimeter_full_range():
    assert all(r.agree for r in verify_min_perimeter(10))
    reports = verify_min_perimeter(12, cap=12)
    assert [r.parameter for r in reports] == list(range(1, 13))
    assert all(r.agree for r in reports)


def test_walk_past_the_recursion_limit_allocates_no_grid():
    # the refusal comes before the walk's tables, which for area 2000 hold
    # 4001 * 2001 cells, 61 MiB of list alone
    caught, peak, _ = traced(pytest.raises, CapExceededError, _redelmeier, 2000)
    assert "deeper recursion" in str(caught.value)
    assert peak < 64 * 1024


def test_min_perimeter_matches_enumeration(shapes):
    """The walk's minima against the cell sets built by growth."""
    for r in verify_min_perimeter(10):
        assert r.observed == min(map(perimeter, shapes[r.parameter]))


@pytest.mark.parametrize("max_len", range(1, 13))
def test_word_search_visits_every_state(max_len):
    """Every state of every length, not just the minima or the closed
    integrals: a closed word keeps its integral under rotation, so a
    search that drops the last steps of some words can still reach every
    closed integral."""
    states = [set() for _ in range(max_len + 1)]
    for depth, *state in word_tree(max_len):
        states[depth].add(tuple(state))
    assert list(_word_states(max_len)) == states


def test_verify_word_length_bound_small():
    reports = verify_word_length_bound(8)
    by_value = {r.parameter: r for r in reports}
    assert sorted(by_value) == [0, 1, 2, 3, 4]
    assert by_value[0].observed == 0
    assert by_value[1].observed == 4
    assert by_value[3].observed == 8
    assert all(r.agree for r in reports)
    assert all(r.observed >= r.predicted for r in reports)


def test_verify_word_length_bound_is_exhaustive_over_lengths():
    """Raising the cap can only add larger achieved values or keep the
    recorded minima; minima never grow."""
    small = {r.parameter: r.observed for r in verify_word_length_bound(8)}
    large = {r.parameter: r.observed for r in verify_word_length_bound(10)}
    for a, length in small.items():
        assert large[a] == length
    assert set(small) < set(large)


def test_caps_guard_runtime():
    with pytest.raises(CapExceededError):
        verify_min_perimeter(11)
    with pytest.raises(CapExceededError):
        verify_word_length_bound(13)
    # the caps themselves can be overridden
    assert verify_min_perimeter(3, cap=3)
    assert verify_word_length_bound(4, cap=4)


def test_bad_parameters():
    with pytest.raises(ValueError):
        verify_min_perimeter(0)
    with pytest.raises(ValueError):
        verify_word_length_bound(0)
    with pytest.raises(ValueError):
        count_fixed_polyominoes(0)


@pytest.mark.parametrize(
    "function,args,name",
    [
        (generate_brn, (True,), "n"),
        (generate_brn, (2.5,), "n"),
        (count_fixed_polyominoes, (3.0,), "max_area"),
        (verify_min_perimeter, (2.0,), "max_area"),
        (verify_min_perimeter, (2, True), "cap"),
        (verify_word_length_bound, (True,), "max_len"),
        (verify_word_length_bound, ("4",), "max_len"),
        (verify_word_length_bound, (4, 12.0), "cap"),
        (ceil_two_sqrt, (True,), "a"),
        (ceil_two_sqrt, (2.5,), "a"),
        (min_polyomino_perimeter, (True,), "polyomino area"),
        (two_component_clasp_number, (2.5,), "lk"),
        (three_component_lower_bound, (True,), "mu"),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_counts_must_be_ints(function, args, name):
    # bool is an int subclass, so True once ran as 1; a float raised TypeError
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        function(*args)


@pytest.mark.parametrize(
    "function,args,message",
    [
        (ceil_two_sqrt, (-(10**5000),), "a must be at least 0, got <negative int of 16610 bits>"),
        (BoundReport, (3, 10**5000, 1, 0, 1), "lower_C=<int of 16610 bits> exceeds upper_C=1"),
        (BoundReport, (3, 0, 1, 10**5000, 1), "lower_B=<int of 16610 bits> exceeds upper_B=1"),
        (BoundReport, (3, 0, 1, 0, 10**5000), "upper_B=<int of 16610 bits> exceeds upper_C=1"),
    ],
    ids=["ceil_two_sqrt", "lower_C", "lower_B", "upper_B"],
)
def test_bounds_quote_a_huge_int(function, args, message):
    # past the int-to-str limit, the message itself once raised ValueError
    with pytest.raises(ValueError) as caught:
        function(*args)
    assert str(caught.value) == message


def test_oracle_report_agree():
    assert OracleReport(1, 4, 4).agree
    assert not OracleReport(1, 5, 4).agree


def test_format_reports_table():
    table = format_reports([OracleReport(1, 4, 4), OracleReport(2, 6, 7)])
    lines = table.splitlines()
    assert lines[0].split() == ["parameter", "observed", "predicted", "agree"]
    assert lines[1].split() == ["1", "4", "4", "yes"]
    assert lines[2].split() == ["2", "6", "7", "no"]
