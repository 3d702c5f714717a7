import itertools
import random

import pytest
import reference
from hypothesis import given, settings, strategies as st

from clasplink import complexes, invariants
from clasplink._record import QUOTE_CHARS
from clasplink.bounds import bound_report
from clasplink.cli import main
from clasplink.complexes import (
    CComplex,
    Clasp,
    clasp_word,
    generate_brn,
    parse_complex,
    with_rotated_order,
)
from clasplink.invariants import e_ij, pairwise_linking, triple_linking
from clasplink.words import ClaspWord, parse_word

letters = st.builds(
    lambda index, sign: (index * sign, 1),  # a run of one letter
    index=st.integers(min_value=1, max_value=3),
    sign=st.sampled_from((1, -1)),
)
words = st.lists(letters, max_size=30).map(lambda ls: ClaspWord(tuple(ls)))


def test_worked_values():
    assert e_ij(parse_word("x1 x2 x1^-1 x2^-1"), 1, 2) == 1
    assert e_ij(parse_word("x3^-1 x2 x3 x2^-1"), 2, 3) == 1
    assert e_ij(parse_word("x1 x2 x1 x2 x1^-2 x2^-2"), 1, 2) == 3
    assert e_ij(ClaspWord(), 1, 2) == 0
    assert e_ij(parse_word("x1^-1 x1"), 3, 1) == 0
    assert e_ij(parse_word("x1 x1 x2"), 1, 2) == 2


def test_rejects_equal_indices():
    with pytest.raises(ValueError):
        e_ij(parse_word("x1"), 2, 2)
    # the equal-index message comes first, even for indices below 1
    for index in (0, -1):
        with pytest.raises(ValueError, match="^e_ij requires two distinct indices$"):
            e_ij(parse_word("x1 x2"), index, index)


# (i, j, the one refused): a letter index is an int from 1, so 0, a
# negative one, a bool, a float and a string are refused as i or as j;
# None stands for a long index, quoted clipped
@pytest.mark.parametrize(
    "i, j, bad",
    [(0, 2, 0), (2, 0, 0), (-1, 2, -1), (1, -1, -1), (True, 2, True), (2, False, False), (1.0, 2, 1.0),
     (1, "2", "2"), (0, -1, 0), pytest.param(-(10**100), 1, None, id="long")],
)
def test_rejects_an_index_that_is_not_a_letter_index(i, j, bad):
    with pytest.raises(ValueError) as caught:
        e_ij(parse_word("x1 x2"), i, j)
    quoted = repr(bad) if bad is not None else "-1" + "0" * (QUOTE_CHARS - 2) + "..."
    assert str(caught.value) == f"letter index must be a positive integer, got {quoted}"


@given(words, st.integers(1, 3), st.integers(1, 3))
def test_matches_naive_double_sum(w, i, j):
    if i == j:
        return
    assert e_ij(w, i, j) == reference.e_ij(reference.letters(w.runs), i, j)


def test_matches_naive_double_sum_exhaustive():
    alphabet = [(i * s, 1) for i in (1, 2) for s in (1, -1)]
    for length in range(6):
        for combo in itertools.product(alphabet, repeat=length):
            w, keys = ClaspWord(combo), [key for key, _ in combo]
            assert e_ij(w, 1, 2) == reference.e_ij(keys, 1, 2)
            assert e_ij(w, 2, 1) == reference.e_ij(keys, 2, 1)


def test_restriction_does_not_change_value():
    rng = random.Random(99)
    for _ in range(10_000):
        keys = [rng.randint(1, 4) * rng.choice((1, -1)) for _ in range(rng.randint(0, 24))]
        w = ClaspWord((key, 1) for key in keys)
        i, j = rng.sample((1, 2, 3, 4), 2)
        restricted = ClaspWord((key, 1) for key in keys if abs(key) in (i, j))
        assert e_ij(w, i, j) == e_ij(restricted, i, j)


def test_rotation_invariance_on_balanced_words():
    """Exhaustive: rotating a word with vanishing signed counts never
    changes the pair count (length <= 8 over two indices)."""
    alphabet = [(i * s, 1) for i in (1, 2) for s in (1, -1)]
    checked = 0
    for length in range(9):
        for combo in itertools.product(alphabet, repeat=length):
            w = ClaspWord(combo)
            if combo.count((1, 1)) != combo.count((-1, 1)):
                continue
            if combo.count((2, 1)) != combo.count((-2, 1)):
                continue
            value = e_ij(w, 1, 2)
            for k in range(1, length):
                assert e_ij(ClaspWord(combo[k:] + combo[:k]), 1, 2) == value
            checked += 1
    assert checked > 5000


BORROMEAN = CComplex(
    3,
    (
        Clasp("p", 1, 2, 1),
        Clasp("q", 1, 2, -1),
        Clasp("r", 1, 3, 1),
        Clasp("s", 1, 3, -1),
    ),
    (("s", "p", "r", "q"), ("q", "p"), ("s", "r")),
)


def test_pairwise_linking_borromean():
    for i, j in ((1, 2), (2, 3), (3, 1)):
        assert pairwise_linking(BORROMEAN, i, j) == 0
        assert pairwise_linking(BORROMEAN, j, i) == 0


def test_pairwise_linking_counts_signs():
    single = CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ("a",)))
    assert pairwise_linking(single, 1, 2) == 1
    k = 5
    clasps = tuple(Clasp(f"c{m}", 1, 2, 1) for m in range(k))
    ids = tuple(c.id for c in clasps)
    many = CComplex(2, clasps, (ids, ids))
    assert pairwise_linking(many, 1, 2) == k
    assert pairwise_linking(many, 2, 1) == k


def test_pairwise_linking_rejects_bad_indices():
    with pytest.raises(ValueError):
        pairwise_linking(BORROMEAN, 1, 1)
    with pytest.raises(ValueError):
        pairwise_linking(BORROMEAN, 0, 2)
    with pytest.raises(ValueError):
        pairwise_linking(BORROMEAN, 1, 4)


def test_pairwise_linking_equals_signed_letter_count():
    for F in (BORROMEAN, generate_brn(1), generate_brn(3), generate_brn(7)):
        for i, j in itertools.permutations(range(1, 4), 2):
            lk = pairwise_linking(F, i, j)
            # a run's key is its index times its sign
            assert sum(key // j * count for key, count in clasp_word(F, i).runs if abs(key) == j) == lk
            assert sum(key // i * count for key, count in clasp_word(F, j).runs if abs(key) == i) == lk


def test_triple_linking_borromean():
    result = triple_linking(BORROMEAN, 1, 2, 3)
    assert result.value == 1
    assert result.contributions == (0, 1, 0)
    assert result.well_defined


def test_triple_linking_family():
    for n in range(1, 26):
        assert triple_linking(generate_brn(n), 1, 2, 3).value == n * n


def test_triple_linking_no_clasps():
    empty = CComplex(3, (), ((), (), ()))
    result = triple_linking(empty, 1, 2, 3)
    assert result.value == 0
    assert result.contributions == (0, 0, 0)
    assert result.well_defined


def test_triple_linking_not_well_defined_when_linked():
    linked = CComplex(
        3,
        (Clasp("a", 1, 2, 1), Clasp("b", 1, 3, 1), Clasp("c", 1, 3, -1)),
        (("a", "b", "c"), ("a",), ("b", "c")),
    )
    result = triple_linking(linked, 1, 2, 3)
    assert not result.well_defined


def test_triple_linking_reads_well_defined_from_its_words(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("triple_linking counts clasps in its words")

    linked = tmp_path / "linked.cc"  # lk(1, 2) = 1
    linked.write_text("components 3\nclasp a 1 2 +\nclasp b 1 3 +\nclasp c 1 3 -\norder 1 a b c\norder 2 a\norder 3 b c\n")
    brn = generate_brn(4)
    before = [triple_linking(F, *order) for F in (BORROMEAN, brn) for order in itertools.permutations((1, 2, 3))]
    monkeypatch.setattr(invariants, "pairwise_linking", refuse)
    after = [triple_linking(F, *order) for F in (BORROMEAN, brn) for order in itertools.permutations((1, 2, 3))]
    assert after == before and all(result.well_defined for result in after)
    F = parse_complex(linked.read_text())
    assert not any(triple_linking(F, *order).well_defined for order in itertools.permutations((1, 2, 3)))
    assert main(["mu", str(linked), "1", "2", "3"]) == 0
    assert capsys.readouterr().out.endswith("NOT-WELL-DEFINED\n")


def merged_runs(w):
    """``w`` with each run of equal neighbouring runs made one, their counts summed."""
    runs = []
    for key, count in w.runs:
        if runs and runs[-1][0] == key:
            runs[-1] = (key, runs[-1][1] + count)
        else:
            runs.append((key, count))
    return ClaspWord._of_runs(tuple(runs))


# lk = 0 on every pair, and w1 = x2 x2 x3 x2^-1 x3^-1 x2^-1 has two runs to merge
BALANCED = CComplex(
    3,
    (Clasp("a", 1, 2, 1), Clasp("b", 1, 2, 1), Clasp("c", 1, 2, -1), Clasp("d", 1, 3, 1),
     Clasp("e", 1, 2, -1), Clasp("f", 1, 3, -1)),
    (("a", "b", "d", "c", "f", "e"), ("a", "c", "b", "e"), ("d", "f")),
)


def test_triple_linking_does_not_depend_on_how_its_words_are_cut_into_runs(monkeypatch):
    read_words = complexes._read_words
    cases = (BORROMEAN, generate_brn(4), BALANCED)
    before = [triple_linking(F, *order) for F in cases for order in itertools.permutations((1, 2, 3))]
    assert all(result.well_defined for result in before)
    assert len(merged_runs(clasp_word(BALANCED, 1)).runs) < len(clasp_word(BALANCED, 1).runs)
    monkeypatch.setattr(complexes, "_read_words", lambda F, components: list(map(merged_runs, read_words(F, components))))
    after = [triple_linking(F, *order) for F in cases for order in itertools.permutations((1, 2, 3))]
    assert after == before


@st.composite
def three_component_complexes(draw):
    """A valid complex on three components: clasps of either sign between
    any two, often on the same pair in a row, each order shuffled."""
    ends = st.sampled_from(((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)))
    pairs = draw(st.lists(st.tuples(ends, st.sampled_from((1, -1))), max_size=12))
    clasps = tuple(Clasp(f"c{number}", a, b, sign) for number, ((a, b), sign) in enumerate(pairs))
    orders = tuple(tuple(draw(st.permutations([c.id for c in clasps if k in (c.a, c.b)]))) for k in (1, 2, 3))
    return CComplex(3, clasps, orders)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(three_component_complexes(), st.permutations((1, 2, 3)))
def test_well_defined_is_whether_the_pairwise_linking_numbers_vanish(F, order):
    i, j, k = order
    vanish = not any(pairwise_linking(F, a, b) for a, b in ((i, j), (j, k), (k, i)))
    assert triple_linking(F, i, j, k).well_defined == vanish


def shuffled_complex(draw, n, pairs):
    """The complex on n components with one clasp of sign s joining a and
    b for each ((a, b), s) of ``pairs``, each clasp's ends in a random
    order, the clasps in a random order and each component's order
    shuffled."""
    ends = [(draw(st.permutations(pair)), sign) for pair, sign in pairs]
    clasps = tuple(draw(st.permutations([Clasp(f"c{m}", a, b, sign) for m, ((a, b), sign) in enumerate(ends)])))
    orders = tuple(tuple(draw(st.permutations([c.id for c in clasps if k in (c.a, c.b)]))) for k in range(1, n + 1))
    return CComplex(n, clasps, orders)


@st.composite
def balanced_complexes(draw):
    """A complex on three components whose pairwise linking numbers all
    vanish: for each pair, k in 0..3 clasps of each sign."""
    counts = [draw(st.integers(0, 3)) for _ in range(3)]
    pairs = [(pair, sign) for pair, k in zip(((1, 2), (1, 3), (2, 3)), counts) for sign in (1, -1) for _ in range(k)]
    return shuffled_complex(draw, 3, pairs)


@st.composite
def two_component_complexes(draw):
    """A complex on two components with 0 to 9 clasps of either sign."""
    return shuffled_complex(draw, 2, [((1, 2), sign) for sign in draw(st.lists(st.sampled_from((1, -1)), max_size=9))])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(balanced_complexes())
def test_triple_linking_bounds_the_clasp_count_from_below(F):
    assert triple_linking(F, 1, 2, 3).well_defined
    assert bound_report(F).lower_C <= len(F.clasps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(balanced_complexes(), st.lists(st.integers(0, 11), min_size=3, max_size=3))
def test_mu_of_a_balanced_complex_is_kept_by_a_basepoint_rotation(F, rotations):
    expected = triple_linking(F, 1, 2, 3).value
    for k, r in enumerate(rotations, start=1):
        F = with_rotated_order(F, k, r)
    assert triple_linking(F, 1, 2, 3).value == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(two_component_complexes())
def test_the_clasp_count_is_at_least_lk_and_has_its_parity(F):
    lk, clasps = pairwise_linking(F, 1, 2), len(F.clasps)
    exact = bound_report(F).exact_C
    values = exact if isinstance(exact, frozenset) else {exact}
    assert min(values) == abs(lk) <= clasps
    assert all((clasps - value) % 2 == 0 for value in values)


def test_triple_linking_rejects_bad_indices():
    with pytest.raises(ValueError):
        triple_linking(BORROMEAN, 1, 2, 2)
    with pytest.raises(ValueError):
        triple_linking(BORROMEAN, 1, 2, 4)
    # the first of i, j and k that is not a component is the one named
    with pytest.raises(ValueError, match="^component 4 is not"):
        triple_linking(BORROMEAN, 1, 4, 0)
    with pytest.raises(ValueError, match="^component 0 is not"):
        triple_linking(BORROMEAN, 0, 4, 1)


@pytest.mark.parametrize("args, shown", [(([1], 2, 3), "[1]"), ((1, 2, {3}), "{3}"), ((1, {}, 2), "{}")])
def test_triple_linking_refuses_an_unhashable_component(args, shown):
    # a set of the three values once raised TypeError: unhashable type
    with pytest.raises(ValueError) as caught:
        triple_linking(BORROMEAN, *args)
    assert str(caught.value) == f"component {shown} is not a component of this complex (n=3)"


def test_basepoint_rotations_preserve_mu():
    for F in (BORROMEAN, generate_brn(1), generate_brn(2), generate_brn(3)):
        expected = triple_linking(F, 1, 2, 3).value
        for k in range(1, 4):
            for r in range(len(F.orders[k - 1])):
                rotated = with_rotated_order(F, k, r)
                assert triple_linking(rotated, 1, 2, 3).value == expected


def test_combined_basepoint_rotations_preserve_mu():
    expected = triple_linking(BORROMEAN, 1, 2, 3).value
    for r1 in range(4):
        for r2 in range(2):
            for r3 in range(2):
                F = with_rotated_order(BORROMEAN, 1, r1)
                F = with_rotated_order(F, 2, r2)
                F = with_rotated_order(F, 3, r3)
                assert triple_linking(F, 1, 2, 3).value == expected


def flip_all_signs(F):
    return CComplex(
        F.n,
        tuple(Clasp(c.id, c.a, c.b, -c.sign) for c in F.clasps),
        F.orders,
    )


def reverse_all_orders(F):
    return CComplex(F.n, F.clasps, tuple(o[::-1] for o in F.orders))


def test_global_sign_flip_preserves_mu():
    """Each pair count multiplies two letter signs, so negating every
    clasp sign cancels out (unlike the linking number, which negates)."""
    for n in range(1, 8):
        F = generate_brn(n)
        flipped = flip_all_signs(F)
        assert triple_linking(flipped, 1, 2, 3).value == triple_linking(F, 1, 2, 3).value
        one_pair = CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ("a",)))
        assert pairwise_linking(flip_all_signs(one_pair), 1, 2) == -1


def test_traversal_reversal_negates_mu():
    """Reversing every component's traversal (reversing all component
    orientations) negates the triple linking number when the pairwise
    linking numbers vanish."""
    for n in range(1, 8):
        F = generate_brn(n)
        assert triple_linking(reverse_all_orders(F), 1, 2, 3).value == -(n * n)
    assert triple_linking(reverse_all_orders(BORROMEAN), 1, 2, 3).value == -1


def test_transpositions_negate_mu():
    for F in (BORROMEAN, generate_brn(2), generate_brn(3)):
        value = triple_linking(F, 1, 2, 3).value
        assert triple_linking(F, 2, 1, 3).value == -value
        assert triple_linking(F, 1, 3, 2).value == -value
        assert triple_linking(F, 3, 2, 1).value == -value
        assert triple_linking(F, 2, 3, 1).value == value
        assert triple_linking(F, 3, 1, 2).value == value


def test_mu_value_equals_contribution_sum():
    for n in range(1, 10):
        result = triple_linking(generate_brn(n), 1, 2, 3)
        assert result.value == sum(result.contributions)
