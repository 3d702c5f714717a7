import itertools
import random

import pytest
from hypothesis import given, strategies as st

from clasplink._record import QUOTE_CHARS
from clasplink.complexes import (
    CComplex,
    Clasp,
    clasp_word,
    generate_brn,
    with_rotated_order,
)
from clasplink.invariants import e_ij, pairwise_linking, triple_linking
from clasplink.words import ClaspWord, SignedLetter, parse_word

letters = st.builds(
    SignedLetter,
    index=st.integers(min_value=1, max_value=3),
    sign=st.sampled_from((1, -1)),
)
words = st.lists(letters, max_size=30).map(lambda ls: ClaspWord(tuple(ls)))


def e_ij_naive(w, i, j):
    """Literal double sum over letter pairs u <= v; the quadratic
    reference the linear implementation must match."""
    total = 0
    ls = w.letters
    for v in range(len(ls)):
        if ls[v].index != j:
            continue
        for u in range(v + 1):
            if ls[u].index == i:
                total += ls[u].sign * ls[v].sign
    return total


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
    assert e_ij(w, i, j) == e_ij_naive(w, i, j)


def test_matches_naive_double_sum_exhaustive():
    alphabet = [SignedLetter(i, s) for i in (1, 2) for s in (1, -1)]
    for length in range(6):
        for combo in itertools.product(alphabet, repeat=length):
            w = ClaspWord(combo)
            assert e_ij(w, 1, 2) == e_ij_naive(w, 1, 2)
            assert e_ij(w, 2, 1) == e_ij_naive(w, 2, 1)


def test_restriction_does_not_change_value():
    rng = random.Random(99)
    for _ in range(10_000):
        w = ClaspWord.from_pairs(
            (rng.randint(1, 4), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 24))
        )
        i, j = rng.sample((1, 2, 3, 4), 2)
        restricted = ClaspWord(tuple(letter for letter in w if letter.index in (i, j)))
        assert e_ij(w, i, j) == e_ij(restricted, i, j)


def test_rotation_invariance_on_balanced_words():
    """Exhaustive: rotating a word with vanishing signed counts never
    changes the pair count (length <= 8 over two indices)."""
    alphabet = [SignedLetter(i, s) for i in (1, 2) for s in (1, -1)]
    checked = 0
    for length in range(9):
        for combo in itertools.product(alphabet, repeat=length):
            w = ClaspWord(combo)
            if sum(letter.sign for letter in combo if letter.index == 1) != 0:
                continue
            if sum(letter.sign for letter in combo if letter.index == 2) != 0:
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
            assert sum(letter.sign for letter in clasp_word(F, i) if letter.index == j) == lk
            assert sum(letter.sign for letter in clasp_word(F, j) if letter.index == i) == lk


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
