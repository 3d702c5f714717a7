import functools
import itertools
import random

import pytest
import reference
from hypothesis import example, given, settings, strategies as st

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


@functools.cache
def signed_ends(n):
    """A clasp's two distinct ends among n components, in either order, and its sign.

    Made once for each n: a strategy made anew at every draw is validated
    anew, and that was a fifth of the time of drawing a complex."""
    return st.tuples(st.sampled_from(list(itertools.permutations(range(1, n + 1), 2))), st.sampled_from((1, -1)))


@st.composite
def shuffled_complexes(draw, n, max_n=None, balanced=False, max_clasps=12):
    """A well-formed complex on n components, or on n to max_n of them,
    with at most max_clasps clasps.  Each clasp joins two distinct
    components and has either sign; with balanced=True the clasps come in
    pairs of opposite sign on the same two components, so every pairwise
    linking number vanishes.  Each clasp's ends are drawn in a random order,
    the clasps in a random order and each component's order shuffled.
    Every random complex of the tests is drawn here."""
    n = draw(st.integers(n, n if max_n is None else max_n))
    drawn = draw(st.lists(signed_ends(n), max_size=max_clasps // 2 if balanced else max_clasps)) if n > 1 else []
    pairs = [(pair, s) for pair, sign in drawn for s in ((sign, -sign) if balanced else (sign,))]
    clasps = tuple(draw(st.permutations([Clasp(f"c{m}", a, b, sign) for m, ((a, b), sign) in enumerate(pairs)])))
    orders = tuple(tuple(draw(st.permutations([c.id for c in clasps if k in (c.a, c.b)]))) for k in range(1, n + 1))
    return CComplex(n, clasps, orders)


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


@settings(max_examples=50)
@given(shuffled_complexes(3, balanced=True))
@example(BALANCED)
@example(BORROMEAN)
@example(generate_brn(4))
def test_triple_linking_does_not_depend_on_how_its_words_are_cut_into_runs(F):
    assert len(merged_runs(clasp_word(BALANCED, 1)).runs) < len(clasp_word(BALANCED, 1).runs)
    read_words = complexes._read_words
    before = [triple_linking(F, *order) for order in itertools.permutations((1, 2, 3))]
    assert all(result.well_defined for result in before)
    # the monkeypatch fixture would be shared by every example
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "_read_words", lambda G, components: list(map(merged_runs, read_words(G, components))))
        after = [triple_linking(F, *order) for order in itertools.permutations((1, 2, 3))]
    assert after == before


@settings(max_examples=300)
@given(shuffled_complexes(3), st.permutations((1, 2, 3)))
def test_well_defined_is_whether_the_pairwise_linking_numbers_vanish(F, order):
    i, j, k = order
    vanish = not any(pairwise_linking(F, a, b) for a, b in ((i, j), (j, k), (k, i)))
    assert triple_linking(F, i, j, k).well_defined == vanish


# one clasp of each sign on each pair, and each word a commutator: mu = 3
# from 6 clasps, against a bound of 2 ceil(2 sqrt(|mu| / 3)) = 4, and of 8
# were the bound's / 3 dropped
COMMUTATORS = CComplex(
    3,
    (Clasp("a", 1, 2, 1), Clasp("b", 1, 2, -1), Clasp("c", 1, 3, 1), Clasp("d", 1, 3, -1),
     Clasp("e", 2, 3, 1), Clasp("f", 2, 3, -1)),
    (("a", "c", "b", "d"), ("e", "a", "f", "b"), ("c", "e", "d", "f")),
)


@settings(max_examples=200)
@given(shuffled_complexes(3, balanced=True, max_clasps=18))
@example(COMMUTATORS)
def test_triple_linking_bounds_the_clasp_count_from_below(F):
    assert triple_linking(F, 1, 2, 3).well_defined
    assert bound_report(F).lower_C <= len(F.clasps)


@settings(max_examples=200)
@given(shuffled_complexes(3, balanced=True, max_clasps=18), st.lists(st.integers(0, 11), min_size=3, max_size=3))
@example(BORROMEAN, [1, 1, 1])
@example(BORROMEAN, [3, 1, 0])
def test_mu_of_a_balanced_complex_is_kept_by_a_basepoint_rotation(F, rotations):
    expected = triple_linking(F, 1, 2, 3).value
    for k, r in enumerate(rotations, start=1):
        F = with_rotated_order(F, k, r)
    assert triple_linking(F, 1, 2, 3).value == expected


@settings(max_examples=200)
@given(shuffled_complexes(2, max_clasps=9))
def test_the_clasp_count_is_at_least_lk_and_has_its_parity(F):
    lk, clasps = pairwise_linking(F, 1, 2), len(F.clasps)
    exact = bound_report(F).exact_C
    values = exact if isinstance(exact, frozenset) else {exact}
    assert min(values) == abs(lk) <= clasps
    assert all((clasps - value) % 2 == 0 for value in values)


@settings(max_examples=50)
@given(st.one_of(shuffled_complexes(3), shuffled_complexes(3, balanced=True)), st.data())
def test_relabelling_and_reordering_the_clasps_keep_mu_and_the_bounds(F, data):
    ids = [c.id for c in F.clasps]
    relabel = dict(zip(ids, data.draw(st.permutations(ids))))
    clasps = data.draw(st.permutations([Clasp(relabel[c.id], c.a, c.b, c.sign) for c in F.clasps]))
    G = CComplex(F.n, tuple(clasps), tuple(tuple(map(relabel.get, order)) for order in F.orders))
    assert triple_linking(G, 1, 2, 3) == triple_linking(F, 1, 2, 3)
    assert bound_report(G) == bound_report(F)


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

def flip_all_signs(F):
    return CComplex(
        F.n,
        tuple(Clasp(c.id, c.a, c.b, -c.sign) for c in F.clasps),
        F.orders,
    )


def reverse_all_orders(F):
    return CComplex(F.n, F.clasps, tuple(o[::-1] for o in F.orders))


@settings(max_examples=50)
@given(shuffled_complexes(3, balanced=True), shuffled_complexes(2))
@example(generate_brn(7), CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ("a",))))
def test_global_sign_flip_preserves_mu(F, G):
    """Each pair count multiplies two letter signs, so negating every
    clasp sign cancels out (unlike the linking number, which negates)."""
    assert triple_linking(flip_all_signs(F), 1, 2, 3).value == triple_linking(F, 1, 2, 3).value
    assert pairwise_linking(flip_all_signs(G), 1, 2) == -pairwise_linking(G, 1, 2)


@settings(max_examples=50)
@given(shuffled_complexes(3, balanced=True))
@example(BORROMEAN)
@example(generate_brn(7))
def test_traversal_reversal_negates_mu(F):
    """Reversing every component's traversal (reversing all component
    orientations) negates the triple linking number when the pairwise
    linking numbers vanish."""
    assert triple_linking(reverse_all_orders(F), 1, 2, 3).value == -triple_linking(F, 1, 2, 3).value


@settings(max_examples=50)
@given(shuffled_complexes(3, balanced=True))
@example(BORROMEAN)
@example(generate_brn(3))
def test_transpositions_negate_mu(F):
    value = triple_linking(F, 1, 2, 3).value
    for order in itertools.permutations((1, 2, 3)):
        sign = 1 if order in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1
        assert triple_linking(F, *order).value == sign * value
