import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from clasplink import words as words_module
from clasplink._record import QUOTE_CHARS, clip
from clasplink.cli import main
from clasplink.words import (
    WORD_INDEX_DIGITS,
    WORD_LETTER_CAP,
    ClaspWord,
    SignedLetter,
    WordSyntaxError,
    parse_word,
)

GOLDEN_WORDS = Path(__file__).resolve().parent / "golden" / "words"

letters = st.builds(
    SignedLetter,
    index=st.integers(min_value=1, max_value=5),
    sign=st.sampled_from((1, -1)),
)
words = st.lists(letters, max_size=40).map(lambda ls: ClaspWord(tuple(ls)))


def test_parse_basic_word():
    assert parse_word("x1 x2 x1^-1 x2^-1") == ClaspWord.from_pairs(
        [(1, 1), (2, 1), (1, -1), (2, -1)]
    )


def test_parse_expands_exponents():
    assert parse_word("x3^-2") == ClaspWord.from_pairs([(3, -1), (3, -1)])
    assert parse_word("x2^3") == ClaspWord.from_pairs([(2, 1)] * 3)
    assert parse_word("x7^1") == ClaspWord.from_pairs([(7, 1)])


def test_parse_empty_inputs():
    assert parse_word("") == ClaspWord()
    assert parse_word("   \n  ") == ClaspWord()
    assert parse_word("# only a comment\n") == ClaspWord()


def test_parse_separators():
    expected = parse_word("x1 x2")
    assert parse_word("x1.x2") == expected
    assert parse_word("x1\tx2") == expected
    assert parse_word("x1\nx2") == expected


def test_parse_comment_lines_are_skipped():
    text = "# staircase\nx1 x2\n  # indented comment\nx1^-1 x2^-1\n"
    assert parse_word(text) == parse_word("x1 x2 x1^-1 x2^-1")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x0", "index must be at least 1"),
        ("x-3", "index must be at least 1"),
        ("x01", "leading zero"),
        ("x1^0", "exponent must be nonzero"),
        ("x1^-0", "exponent must be nonzero"),
        ("x1^01", "leading zero"),
        ("y1", "malformed term"),
        ("x1^", "malformed term"),
        ("x", "malformed term"),
        ("x" + "1" * (WORD_INDEX_DIGITS + 1), f"more than {WORD_INDEX_DIGITS} digits"),
        ("x" + "1" * (WORD_INDEX_DIGITS + 1) + "^2", f"more than {WORD_INDEX_DIGITS} digits"),
    ],
)
def test_parse_rejects_bad_terms(text, fragment):
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word(text)
    assert fragment in str(excinfo.value)


def test_parse_accepts_an_index_of_the_longest_length():
    index = int("9" * WORD_INDEX_DIGITS)
    assert parse_word(f"x{index}^-2") == ClaspWord.from_pairs([(index, -1)] * 2)


def test_parse_error_reports_position():
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word("x1 xx2 x3")
    err = excinfo.value
    assert (err.line, err.column) == (1, 4)
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word("x1 x2\n# fine\nx2 x0")
    assert (excinfo.value.line, excinfo.value.column) == (3, 4)
    # the stop is the token after those read, not the first place its text
    # occurs: x1^ is also the start of x1^2
    for text, column in [("x1^2 x1^", 6), ("x1.x2.x0", 7), ("y1 x1 y1", 1)]:
        with pytest.raises(WordSyntaxError) as excinfo:
            parse_word(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column), text


def test_signed_letter_validation():
    with pytest.raises(ValueError):
        SignedLetter(0, 1)
    with pytest.raises(ValueError):
        SignedLetter(1, 2)
    # bool is an int subclass: SignedLetter(True, 1) used to print as xTrue
    with pytest.raises(ValueError):
        SignedLetter(True, 1)
    with pytest.raises(ValueError):
        SignedLetter(1, True)


def test_word_stores_its_letters_as_a_tuple():
    # a list was once kept as given: unhashable, and append() changed the word
    letters = [SignedLetter(1, 1)]
    w = ClaspWord(letters)
    letters.append(SignedLetter(2, 1))
    assert w.letters == (SignedLetter(1, 1),)
    assert hash(w) == hash(ClaspWord((SignedLetter(1, 1),)))
    assert str(w) == "x1"
    parsed = parse_word("x1 x2")
    assert ClaspWord(parsed.letters).letters is parsed.letters


def test_round_trip_many_random_words():
    rng = random.Random(20260810)
    for _ in range(10_000):
        w = ClaspWord.from_pairs(
            (rng.randint(1, 6), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 30))
        )
        assert parse_word(str(w)) == w


@given(words)
def test_round_trip_property(w):
    assert parse_word(str(w)) == w


def test_parse_shares_one_letter_per_index_and_sign():
    texts = [path.read_text() for path in sorted(GOLDEN_WORDS.glob("[!b]*.word"))]
    texts.append("x3 x3^1 x3^2 x3^-1 x3^-4 x1.x1^3 x3 x3^-1 x2^7")
    for text in texts:
        w = parse_word(text)
        assert len(w) > 1
        kinds = {(letter.index, letter.sign) for letter in w}
        assert len({id(letter) for letter in w}) == len(kinds)


def test_letter_cap_is_fixed():
    assert WORD_LETTER_CAP == 10_000_000


@pytest.mark.parametrize(
    "text,column",
    [
        ("x1^1000000000 x2", 1),
        ("x1 x2 x1^999999999999999999999999999999", 7),
        ("x2 x1^-10000001", 4),
    ],
)
def test_huge_exponent_is_refused_before_it_expands(text, column):
    tracemalloc.start()
    try:
        with pytest.raises(WordSyntaxError) as excinfo:
            parse_word(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (excinfo.value.line, excinfo.value.column) == (1, column)
    assert f"past {WORD_LETTER_CAP} letters" in str(excinfo.value)


def test_cap_counts_repeated_terms_across_lines(monkeypatch):
    # a small cap stands in for the real one, so no test builds 1e7 letters
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 10)
    assert len(parse_word("x1^4 x2^3\nx1^-3")) == 10
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word("x1^4 x1^4 x1^4 x1^4")
    assert (excinfo.value.line, excinfo.value.column) == (1, 11)
    assert str(excinfo.value) == "line 1, column 11: term x1^4 takes the word past 10 letters"
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word("# x1^9\nx1^4.x2^4\n\n  x1^4 x2")
    assert (excinfo.value.line, excinfo.value.column) == (4, 3)
    # a bad term after the crossing one is not reached
    with pytest.raises(WordSyntaxError, match="column 6: term x2"):
        parse_word("x1^9 x2^2 y1")
    # a bad term before it is
    with pytest.raises(WordSyntaxError, match="column 6: malformed"):
        parse_word("x1^9 y1 x2^2")


def test_cli_refuses_a_word_past_the_cap(capsys):
    assert main(["eij", "x1^1000000000 x2", "1", "2"]) == 2
    assert main(["eij", "x1 x2 x1^999999999999999999999999999999", "1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: line 1, column 1: term x1^1000000000 takes the word past {WORD_LETTER_CAP} letters\n"
        "error: line 1, column 7: term x1^999999999999999999999999999999 takes the word past "
        f"{WORD_LETTER_CAP} letters\n"
    )


# digit runs past the 4300 that int() converts by default
LONG = "7" * 5000


@pytest.mark.parametrize(
    "text,message",
    [
        (f"x1\n  x{LONG} x2", f"component index has more than {WORD_INDEX_DIGITS} digits"),
        (f"x1\n  x2^{LONG}", f"term x2^{LONG[:37]}... takes the word past {WORD_LETTER_CAP} letters"),
        (f"x1\n  x0{LONG}", f"component index may not have a leading zero: 0{LONG[:39]}..."),
    ],
)
def test_overlong_digit_runs_are_located(capsys, text, message):
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word(text)
    assert (excinfo.value.line, excinfo.value.column) == (2, 3)
    assert str(excinfo.value) == f"line 2, column 3: {message}"
    assert main(["eij", text, "1", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: line 2, column 3: {message}\n")


def test_clip_cuts_only_past_the_quote_limit():
    assert clip("") == ""
    assert clip("y" * QUOTE_CHARS) == "y" * QUOTE_CHARS
    assert clip("y" * (QUOTE_CHARS + 1)) == "y" * QUOTE_CHARS + "..."


@pytest.mark.parametrize(
    "term,message",
    [
        (f"x2^{LONG}", f"term x2^{LONG[:37]}... takes the word past {WORD_LETTER_CAP} letters"),
        (f"y{LONG}", f"malformed term 'y{LONG[:39]}...' (expected x<INT> or x<INT>^<SIGNEDINT>)"),
        (f"x1^{LONG}y", f"malformed term 'x1^{LONG[:37]}...' (expected x<INT> or x<INT>^<SIGNEDINT>)"),
        (f"x-{LONG}", f"component index must be at least 1, got -{LONG[:39]}..."),
        (f"x0{LONG}", f"component index may not have a leading zero: 0{LONG[:39]}..."),
        (f"x1^-0{LONG}", f"exponent may not have a leading zero: -0{LONG[:38]}..."),
    ],
    ids=["past-the-cap", "unknown-letter", "malformed", "index-below-1", "index-leading-zero",
         "exponent-leading-zero"],
)
def test_error_line_quotes_a_bounded_prefix_of_a_long_term(capsys, term, message):
    # the whole term once made the error line about as long as the term
    assert main(["eij", f"x1 {term}", "1", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: line 1, column 4: {message}\n")
    assert len(message) < 2 * QUOTE_CHARS + 60
