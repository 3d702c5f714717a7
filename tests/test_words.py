import copy
import pickle
import random
import time
from pathlib import Path

import pytest
import reference
from hypothesis import given, strategies as st

from clasplink import _record
from clasplink import words as words_module
from clasplink._record import QUOTE_CHARS, clip
from clasplink.curves import build_curve
from clasplink.invariants import e_ij
from clasplink.words import (
    WORD_INDEX_DIGITS,
    WORD_LETTER_CAP,
    ClaspWord,
    WordSyntaxError,
    parse_word,
)
from test_cli import run_cli
from test_memory_budgets import traced

GOLDEN_WORDS = Path(__file__).resolve().parent / "golden" / "words"

letters = st.builds(
    lambda index, sign: (index * sign, 1),  # a run of one letter
    index=st.integers(min_value=1, max_value=5),
    sign=st.sampled_from((1, -1)),
)
words = st.lists(letters, max_size=40).map(ClaspWord)


def of_pairs(pairs):
    """The word of the letters ``pairs``, (index, sign) each, one run a letter."""
    return ClaspWord((index * sign, 1) for index, sign in pairs)


def test_parse_basic_word():
    assert parse_word("x1 x2 x1^-1 x2^-1") == of_pairs(
        [(1, 1), (2, 1), (1, -1), (2, -1)]
    )


def test_parse_expands_exponents():
    assert parse_word("x3^-2") == of_pairs([(3, -1), (3, -1)])
    assert parse_word("x2^3") == of_pairs([(2, 1)] * 3)
    assert parse_word("x7^1") == of_pairs([(7, 1)])


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
    assert parse_word(f"x{index}^-2") == of_pairs([(index, -1)] * 2)


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
    # U+3000, U+00A0 and the unit separator U+001F separate terms only as
    # str.isspace() accepts them, and each stands for one column
    for text, column in [("x1^2 x1^", 6), ("x1.x2.x0", 7), ("y1 x1 y1", 1), ("x1\u3000x0", 4),
                         ("x1 .\x1fx2 x0", 9), ("x1\u00a0.x0", 5), (".\u00a0x2.\u3000\x1fx-1", 8)]:
        with pytest.raises(WordSyntaxError) as excinfo:
            parse_word(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column), text


def test_signed_letter_text():
    # a word of one letter: a run's key is its index times its sign
    assert str(ClaspWord([(-3, 1)])) == "x3^-1"
    assert str(ClaspWord([(12, 1)])) == "x12"


def test_signed_letter_validation():
    # a run's key is a signed letter, index * sign, and its count at least 1
    with pytest.raises(ValueError, match="^a run's key must be a nonzero integer, got 0$"):
        ClaspWord([(0, 1)])
    with pytest.raises(ValueError, match="^a run's count must be a positive integer, got 0$"):
        ClaspWord([(1, 0)])
    # bool is an int subclass: a letter of index True once printed as xTrue
    with pytest.raises(ValueError, match="^a run's key must be a nonzero integer, got True$"):
        ClaspWord([(True, 1)])
    with pytest.raises(ValueError, match="^a run's count must be a positive integer, got True$"):
        ClaspWord([(1, True)])


def test_word_stores_its_letters_as_a_tuple():
    # a list was once kept as given: unhashable, and append() changed the word
    runs = [(1, 1)]
    w = ClaspWord(runs)
    runs.append((2, 1))
    assert w.runs == ((1, 1),)
    assert hash(w) == hash(ClaspWord(((1, 1),)))
    assert str(w) == "x1"


@pytest.mark.parametrize(
    "runs, message",
    [
        ("x1 x2", "a clasp word takes a sequence of (key, count) runs, not a string, got 'x1 x2'"),
        ("", "a clasp word takes a sequence of (key, count) runs, not a string, got ''"),
        ([1, 2], "a run of a clasp word must be a (key, count) tuple, got 1"),
        (((1, 1), [2, 1]), "a run of a clasp word must be a (key, count) tuple, got [2, 1]"),
        ([(1, 1), "x" * 100], f"a run of a clasp word must be a (key, count) tuple, got {clip('x' * 100)!r}"),
        # str() of a word once raised past 4,300 digits
        ([(10**5000, 1)], "a run's key may have at most 100 digits, got <int of 16610 bits>"),
        ([(1, 1), (-(10**WORD_INDEX_DIGITS), 1)], f"a run's key may have at most 100 digits, got -1{'0' * 38}..."),
    ],
    ids=["string", "empty-string", "ints", "pair", "long-string-letter", "key-past-4300-digits", "key-of-101-digits"],
)
def test_word_refuses_anything_that_is_not_a_letter(runs, message):
    # a string was once split into a word of its characters, shown as "x 1   x 2"
    with pytest.raises(ValueError) as caught:
        ClaspWord(runs)
    assert str(caught.value) == message


def test_a_key_of_as_many_digits_as_a_parsed_index_round_trips():
    w = ClaspWord([(10**WORD_INDEX_DIGITS - 1, 1), (1 - 10**WORD_INDEX_DIGITS, 2)])
    assert parse_word(str(w)) == w


def test_round_trip_many_random_words():
    rng = random.Random(20260810)
    for _ in range(10_000):
        w = ClaspWord(
            (rng.randint(1, 6) * rng.choice((1, -1)), 1)
            for _ in range(rng.randint(0, 30))
        )
        assert parse_word(str(w)) == w


@given(words)
def test_round_trip_property(w):
    assert parse_word(str(w)) == w


def test_parse_holds_one_run_a_term():
    texts = [path.read_text() for path in sorted(GOLDEN_WORDS.glob("[!b]*.word"))]
    texts.append("x3 x3^1 x3^2 x3^-1 x3^-4 x1.x1^3 x3 x3^-1 x2^7")
    for text in texts:
        w = parse_word(text)
        terms = [term for line in text.splitlines() if not line.lstrip().startswith("#")
                 for term in line.replace(".", " ").split()]
        assert len(w) > 1
        assert len(w.runs) == len(terms)
        assert sum(count for _, count in w.runs) == len(w)


def test_equal_runs_are_one_object():
    # a run costs the word 8 bytes: one tuple a distinct term or letter, shared
    text = "x1 x2^3 x1.x1^1\nx2^3 x3^-1 x1^1 x1"
    w = parse_word(text)
    terms = text.replace(".", " ").split()
    assert w.runs == ((1, 1), (2, 3), (1, 1), (1, 1), (2, 3), (-3, 1), (1, 1), (1, 1))
    assert len({id(run) for run in w.runs}) == len(set(terms)) == 4
    for term in set(terms):
        assert len({id(run) for run, t in zip(w.runs, terms) if t == term}) == 1
    w = of_pairs([(1, 1), (2, -1), (1, 1), (1, -1), (2, -1), (1, 1)])
    assert w.runs == ((1, 1), (-2, 1), (1, 1), (-1, 1), (-2, 1), (1, 1))
    assert len({id(run) for run in w.runs}) == 3


@st.composite
def cut(draw, keys):
    """A word of the letters ``keys``, index * sign each, cut into runs at
    random: each letter joins the run before it, when of its key, or starts
    a run of its own."""
    runs = []
    for key in keys:
        if runs and runs[-1][0] == key and draw(st.booleans()):
            runs[-1] = (key, runs[-1][1] + 1)
        else:
            runs.append((key, 1))
    return ClaspWord(runs)


letter_keys = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=12)


@given(st.data(), letter_keys, letter_keys)
def test_a_word_is_its_letters_however_it_is_cut_into_runs(data, keys, other_keys):
    w, w_cut_again, other = data.draw(cut(keys)), data.draw(cut(keys)), data.draw(cut(other_keys))
    assert [key for key, count in w.runs for _ in range(count)] == keys
    assert w == w_cut_again and not w != w_cut_again and hash(w) == hash(w_cut_again)
    assert (w == other) == (keys == other_keys)
    assert (w != other) == (keys != other_keys)
    if w == other:
        assert hash(w) == hash(other)
    for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(twin) is ClaspWord and twin == w and hash(twin) == hash(w)


def test_value_operations_on_the_cap_word_read_its_runs():
    # each went through all 10,000,000 letters: == took 14.4 s, hash 9.2 s,
    # deepcopy 4.1 s, and the pickle was 20,002,851 bytes
    text = "x1^4999999 x2 x1^-4999999 x2^-1"
    w, twin = parse_word(text), parse_word(text)
    assert len(w) == WORD_LETTER_CAP
    operations = {
        "==": lambda: w == twin,
        "hash": lambda: hash(w),
        "repr": lambda: repr(w),
        "deepcopy": lambda: copy.deepcopy(w),
        "pickle.dumps": lambda: pickle.dumps(w),
    }
    for name, operation in operations.items():
        start = time.perf_counter()
        operation()
        assert time.perf_counter() - start < 0.1, name
    assert w == twin and hash(w) == hash(twin) == hash(copy.deepcopy(w))
    assert repr(w) == "ClaspWord(runs=((1, 4999999), (2, 1), (-1, 4999999), (-2, 1)))"
    assert len(pickle.dumps(w)) < 1024
    assert pickle.loads(pickle.dumps(w)) == w


def test_a_pickled_word_writes_its_equal_runs_once():
    # 6.0 bytes a run when the pickle held a fresh tuple a run
    w = parse_word("x1 x2^3 " * 100_000)
    assert len(pickle.dumps(w)) <= 3 * len(w.runs)
    assert pickle.loads(pickle.dumps(w)) == w


def term(index, exponent, write_one):
    """``x<index>^<exponent>``, or ``x<index>`` for an exponent of 1 unless
    ``write_one``."""
    return f"x{index}" if exponent == 1 and not write_one else f"x{index}^{exponent}"


@st.composite
def split_runs(draw):
    """Runs of letters as (index, sign, count), and word text writing each
    run as terms whose exponents are a random split of its count."""
    runs = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from((1, -1)), st.integers(1, 6)), max_size=12))
    terms = []
    for index, sign, count in runs:
        while count:
            part = draw(st.integers(1, count))
            terms.append(term(index, sign * part, draw(st.booleans())))
            count -= part
    seps = draw(st.lists(st.sampled_from([" ", ".", "\n", "\t  "]), min_size=len(terms), max_size=len(terms)))
    return runs, "".join(t + sep for t, sep in zip(terms, seps))


@given(split_runs(), st.permutations((1, 2, 3, 4)))
def test_split_runs_equal_one_letter_a_term(case, order):
    runs, text = case
    pairs = [(index, sign) for index, sign, count in runs for _ in range(count)]
    one_a_term = " ".join(term(index, sign, False) for index, sign in pairs)
    w, expanded = parse_word(text), parse_word(one_a_term)
    assert w == expanded and hash(w) == hash(expanded)
    assert w == of_pairs(pairs)
    assert str(w) == str(expanded) == one_a_term
    assert len(w) == len(pairs)
    i, j = order[:2]
    keys = [index * sign for index, sign in pairs]
    assert e_ij(w, i, j) == reference.e_ij(keys, i, j)
    assert build_curve(w, i, j).steps == reference.steps(keys, i, j)


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
    excinfo, peak, _ = traced(pytest.raises, WordSyntaxError, parse_word, text)
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


def test_cli_refuses_a_word_past_the_cap():
    assert run_cli(["eij", "x1^1000000000 x2", "1", "2"]) == (
        2, "", f"error: line 1, column 1: term x1^1000000000 takes the word past {WORD_LETTER_CAP} letters\n"
    )
    assert run_cli(["eij", "x1 x2 x1^999999999999999999999999999999", "1", "2"]) == (
        2, "", "error: line 1, column 7: term x1^999999999999999999999999999999 takes the word past "
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
def test_overlong_digit_runs_are_located(text, message):
    with pytest.raises(WordSyntaxError) as excinfo:
        parse_word(text)
    assert (excinfo.value.line, excinfo.value.column) == (2, 3)
    assert str(excinfo.value) == f"line 2, column 3: {message}"
    assert run_cli(["eij", text, "1", "2"]) == (2, "", f"error: line 2, column 3: {message}\n")


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
def test_error_line_quotes_a_bounded_prefix_of_a_long_term(term, message):
    # the whole term once made the error line about as long as the term
    assert run_cli(["eij", f"x1 {term}", "1", "2"]) == (2, "", f"error: line 1, column 4: {message}\n")
    assert len(message) < 2 * QUOTE_CHARS + 60


def outcome(text):
    """The word ``text`` parses to, or the text of the error it raises."""
    try:
        return parse_word(text)
    except WordSyntaxError as exc:
        return str(exc)


# comment lines, bad terms and every separator on both sides of the cuts a
# piece of 1 to 8 characters makes
PIECE_TEXTS = [
    "x1 x2^-1\r\n# x9 y\r\nx3.x1^2\r\n  # c\nx2 x2 . x1\n",
    "x1.x2\n#y1 y2\ny1 x2\n",
    "x2 x1 q\n# c\nx1",
    "#c\r\nx1\r\n\r\n x1.x2^0 x2",
    " x1 . x2 #x3\n# x4\n",
    "x1..x2  x3\t.x1^-2\u00a0x2\u2028# x5\u2028 x1 .x-1",
    "# only\r\n# comments\r\n",
    "x1^4\n# x9\nx2^4.x1^3 x2 y",
    "\n\n   \n",
]


@pytest.mark.parametrize("text", PIECE_TEXTS)
@pytest.mark.parametrize("piece", range(1, 9))
def test_parse_is_the_same_at_every_piece_size(monkeypatch, text, piece):
    whole = outcome(text)
    monkeypatch.setattr(_record, "PIECE", piece)
    assert outcome(text) == whole


@pytest.mark.parametrize("piece", range(1, 9))
def test_cap_crossing_is_located_at_every_piece_size(monkeypatch, piece):
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 10)
    text = "x1^4\r\n# x1^9\r\nx2^4.x1^2 x1\n y1"
    assert outcome(text) == "line 3, column 11: term x1 takes the word past 10 letters"
    monkeypatch.setattr(_record, "PIECE", piece)
    assert outcome(text) == "line 3, column 11: term x1 takes the word past 10 letters"
