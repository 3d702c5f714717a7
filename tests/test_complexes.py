import inspect
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clasplink import _record, complexes
from clasplink._record import QUOTE_CHARS, pieces
from clasplink.bounds import bound_report
from clasplink.complexes import (
    BRN_CAP,
    CComplex,
    Clasp,
    ComplexFormatError,
    InvalidComplexError,
    clasp_word,
    clasp_words,
    generate_brn,
    parse_complex,
    print_complex,
    validate,
    with_rotated_order,
)
from clasplink.invariants import pairwise_linking, triple_linking
from clasplink.words import ClaspWord, parse_word
import reference
from test_cli import run_cli
from test_invariants import shuffled_complexes
from test_memory_budgets import traced

DATA = Path(__file__).resolve().parents[1] / "data"

BORROMEAN_TEXT = (DATA / "borromean.cc").read_text()


def test_parse_borromean_file():
    F = parse_complex(BORROMEAN_TEXT)
    assert F.n == 3
    assert validate(F.n, F.clasps, F.orders) == []
    assert len(F.clasps) == 4
    assert clasp_word(F, 1) == parse_word("x3^-1 x2 x3 x2^-1")
    assert clasp_word(F, 2) == parse_word("x1^-1 x1")
    assert clasp_word(F, 3) == parse_word("x1^-1 x1")


def test_parse_handles_comments_and_blank_lines():
    text = "# header\n\ncomponents 1\n  # indented\norder 1\n"
    F = parse_complex(text)
    assert F == CComplex(1, (), ((),))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("clasp a 1 2 +\n", "before components"),
        ("components 2\ncomponents 2\n", "duplicate components"),
        ("components 2\nclasp a 1 2 *\n", "sign must be + or -"),
        ("components 2\nclasp a one 2 +\n", "must be integers"),
        ("components 2\nclasp a 1 2\n", "expected: clasp"),
        ("components 2\nclasp a 0 2 +\n", "positive integers"),
        ("components 2\norder 3 a\n", "there are 2 components"),
        ("components 2\norder 1 a\norder 1 b\n", "duplicate order line"),
        ("components 2\nfrobnicate\n", "unknown keyword"),
        ("components\n", "expected: components"),
        # '²' passes str.isdigit() but int() rejects it
        ("components \u00b2\n", "line 1: expected: components"),
        ("components 2\norder \u00b2 a\n", "line 2: expected: order"),
        # int() reads '1_0' as 10 and the Arabic-Indic digit three as 3
        ("components 12\nclasp a 1_0 2 +\n", "line 2: clasp endpoints must be integers"),
        ("components 3\nclasp a 1 \u0663 +\n", "line 2: clasp endpoints must be integers"),
        ("components 1000001\n", "line 1: component count 1000001 exceeds the limit"),
        # more digits than int() converts
        pytest.param("components " + "1" * 5000 + "\n", "line 1: expected: components",
                     id="components-5000-digits"),
        pytest.param("components 2\nclasp a 1 " + "2" * 5000 + " +\n", "line 2: clasp endpoints must be integers",
                     id="endpoint-5000-digits"),
        ("", "missing components"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ComplexFormatError) as excinfo:
        parse_complex(text)
    assert fragment in str(excinfo.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ComplexFormatError) as excinfo:
        parse_complex("components 2\n# ok\nclasp a 1 2 ?\n")
    assert str(excinfo.value).startswith("line 3:")


# every line break str.splitlines() knows; "\r\n" is one break
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
EVERY_BREAK = "".join(f"line {i}{brk}" for i, brk in enumerate(BREAKS))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        EVERY_BREAK,
        EVERY_BREAK + "no break at the end",
        EVERY_BREAK.replace("line ", ""),  # a break on nearly every character
        "\r\n\r\n\n\r\r\n\n\n",
        "a\rb\x0bc\u2028d\x85 e",  # breaks, but no line feed
        "no line feed at all",
    ],
)
@pytest.mark.parametrize("piece", range(1, 9))
def test_pieces_split_as_splitlines_does(monkeypatch, text, piece):
    monkeypatch.setattr(_record, "PIECE", piece)
    assert list(itertools.chain.from_iterable(map(str.splitlines, pieces(text, "\n")))) == text.splitlines()


def test_pieces_cut_right_after_a_crlf(monkeypatch):
    assert list(map(str.splitlines, pieces("ab\r\ncd", "\n"))) == [["ab", "cd"]]
    # the search for a line feed starts on the one of "\r\n"
    monkeypatch.setattr(_record, "PIECE", 4)
    assert list(map(str.splitlines, pieces("ab\r\ncd", "\n"))) == [["ab"], ["cd"]]


# runs of whitespace of every kind, and a space past each of them or not
TOKEN_TEXTS = [
    "",
    " ",
    "a",
    "  a  b\tc \u00a0d\u2003e   ",
    "a\tb\tc\u00a0d",  # no space at all
    "ab  cd\u00a0 ef\u2003\u2003 gh \tij",
    "\t\t a \n b\u2028c ",
]


@pytest.mark.parametrize("text", TOKEN_TEXTS)
@pytest.mark.parametrize("size", range(1, 9))
def test_split_slices_split_as_split_does(monkeypatch, text, size):
    monkeypatch.setattr(_record, "PIECE", size)
    assert list(itertools.chain.from_iterable(map(str.split, pieces(text, " ")))) == text.split()


# an order line whose ids are separated by tabs, runs of spaces, U+00A0
# and U+2003, and whose clasp lines come after it
MIXED_ORDER_TEXT = (
    "components 2\n"
    "order 1 c1\tc2  c3\u00a0c4 \u2003c5\u2003\u2003c6 \t c7   c8\u00a0 \n"
    + "".join(f"clasp c{m} 1 2 {'+-'[m % 2]}\n" for m in range(1, 9))
    + "order 2 c8 c7 c6 c5 c4 c3 c2 c1\n"
)


@pytest.mark.parametrize("size", range(1, 9))
def test_order_line_reads_the_same_ids_in_slices_of_any_size(monkeypatch, size):
    whole = parse_complex(MIXED_ORDER_TEXT)
    assert whole.orders[0] == tuple(f"c{m}" for m in range(1, 9))
    monkeypatch.setattr(_record, "PIECE", size)
    assert parse_complex(MIXED_ORDER_TEXT).orders == whole.orders


def orders_first(text):
    """``text`` with its order lines moved up to just after the components line."""
    lines = text.splitlines()
    orders = [line for line in lines if line.startswith("order")]
    rest = [line for line in lines[1:] if not line.startswith("order")]
    return "\n".join([lines[0], *orders, *rest]) + "\n"


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_complex(print_complex(generate_brn(50))),
        lambda: parse_complex(orders_first(print_complex(generate_brn(50)))),
        lambda: parse_complex(MIXED_ORDER_TEXT),
        lambda: generate_brn(50),
    ],
    ids=["orders-after-clasps", "orders-before-clasps", "mixed-whitespace", "generate_brn"],
)
def test_every_order_id_is_its_clasps_string(build):
    F = build()
    strings = {c.id: c.id for c in F.clasps}
    assert all(cid is strings[cid] for order in F.orders for cid in order)
    assert len({id(cid) for cid in itertools.chain(strings.values(), *F.orders)}) == len(F.clasps)


@pytest.mark.parametrize("piece", [1, 5, 40, 300])
def test_parse_error_line_number_past_several_pieces(monkeypatch, piece):
    lines = print_complex(generate_brn(20)).splitlines()
    bad = lines.index("clasp q7 1 2 -")
    lines[bad] = "clasp q7 1 2 ?"
    text = "".join(line + BREAKS[i % len(BREAKS)] for i, line in enumerate(lines))
    with pytest.raises(ComplexFormatError) as whole:
        parse_complex(text)
    assert str(whole.value).startswith(f"line {bad + 1}: clasp sign")
    monkeypatch.setattr(_record, "PIECE", piece)
    assert len(text) > 3 * piece
    with pytest.raises(ComplexFormatError) as pieces:
        parse_complex(text)
    assert str(pieces.value) == str(whole.value)


LONG_FIELD = "q" * 3000


@pytest.mark.parametrize(
    "line,message",
    [
        (LONG_FIELD, f"unknown keyword '{LONG_FIELD[:QUOTE_CHARS]}...'"),
        (f"clasp a {LONG_FIELD} 2 +", f"clasp endpoints must be integers, got '{LONG_FIELD[:QUOTE_CHARS]}...' '2'"),
        (f"clasp a 1 2 {LONG_FIELD}", f"clasp sign must be + or -, got '{LONG_FIELD[:QUOTE_CHARS]}...'"),
    ],
    ids=["keyword", "endpoint", "sign"],
)
def test_error_line_quotes_a_bounded_prefix_of_a_long_field(tmp_path, line, message):
    # the whole field once made the error line about as long as the field
    path = tmp_path / "long.cx"
    path.write_text(f"components 2\n{line}\n", encoding="utf-8")
    assert run_cli(["bounds", str(path)]) == (2, "", f"error: line 2: {message}\n")


LONG_ID = "a" * 3000
QUOTED_ID = f"'{LONG_ID[:QUOTE_CHARS]}...'"


@pytest.mark.parametrize("command", ["bounds", "validate"])
def test_violation_quotes_a_bounded_prefix_of_a_long_id(tmp_path, command):
    # the whole id once made a 3,063-byte bounds line and a 3,056-byte validate line
    path = tmp_path / "long-id.cc"
    path.write_text(f"components 2\nclasp {LONG_ID} 1 2 +\norder 1 {LONG_ID}\norder 2\n", encoding="utf-8")
    line = f"order for component 2 is incomplete: missing clasp id {QUOTED_ID}\n"
    expected = (2, "", "error: " + line) if command == "bounds" else (2, line, "")
    assert run_cli([command, str(path)]) == expected


def test_every_violation_quotes_a_bounded_prefix():
    big = "9" * 3000
    parts = (
        3,
        (
            Clasp(LONG_ID, 1, 1, 1),
            Clasp(LONG_ID, 1, 2, 1),
            Clasp("b" + LONG_ID, 1, int(big), 1),
            Clasp("c" + LONG_ID, 2, 3, 1),
        ),
        (("z" + LONG_ID, "z" + LONG_ID), ("c" + LONG_ID,), ("b" + LONG_ID,)),
    )
    with pytest.raises(InvalidComplexError) as excinfo:
        CComplex(*parts)
    assert excinfo.value.violations == validate(*parts) == [
        f"clasp {QUOTED_ID} is a self-clasp (both ends on component 1)",
        f"duplicate clasp id {QUOTED_ID}",
        f"clasp 'b{LONG_ID[:QUOTE_CHARS - 1]}...' references unknown component {big[:QUOTE_CHARS]}...",
        f"order for component 1 references unknown clasp id 'z{LONG_ID[:QUOTE_CHARS - 1]}...'",
        f"order for component 1 repeats clasp id 'z{LONG_ID[:QUOTE_CHARS - 1]}...'",
        f"order for component 3 lists non-incident clasp 'b{LONG_ID[:QUOTE_CHARS - 1]}...'",
        f"order for component 3 is incomplete: missing clasp id 'c{LONG_ID[:QUOTE_CHARS - 1]}...'",
    ]


@pytest.mark.parametrize(
    "args,message",
    [
        ((LONG_ID + " ", 1, 2, 1), f"clasp id must be a nonempty token without whitespace, got '{LONG_ID[:QUOTE_CHARS]}...'"),
        (("a", LONG_ID, 2, 1), f"clasp endpoints must be positive integers, got {QUOTED_ID}"),
        (("a", 1, 2, LONG_ID), f"clasp sign must be +1 or -1, got {QUOTED_ID}"),
        (("a", 1, 2, (1,) * 3000), f"clasp sign must be +1 or -1, got {repr((1,) * 3000)[:QUOTE_CHARS]}..."),
        (("a b", 1, 2, 1), "clasp id must be a nonempty token without whitespace, got 'a b'"),
        (("a", -3, 2, 1), "clasp endpoints must be positive integers, got -3"),
        (("a", 1, 2, "+"), "clasp sign must be +1 or -1, got '+'"),
    ],
    ids=["id", "endpoint", "sign", "sign-tuple", "short-id", "short-endpoint", "short-sign"],
)
def test_clasp_errors_quote_a_bounded_prefix(args, message):
    with pytest.raises(ValueError) as excinfo:
        Clasp(*args)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "line,message",
    [
        ("components 1" + "0" * 3000, f"line 1: component count 1{'0' * (QUOTE_CHARS - 1)}... exceeds the limit 1000000"),
        (f"components 2\norder 1{'0' * 3000}", f"line 2: order refers to component 1{'0' * (QUOTE_CHARS - 1)}..., but there are 2 components"),
        ("components 2\nclasp a 0 2 +", "line 2: clasp endpoints must be positive integers, got 0"),
    ],
    ids=["components", "order", "zero-endpoint"],
)
def test_parse_errors_quote_a_bounded_prefix_of_a_long_number(line, message):
    with pytest.raises(ComplexFormatError) as excinfo:
        parse_complex(line + "\n")
    assert str(excinfo.value) == message


def test_validate_component_count():
    assert any("at least 1" in v for v in validate(0, (), ()))
    with pytest.raises(InvalidComplexError, match="^invalid complex: component count must be at least 1, got 0$"):
        CComplex(0, (), ())


@pytest.mark.parametrize(
    "n, clasps, orders, violations",
    [
        (1, (), ((), ("zz",)), []),  # the extra order was never read
        (2, (), ((),), []),  # the missing one raised IndexError
        (0, (), ((),), ["component count must be at least 1, got 0"]),
        (2, (Clasp("a", 1, 1, 1),), ((),), ["clasp 'a' is a self-clasp (both ends on component 1)"]),
    ],
)
def test_validate_reports_a_wrong_number_of_orders(n, clasps, orders, violations):
    # the clasps are still checked; the orders, which match no component, are not
    message = f"expected {n} traversal orders, got {len(orders)}"
    assert validate(n, clasps, orders) == [*violations, message]
    with pytest.raises(ValueError) as excinfo:
        CComplex(n, clasps, orders)
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message


# --- validate: the set comparison against the id-by-id walk ----------------


def plain(clasps):
    """Clasps as the reference takes them: (id, a, b, sign) tuples."""
    return [(c.id, c.a, c.b, c.sign) for c in clasps]


def words_by_reference(F):
    """The letter keys of each word of F, as the reference reads them."""
    clasps = plain(F.clasps)
    return [reference.clasp_word(clasps, F.orders, k) for k in range(1, F.n + 1)]


CLASP_IDS = ("a", "b", "c", "d", "e", "f")  # few, so ids repeat
UNKNOWN_IDS = ("y", "z")  # never a clasp's


@st.composite
def complex_parts(draw):
    """n, clasps and orders: each order lists the true incidences of its
    component, shuffled, and then a few orders are corrupted."""
    n = draw(st.integers(1, 5))
    ends = st.integers(1, n + 1)  # n + 1 is an unknown component
    clasp = st.builds(Clasp, st.sampled_from(CLASP_IDS), ends, ends, st.sampled_from((1, -1)))
    clasps = tuple(draw(st.lists(clasp, max_size=8)))
    orders = [[] for _ in range(n)]
    first = set()
    for c in clasps:  # the first clasp of an id is the one validate keeps
        if c.id not in first and c.a != c.b and c.b <= n:
            orders[c.a - 1].append(c.id)
            orders[c.b - 1].append(c.id)
        first.add(c.id)
    orders = [draw(st.permutations(order)) for order in orders]
    for _ in range(draw(st.integers(0, 3))):
        order = orders[draw(st.integers(0, n - 1))]
        edit = draw(st.sampled_from(("repeat", "drop", "unknown", "other")))
        if edit in ("repeat", "drop") and order:
            at = draw(st.integers(0, len(order) - 1))
            if edit == "repeat":
                order.insert(draw(st.integers(0, len(order))), order[at])
            else:
                del order[at]
        elif edit in ("unknown", "other"):
            cid = draw(st.sampled_from(UNKNOWN_IDS if edit == "unknown" else CLASP_IDS))
            if order:
                order[draw(st.integers(0, len(order) - 1))] = cid
            else:
                order.append(cid)
    return n, clasps, tuple(map(tuple, orders))


@settings(max_examples=600)
@given(complex_parts())
# a repeat that keeps the length: the order of 1 lists a twice and never b
@example((2, (Clasp("a", 1, 2, 1), Clasp("b", 1, 2, -1)), (("a", "a"), ("a", "b"))))
# a duplicate clasp id, listed in the orders of both clasps that carry it
@example((3, (Clasp("a", 1, 2, 1), Clasp("a", 1, 3, 1)), (("a",), ("a",), ("a",))))
# b moved from component 2's order to component 1's
@example((3, (Clasp("a", 1, 2, 1), Clasp("b", 2, 3, -1)), (("a", "b"), ("a",), ("b",))))
# an order of the right length that lists a self-clasp in place of a
@example((2, (Clasp("a", 1, 2, 1), Clasp("b", 1, 1, -1)), (("b",), ("a",))))
# an order of the right length that lists a clasp on an unknown component in place of a
@example((2, (Clasp("a", 1, 2, 1), Clasp("b", 1, 3, -1)), (("b",), ("a",))))
# a self-clasp on an unknown component names that component once, not for both ends
@example((3, (Clasp("x", 5, 5, 1), Clasp("y", 4, 5, 1)), ((), (), ())))
# an order that repeats an id, and one that lists an id no clasp carries
@example((2, (Clasp("a", 1, 2, 1),), (("a", "a"), ("a", "z"))))
def test_validate_agrees_with_the_walk(parts):
    n, clasps, orders = parts
    assert validate(n, clasps, orders) == reference.validate(n, plain(clasps), orders)


def test_clasp_constructor():
    c = Clasp("z", 3, 1, -1)
    assert (c.a, c.b) == (1, 3)
    with pytest.raises(ValueError):
        Clasp("", 1, 2, 1)
    with pytest.raises(ValueError):
        Clasp("a b", 1, 2, 1)
    with pytest.raises(ValueError):
        Clasp("a", 1, 2, 0)
    with pytest.raises(ValueError):
        Clasp("a", 0, 2, 1)
    # bool is an int subclass, so True used to pass as endpoint 1 or sign +1
    for args in (("a", True, 2, 1), ("a", 1, True, 1), ("a", 1, 2, True)):
        with pytest.raises(ValueError):
            Clasp(*args)


@pytest.mark.parametrize("cid", [" a", "a\n", "a\u00a0b", "\u2003", b"a", ("a",), 7])
def test_clasp_id_is_one_string_token(cid):
    with pytest.raises(ValueError, match="clasp id must be"):
        Clasp(cid, 1, 2, 1)


def test_ccomplex_constructor():
    with pytest.raises(ValueError):
        CComplex(2, (), ((),))
    with pytest.raises(ValueError):
        CComplex(-1, (), ())


def test_ccomplex_refuses_a_clasp_that_is_not_a_clasp():
    # a bare tuple once reached validate and died there with an AttributeError
    with pytest.raises(ValueError, match=r"^clasps must be Clasp records, got \('a', 1, 2, 1\)$"):
        CComplex(2, [("a", 1, 2, 1)], [["a"], ["a"]])
    with pytest.raises(ValueError, match=rf"^clasps must be Clasp records, got '{'b' * QUOTE_CHARS}\.\.\.'$"):
        CComplex(2, [Clasp("a", 1, 2, 1), "b" * 3000], [["a"], ["a"]])


def test_ccomplex_refuses_an_order_given_as_a_string():
    # tuple() once split the string into the one-character ids "a"
    with pytest.raises(ValueError, match="^a traversal order must be a sequence of clasp ids, not a string, got 'a'$"):
        CComplex(2, (Clasp("a", 1, 2, 1),), ["a", "a"])


def test_ccomplex_refuses_an_id_that_is_not_a_string():
    # a list id once died inside validate with "unhashable type: 'list'"
    with pytest.raises(ValueError, match=r"^clasp ids in a traversal order must be strings, got \['a'\]$"):
        CComplex(1, (), [[["a"]]])
    long_id = (7,) * 3000
    quoted = re.escape(repr(long_id)[:QUOTE_CHARS] + "...")
    with pytest.raises(ValueError, match=f"^clasp ids in a traversal order must be strings, got {quoted}$"):
        CComplex(2, (Clasp("a", 1, 2, 1),), [["a"], ["a", long_id]])


def test_clasp_has_one_constructor(monkeypatch):
    assert not hasattr(Clasp, "_from_fields")
    assert not hasattr(complexes, "_fill_clasp")
    assert "object.__new__" not in inspect.getsource(complexes)
    # the parser and generate_brn make every clasp through Clasp.__init__
    calls = []
    init = Clasp.__init__
    monkeypatch.setattr(Clasp, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    parse_complex(BORROMEAN_TEXT)
    generate_brn(1)
    assert calls == [("p", 1, 2, 1), ("q", 1, 2, -1), ("r", 1, 3, 1), ("s", 1, 3, -1)] + [
        ("p1", 1, 2, 1), ("q1", 1, 2, -1), ("r1", 1, 3, 1), ("s1", 1, 3, -1)
    ]


@pytest.mark.parametrize("n", [True, False, 2.0, "1"])
def test_ccomplex_refuses_a_component_count_that_is_not_an_int(n):
    # bool is an int subclass, so True was once taken as one component
    with pytest.raises(ValueError, match="component count must be a nonnegative integer"):
        CComplex(n, (), ((),) * int(n))


def test_clasp_word_requires_validity_and_range():
    with pytest.raises(InvalidComplexError):
        CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ()))
    empty = CComplex(1, (), ((),))
    assert clasp_word(empty, 1) == ClaspWord()
    with pytest.raises(ValueError):
        clasp_word(empty, 2)
    # bool is an int subclass, but True is not component 1
    with pytest.raises(ValueError, match="^component True is not a component"):
        clasp_word(empty, True)


@settings(max_examples=50)
@given(shuffled_complexes(2, 5))
@example(parse_complex(BORROMEAN_TEXT))
@example(generate_brn(2))
@example(generate_brn(5))
def test_handshake_identity(F):
    word_lengths = sum(len(clasp_word(F, k)) for k in range(1, F.n + 1))
    assert 2 * len(F.clasps) == word_lengths


@settings(max_examples=50)
@given(shuffled_complexes(1, 6))
@example(parse_complex(BORROMEAN_TEXT))
@example(generate_brn(4))
@example(CComplex(1, (), ((),)))
def test_clasp_words_read_each_word_as_clasp_word_does(F):
    expected = words_by_reference(F)
    assert [reference.letters(clasp_word(F, k).runs) for k in range(1, F.n + 1)] == expected
    assert [reference.letters(w.runs) for w in clasp_words(F)] == expected


@settings(max_examples=20)
@given(shuffled_complexes(2, 6))
@example(generate_brn(50))
def test_a_clasp_word_holds_one_run_object_a_distinct_letter(F):
    for word in clasp_words(F):
        assert {count for _, count in word.runs} <= {1}
        assert len({id(run) for run in word.runs}) == len(set(word.runs))


@settings(max_examples=40)
@given(shuffled_complexes(3, 6))
def test_triple_linking_reads_the_words_the_reference_reads(F):
    w = [None] + words_by_reference(F)
    for i, j, k in itertools.permutations(range(1, F.n + 1), 3):
        expected = (reference.e_ij(w[k], i, j), reference.e_ij(w[i], j, k), reference.e_ij(w[j], k, i))
        assert triple_linking(F, i, j, k).contributions == expected


@settings(max_examples=50)
@given(shuffled_complexes(4, max_clasps=4))
@example(parse_complex(BORROMEAN_TEXT))
@example(generate_brn(3))
def test_letter_multisets_match_clasp_signs(F):
    for i in range(1, F.n + 1):
        for j in range(1, F.n + 1):
            if i == j:
                continue
            clasp_signs = sorted(
                c.sign for c in F.clasps if {c.a, c.b} == {i, j}
            )
            # a run's key is its index times its sign
            from_i = sorted(
                key // j for key, count in clasp_word(F, i).runs if abs(key) == j for _ in range(count)
            )
            from_j = sorted(
                key // i for key, count in clasp_word(F, j).runs if abs(key) == i for _ in range(count)
            )
            assert from_i == clasp_signs
            assert from_j == clasp_signs


@settings(max_examples=50)
@given(shuffled_complexes(1, 4))
@example(parse_complex(BORROMEAN_TEXT))
@example(generate_brn(4))
def test_print_round_trip(F):
    text = print_complex(F)
    again = parse_complex(text)
    assert print_complex(again) == text
    assert again.n == F.n
    assert set(again.clasps) == set(F.clasps)
    for k in range(1, F.n + 1):
        assert again.orders[k - 1] == F.orders[k - 1]
    if F.n in (2, 3):  # the components bound_report takes
        assert bound_report(again) == bound_report(F)


def test_print_complex_is_canonical():
    scrambled = CComplex(
        2,
        (Clasp("late", 1, 2, -1), Clasp("early", 1, 2, 1)),
        (("late", "early"), ("early", "late")),
    )
    text = print_complex(scrambled)
    assert text.index("clasp late") < text.index("clasp early")
    assert "order 1 late early" in text


def test_generate_brn_words():
    for n in (1, 2, 6):
        F = generate_brn(n)
        assert validate(F.n, F.clasps, F.orders) == []
        w1, w2, w3 = (clasp_word(F, k) for k in (1, 2, 3))
        assert w1 == parse_word(f"x3^-{n} x2^{n} x3^{n} x2^-{n}")
        assert w2 == parse_word(f"x1^{n} x1^-{n}")
        assert w3 == parse_word(" ".join(["x1 x1^-1"] * n))


def test_generate_brn_is_valid_and_unlinked():
    for n in range(1, 51):
        F = generate_brn(n)
        assert validate(F.n, F.clasps, F.orders) == []
        assert len(F.clasps) == 4 * n
        for i, j in ((1, 2), (2, 3), (3, 1)):
            assert pairwise_linking(F, i, j) == 0


def test_generate_brn_rejects_bad_n():
    with pytest.raises(ValueError):
        generate_brn(0)
    with pytest.raises(ValueError):
        generate_brn(-2)


def test_generate_brn_refuses_n_past_the_cap_before_building():
    excinfo, peak, _ = traced(pytest.raises, ValueError, generate_brn, BRN_CAP + 1)
    assert excinfo.match(f"at most {BRN_CAP}, got {BRN_CAP + 1}")
    assert peak < 100_000


def test_with_rotated_order():
    F = parse_complex(BORROMEAN_TEXT)
    rotated = with_rotated_order(F, 1, 1)
    assert rotated.orders[0] == ("p", "r", "q", "s")
    assert rotated.orders[1:] == F.orders[1:]
    assert with_rotated_order(F, 1, 4).orders == F.orders
    assert with_rotated_order(F, 2, 0).orders == F.orders
    with pytest.raises(ValueError):
        with_rotated_order(F, 9, 1)


@pytest.mark.parametrize("k,r", [(1, 1.5), (1, "1"), (1, None), (1, True), (1.5, 1), (True, 1)])
def test_with_rotated_order_refuses_what_is_not_an_int(k, r):
    # a float rotation once raised TypeError from slicing
    with pytest.raises(ValueError):
        with_rotated_order(parse_complex(BORROMEAN_TEXT), k, r)
