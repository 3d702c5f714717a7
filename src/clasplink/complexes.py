"""Combinatorial C-complexes: signed clasps between components plus the
order in which each component's boundary meets its clasps.

Only the incidence data is modeled; surfaces, genus and embeddings are
not.  Every invariant computed downstream consumes nothing but the clasp
words derived here, and one loop reads them: :func:`clasp_word`,
:func:`clasp_words` and ``invariants.triple_linking`` each get the words
they need from one pass over the clasps.

File format (line oriented, ``#`` comments, case-sensitive keywords):

    components <n>
    clasp <id> <a> <b> <+|->     one line per clasp, a and b component indices
    order <k> <id> <id> ...      one line per component; may be empty

The ``order k`` line lists the clasp ids met along component k starting
from its basepoint; rotating the list is a basepoint change.

A complex is well formed by construction: ``CComplex(...)`` runs
:func:`validate` on its parts and raises :class:`InvalidComplexError`,
listing every violation, if there are any.  So a ``CComplex`` that exists
is well formed, and nothing that takes one checks it again.  Every way to
make one (:func:`parse_complex`, :func:`generate_brn`,
:func:`with_rotated_order`, a copy or a pickle) goes through that check.

``Clasp(...)`` is the one way to make a clasp, and every caller, the
parser and :func:`generate_brn` included, gets every check of its fields.
Error messages quote an id or a bad field, or an integer argument, through
:func:`~clasplink._record.clip`, so no line grows with its input.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, filterfalse

from ._record import FrozenRecord, clip
from .words import ClaspWord, SignedLetter


# A complex holds one traversal order per component, so a file's component
# count sets the memory it takes, however short the file is.
COMPONENT_CAP = 1_000_000
# generate_brn(n) builds 4n clasps; n = 100_000 takes about 170 MiB.
BRN_CAP = 100_000


class ComplexFormatError(ValueError):
    """Raised when a complex file cannot be parsed."""


class InvalidComplexError(ValueError):
    """Raised by ``CComplex(...)``; ``violations`` lists what :func:`validate` found."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("invalid complex: " + "; ".join(violations))
        self.violations = violations

    def __reduce__(self) -> tuple:  # copy and pickle rebuild from the list
        return self.__class__, (self.violations,)


def _quote(value: object) -> str:
    """``value`` as an error message quotes it: a string's repr of at most
    ``QUOTE_CHARS`` of its characters, else at most that much of its repr."""
    return repr(clip(value)) if isinstance(value, str) else clip(repr(value))


class Clasp(FrozenRecord):
    """A signed clasp joining components a and b, stored with a <= b."""

    __slots__ = _fields = ("id", "a", "b", "sign")
    id: str
    a: int
    b: int
    sign: int

    def __init__(self, id: str, a: int, b: int, sign: int) -> None:
        # str.split() splits on exactly the characters str.isspace() accepts
        if not isinstance(id, str) or id.split() != [id]:
            raise ValueError(f"clasp id must be a nonempty token without whitespace, got {_quote(id)}")
        # type() rather than isinstance(): bool is an int subclass
        for endpoint in (a, b):
            if type(endpoint) is not int or endpoint < 1:
                raise ValueError(f"clasp endpoints must be positive integers, got {_quote(endpoint)}")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"clasp sign must be +1 or -1, got {_quote(sign)}")
        if a > b:
            a, b = b, a
        # Parsing builds one clasp per line, so the stores are spelled out,
        # not looped over _fields.
        store = object.__setattr__
        store(self, "id", id)
        store(self, "a", a)
        store(self, "b", b)
        store(self, "sign", sign)


class CComplex(FrozenRecord):
    """n components, a tuple of clasps, and one traversal order per component."""

    __slots__ = _fields = ("n", "clasps", "orders")
    n: int
    clasps: tuple[Clasp, ...]
    orders: tuple[tuple[str, ...], ...]

    def __init__(self, n: int, clasps: tuple[Clasp, ...], orders: tuple[tuple[str, ...], ...]) -> None:
        # Tuples all the way down, so no list mutated afterwards can make
        # the checked instance malformed.
        clasps = tuple(clasps)
        orders = tuple(orders)
        if type(n) is not int or n < 0:
            raise ValueError(f"component count must be a nonnegative integer, got {n!r}")
        if len(orders) != n:
            raise ValueError(f"expected {n} traversal orders, got {len(orders)}")
        for c in clasps:
            if not isinstance(c, Clasp):
                raise ValueError(f"clasps must be Clasp records, got {_quote(c)}")
        # filter() tests each order and id in C, so only a bad one reaches a
        # loop body; tuple() would split a string into one-character ids.
        for order in filter(str.__instancecheck__, orders):
            raise ValueError(f"a traversal order must be a sequence of clasp ids, not a string, got {_quote(order)}")
        orders = tuple(map(tuple, orders))
        for cid in filterfalse(str.__instancecheck__, chain.from_iterable(orders)):
            raise ValueError(f"clasp ids in a traversal order must be strings, got {_quote(cid)}")
        violations = validate(n, clasps, orders)
        if violations:
            raise InvalidComplexError(violations)
        self._set_fields(n, clasps, orders)


def validate(n: int, clasps: tuple[Clasp, ...], orders: tuple[tuple[str, ...], ...]) -> list[str]:
    """Check every structural invariant of the parts of a complex: n
    components, its clasps and one traversal order per component.

    Returns the list of violations, empty when the parts are well formed.
    They are descriptions, not exceptions, so malformed data is reported
    in full; ``CComplex(n, clasps, orders)`` raises them as one
    :class:`InvalidComplexError`.
    """
    violations: list[str] = []
    if n < 1:
        violations.append(f"component count must be at least 1, got {n}")

    seen: dict[str, Clasp] = {}
    # incident[k]: ids of the well-formed clasps with an end on component k
    incident: defaultdict[int, set[str]] = defaultdict(set)
    for c in clasps:
        if c.id in seen:
            violations.append(f"duplicate clasp id {_quote(c.id)}")
            continue
        seen[c.id] = c
        if c.a == c.b:
            violations.append(f"clasp {_quote(c.id)} is a self-clasp (both ends on component {c.a})")
        if c.b > n:  # a <= b, so no end is unknown unless b is
            for endpoint in (c.a, c.b):
                if endpoint > n:
                    violations.append(f"clasp {_quote(c.id)} references unknown component {clip(str(endpoint))}")
        elif c.a != c.b:
            incident[c.a].add(c.id)
            incident[c.b].add(c.id)

    for k in range(1, n + 1):
        expected = incident.get(k, set())
        listed: set[str] = set()
        for cid in orders[k - 1]:
            if cid in listed:
                violations.append(f"order for component {k} repeats clasp id {_quote(cid)}")
                continue
            listed.add(cid)
            if cid not in seen:
                violations.append(f"order for component {k} references unknown clasp id {_quote(cid)}")
            elif cid not in expected:
                violations.append(f"order for component {k} lists non-incident clasp {_quote(cid)}")
        for cid in sorted(expected - listed):
            violations.append(f"order for component {k} is incomplete: missing clasp id {_quote(cid)}")
    return violations


def _require_component(F: CComplex, k: int) -> None:
    """Raise ValueError unless k is one of F's components 1..n."""
    if type(k) is not int or not 1 <= k <= F.n:
        raise ValueError(f"component {clip(str(k))} is not a component of this complex (n={F.n})")


def _read_words(F: CComplex, components: range | tuple[int, ...]) -> list[ClaspWord]:
    """The words of the given distinct components, in that order, from one
    pass over the clasps.  The components are checked first, in that order."""
    # tables[k][id]: the letter clasp id reads as along a wanted component
    # k that meets a clasp, so has a nonempty order; None for every other k
    tables: list[dict[str, SignedLetter] | None] = [None] * (F.n + 1)
    for k in components:
        _require_component(F, k)
        tables[k] = {} if F.orders[k - 1] else None
    letters: dict[int, SignedLetter] = {}  # one shared letter per index * sign
    for c in F.clasps:
        a, b, sign = c.a, c.b, c.sign
        ids = tables[a]
        if ids is not None:
            letter = letters.get(b * sign)
            if letter is None:
                letter = letters[b * sign] = SignedLetter(b, sign)
            ids[c.id] = letter
        ids = tables[b]
        if ids is not None:
            letter = letters.get(a * sign)
            if letter is None:
                letter = letters[a * sign] = SignedLetter(a, sign)
            ids[c.id] = letter
    words = []
    for k in components:
        ids, tables[k] = tables[k], None  # free each table once its word is read
        words.append(ClaspWord(tuple(map(ids.__getitem__, F.orders[k - 1])) if ids else ()))
    return words


def clasp_word(F: CComplex, k: int) -> ClaspWord:
    """The word read along component k: one letter per clasp met, whose
    index is the component at the clasp's other end and whose sign is the
    clasp's sign."""
    return _read_words(F, (k,))[0]


def clasp_words(F: CComplex) -> list[ClaspWord]:
    """Every component's word, w1 first, each as :func:`clasp_word` reads it."""
    return _read_words(F, range(1, F.n + 1))


def with_rotated_order(F: CComplex, k: int, r: int) -> CComplex:
    """Move component k's basepoint: rotate its traversal order left by r."""
    _require_component(F, k)
    if type(r) is not int:
        raise ValueError(f"rotation must be an integer, got {_quote(r)}")
    order = F.orders[k - 1]
    if order:
        r %= len(order)
        order = order[r:] + order[:r]
    orders = F.orders[: k - 1] + (order,) + F.orders[k:]
    return CComplex(F.n, F.clasps, orders)


def generate_brn(n: int) -> CComplex:
    """The n-fold generalized Borromean complex: 4n clasps, all pairwise
    linking numbers zero, triple linking number n^2.

    Component 1 meets n negative then n positive clasps with component 3
    and n positive then n negative clasps with component 2, interleaved so
    its word is x3^-n x2^n x3^n x2^-n; components 2 and 3 read x1^n x1^-n
    and (x1 x1^-1)^n respectively.  ``n`` may be at most ``BRN_CAP``, and a
    larger one is refused before anything is built.
    """
    if type(n) is not int:  # bool is an int subclass
        raise ValueError(f"n must be an integer, got {_quote(n)}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {clip(str(n))}")
    if n > BRN_CAP:
        raise ValueError(f"n may be at most {BRN_CAP}, got {clip(str(n))}")
    p = [f"p{m}" for m in range(1, n + 1)]  # 1-2 positive
    q = [f"q{m}" for m in range(1, n + 1)]  # 1-2 negative
    r = [f"r{m}" for m in range(1, n + 1)]  # 1-3 positive
    s = [f"s{m}" for m in range(1, n + 1)]  # 1-3 negative
    clasps = tuple(
        [Clasp(cid, 1, 2, 1) for cid in p]
        + [Clasp(cid, 1, 2, -1) for cid in q]
        + [Clasp(cid, 1, 3, 1) for cid in r]
        + [Clasp(cid, 1, 3, -1) for cid in s]
    )
    order1 = tuple(s + p + r + q)
    order2 = tuple(p + q)
    order3 = tuple(x for pair in zip(r, s) for x in pair)
    return CComplex(3, clasps, (order1, order2, order3))


def _ascii_int(text: str) -> int | None:
    """The value of a run of ASCII digits 0-9, else None.

    str.isdigit() also accepts digits such as '²' that int() rejects, and
    int() also reads '1_0' as 10 and non-ASCII digits such as '٣' as 3.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def parse_complex(text: str) -> CComplex:
    """Parse the line-oriented complex format.

    Raises :class:`ComplexFormatError` with a line number on syntax
    problems, and :class:`InvalidComplexError`, listing every violation,
    on semantic ones (self-clasps, incomplete orders, ...).
    """
    n: int | None = None
    clasps: list[Clasp] = []
    orders: dict[int, tuple[str, ...]] = {}

    def fail(line_no: int, message: str) -> ComplexFormatError:
        return ComplexFormatError(f"line {line_no}: {message}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        keyword = fields[0]
        if keyword == "components":
            if n is not None:
                raise fail(line_no, "duplicate components line")
            n = _ascii_int(fields[1]) if len(fields) == 2 else None
            if n is None:
                raise fail(line_no, "expected: components <n>")
            if n > COMPONENT_CAP:
                raise fail(line_no, f"component count {clip(str(n))} exceeds the limit {COMPONENT_CAP}")
        elif keyword == "clasp":
            if n is None:
                raise fail(line_no, "clasp line before components line")
            if len(fields) != 5:
                raise fail(line_no, "expected: clasp <id> <a> <b> <+|->")
            cid, a_text, b_text, sign_text = fields[1:]
            a, b = _ascii_int(a_text), _ascii_int(b_text)
            if a is None or b is None:
                raise fail(line_no, f"clasp endpoints must be integers, got {clip(a_text)!r} {clip(b_text)!r}")
            if sign_text not in ("+", "-"):
                raise fail(line_no, f"clasp sign must be + or -, got {clip(sign_text)!r}")
            try:
                clasps.append(Clasp(cid, a, b, 1 if sign_text == "+" else -1))
            except ValueError as exc:
                raise fail(line_no, str(exc)) from None
        elif keyword == "order":
            if n is None:
                raise fail(line_no, "order line before components line")
            k = _ascii_int(fields[1]) if len(fields) >= 2 else None
            if k is None:
                raise fail(line_no, "expected: order <k> <id> ...")
            if not 1 <= k <= n:
                raise fail(line_no, f"order refers to component {clip(str(k))}, but there are {n} components")
            if k in orders:
                raise fail(line_no, f"duplicate order line for component {k}")
            orders[k] = tuple(fields[2:])
        else:
            raise fail(line_no, f"unknown keyword {clip(keyword)!r}")

    if n is None:
        raise ComplexFormatError("missing components line")
    parts = tuple(clasps), tuple(orders.get(k, ()) for k in range(1, n + 1))
    # CComplex validates in this frame: free the text and builders before its peak
    del text, clasps, orders
    return CComplex(n, *parts)


def print_complex(F: CComplex) -> str:
    """Canonical text form: clasps sorted by (a, b), ties in file order
    (the sort is stable), then one order line per component.  Round-trips
    through :func:`parse_complex`."""
    lines = [f"components {F.n}"]
    for c in sorted(F.clasps, key=lambda c: (c.a, c.b)):
        lines.append(f"clasp {c.id} {c.a} {c.b} {'+' if c.sign == 1 else '-'}")
    for k in range(1, F.n + 1):
        lines.append(" ".join(["order", str(k), *F.orders[k - 1]]))
    return "\n".join(lines) + "\n"
