"""Combinatorial C-complexes: signed clasps between components plus the
order in which each component's boundary meets its clasps.

Only the incidence data is modeled; surfaces, genus and embeddings are
not.  The pairwise linking number is a signed count of clasps; every
other invariant computed downstream consumes nothing but the clasp words
derived here, and one function reads them: :func:`clasp_word`,
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
:func:`~clasplink._record.quote`, so no line grows with its input.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, filterfalse

from ._record import FrozenRecord, ascii_int, pieces, quote, require_int


# A complex holds one traversal order per component, so a file's component
# count sets the memory it takes, however short the file is.
COMPONENT_CAP = 1_000_000
# generate_brn(n) builds 4n clasps; parsing the text of n = 100_000 peaks at
# about 83 MiB (tracemalloc).
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


class Clasp(FrozenRecord):
    """A signed clasp joining components a and b, stored with a <= b.

    A parse builds one per clasp line, so ``__init__`` stores the fields
    through their slot descriptors, bound once, not ``object.__setattr__``.
    """

    __slots__ = _fields = ("id", "a", "b", "sign")
    id: str
    a: int
    b: int
    sign: int

    def __init__(self, id: str, a: int, b: int, sign: int) -> None:
        # str.split() splits on exactly the characters str.isspace() accepts
        if not isinstance(id, str) or id.split() != [id]:
            raise ValueError(f"clasp id must be a nonempty token without whitespace, got {quote(id)}")
        # type() rather than isinstance(): bool is an int subclass
        if type(a) is not int or a < 1:
            raise ValueError(f"clasp endpoints must be positive integers, got {quote(a)}")
        if type(b) is not int or b < 1:
            raise ValueError(f"clasp endpoints must be positive integers, got {quote(b)}")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"clasp sign must be +1 or -1, got {quote(sign)}")
        if a > b:
            a, b = b, a
        # each slot descriptor's __set__, bound once below, is the store
        # object.__setattr__ makes without looking the name up: a third of
        # the cost of a clasp
        _store_id(self, id)
        _store_a(self, a)
        _store_b(self, b)
        _store_sign(self, sign)


_store_id, _store_a, _store_b, _store_sign = [Clasp.__dict__[name].__set__ for name in Clasp._fields]


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
            raise ValueError(f"component count must be a nonnegative integer, got {quote(n)}")
        if len(orders) != n:
            raise ValueError(f"expected {n} traversal orders, got {len(orders)}")
        # filter() tests each clasp, order and id in C, so only a bad one
        # reaches a loop body; tuple() would split a string into
        # one-character ids.
        for c in filterfalse(Clasp.__instancecheck__, clasps):
            raise ValueError(f"clasps must be Clasp records, got {quote(c)}")
        for order in filter(str.__instancecheck__, orders):
            raise ValueError(f"a traversal order must be a sequence of clasp ids, not a string, got {quote(order)}")
        orders = tuple(map(tuple, orders))
        for cid in filterfalse(str.__instancecheck__, chain.from_iterable(orders)):
            raise ValueError(f"clasp ids in a traversal order must be strings, got {quote(cid)}")
        violations = validate(n, clasps, orders)
        if violations:
            raise InvalidComplexError(violations)
        self._set_slots(n, clasps, orders)


def validate(n: int, clasps: tuple[Clasp, ...], orders: tuple[tuple[str, ...], ...]) -> list[str]:
    """Check every structural invariant of the parts of a complex: n
    components, its clasps and one traversal order per component.

    Returns the list of violations, empty when the parts are well formed.
    They are descriptions, not exceptions, so malformed data is reported
    in full; ``CComplex(n, clasps, orders)`` raises them as one
    :class:`InvalidComplexError`.

    A component's order is accepted when it lists each incident clasp once
    and nothing else: its ids make a dict of as many keys as the order has
    ids and as the component has incident clasps, and that dict holds every
    incident id.  Only an order that fails it is walked id by id, to word
    its violations in the order they occur, and only then is a map of
    every clasp id built, to tell an unknown id from a non-incident one.
    """
    violations: list[str] = []
    if n < 1:
        violations.append(f"component count must be at least 1, got {n}")

    # the ids read, freed once every clasp is: a dict, since on Python 3.11 a
    # set of 20,000 ids takes 2.0 MiB and a dict of them 0.4 MiB
    seen: dict[str, None] = {}
    # incident[k]: ids of the well-formed clasps with an end on component k,
    # each once, in a list: 8 bytes an id, where a dict's keys take 21 to 38
    incident: defaultdict[int, list[str]] = defaultdict(list)
    for c in clasps:
        cid, a, b = c.id, c.a, c.b
        if cid in seen:
            violations.append(f"duplicate clasp id {quote(cid)}")
            continue
        seen[cid] = None
        if a == b:
            violations.append(f"clasp {quote(cid)} is a self-clasp (both ends on component {a})")
        if b > n:  # a <= b, so no end is unknown unless b is
            for endpoint in (a, b) if a < b else (b,):
                if endpoint > n:
                    violations.append(f"clasp {quote(cid)} references unknown component {quote(endpoint)}")
        elif a != b:
            incident[a].append(cid)
            incident[b].append(cid)

    del seen
    if len(orders) != n:
        violations.append(f"expected {n} traversal orders, got {len(orders)}")
        return violations
    known: dict[str, None] | None = None  # every clasp id, built for the first order that fails
    for k, order in enumerate(orders, start=1):
        expected = incident.pop(k, [])  # freed once its order is checked
        # the order's ids, each once, are as many as the incident ids, which
        # are distinct, and hold each of them: so they are the incident ids
        listed = dict.fromkeys(order)
        if len(listed) == len(order) == len(expected) and all(map(listed.__contains__, expected)):
            continue
        if known is None:
            known = dict.fromkeys([c.id for c in clasps])
        expected = dict.fromkeys(expected)
        listed.clear()
        for cid in order:
            if cid in listed:
                violations.append(f"order for component {k} repeats clasp id {quote(cid)}")
                continue
            listed[cid] = None
            if cid not in known:
                violations.append(f"order for component {k} references unknown clasp id {quote(cid)}")
            elif cid not in expected:
                violations.append(f"order for component {k} lists non-incident clasp {quote(cid)}")
        for cid in sorted(expected.keys() - listed.keys()):
            violations.append(f"order for component {k} is incomplete: missing clasp id {quote(cid)}")
    return violations


def _require_component(F: CComplex, k: int) -> None:
    """Raise ValueError unless k is one of F's components 1..n."""
    if type(k) is not int or not 1 <= k <= F.n:
        raise ValueError(f"component {quote(k)} is not a component of this complex (n={F.n})")


class _Runs(dict):
    """Component k's runs by the value e of their clasps (see
    :func:`_read_words`): one ``(key, 1)`` a distinct e, made when first
    asked for and shared after."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        self.k = k

    def __missing__(self, e: int) -> tuple[int, int]:
        k = self.k
        run = self[e] = (e - k if e > 0 else e + k, 1)
        return run


def _read_words(F: CComplex, components: range | tuple[int, ...]) -> list[ClaspWord]:
    """The words of the given distinct components, in that order, from one
    pass over the clasps.  The components are checked first, in that order.
    A word holds one run a letter, and one run object a distinct letter."""
    from .words import ClaspWord  # here, so that a request that reads no word loads no word code

    for k in components:
        _require_component(F, k)
    # Along component k a clasp joining a and b with sign s reads as the
    # letter key (a + b - k) * s, and a + b > k: so from e = (a + b) * s the
    # key is e - k if e > 0, else e + k.
    ends = {c.id: (c.a + c.b) * c.sign for c in F.clasps}
    return [ClaspWord._of_runs(tuple(map(_Runs(k).__getitem__, map(ends.__getitem__, F.orders[k - 1]))))
            for k in components]


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
    require_int("rotation", r, None)
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
    require_int("n", n)
    if n > BRN_CAP:
        raise ValueError(f"n may be at most {BRN_CAP}, got {quote(n)}")
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


_SIGNS = {"+": 1, "-": -1}

def _read_order(fields: list[str], ids: dict[str, str]) -> tuple[str, ...]:
    """The ids of an order line's ``fields`` after k, the last of which may
    be the rest of the line, read a piece at a time.  An id that ``ids``
    holds is its clasp line's string, so no id is kept twice."""
    slices = chain.from_iterable(pieces(field, " ") for field in fields)
    return tuple(chain.from_iterable(map(ids.get, tokens, tokens) for tokens in map(str.split, slices)))


def parse_complex(text: str) -> CComplex:
    """Parse the line-oriented complex format.

    Raises :class:`ComplexFormatError` with a line number on syntax
    problems, and :class:`InvalidComplexError`, listing every violation,
    on semantic ones (self-clasps, incomplete orders, ...).
    """
    n: int | None = None
    clasps: list[Clasp] = []
    ids: dict[str, str] = {}  # each clasp line's id -> that same string
    # k -> order line k's fields after k; its ids are read once every clasp
    # line has been, wherever the order line stands
    orders: dict[int, list[str]] = {}

    def fail(line_no: int, message: str) -> ComplexFormatError:
        return ComplexFormatError(f"line {line_no}: {message}")

    # endpoint text -> its value: a file names few components, so each
    # distinct text is read by ascii_int once, and a refused one never
    ints: dict[str, int] = {}
    for line_no, raw in enumerate(chain.from_iterable(map(str.splitlines, pieces(text, "\n"))), start=1):
        # five fields at most, so an order line's ids are not split here: a
        # clasp line has five, and a sixth is the rest of the line
        fields = raw.split(None, 5)
        if not fields:
            continue
        keyword = fields[0]
        if keyword == "clasp":  # nearly every line, so tested first
            if n is None:
                raise fail(line_no, "clasp line before components line")
            if len(fields) != 5:
                raise fail(line_no, "expected: clasp <id> <a> <b> <+|->")
            _, cid, a_text, b_text, sign_text = fields
            a, b = ints.get(a_text), ints.get(b_text)
            if a is None or b is None:
                a, b = ascii_int(a_text), ascii_int(b_text)
                if a is None or b is None:
                    raise fail(line_no, f"clasp endpoints must be integers, got {quote(a_text)} {quote(b_text)}")
                ints[a_text], ints[b_text] = a, b
            sign = _SIGNS.get(sign_text)
            if sign is None:
                raise fail(line_no, f"clasp sign must be + or -, got {quote(sign_text)}")
            try:
                clasps.append(Clasp(cid, a, b, sign))
            except ValueError as exc:
                raise fail(line_no, str(exc)) from None
            ids[cid] = cid
        elif keyword.startswith("#"):
            continue
        elif keyword == "components":
            if n is not None:
                raise fail(line_no, "duplicate components line")
            n = ascii_int(fields[1]) if len(fields) == 2 else None
            if n is None:
                raise fail(line_no, "expected: components <n>")
            if n > COMPONENT_CAP:
                raise fail(line_no, f"component count {quote(n)} exceeds the limit {COMPONENT_CAP}")
        elif keyword == "order":
            if n is None:
                raise fail(line_no, "order line before components line")
            k = ascii_int(fields[1]) if len(fields) >= 2 else None
            if k is None:
                raise fail(line_no, "expected: order <k> <id> ...")
            if not 1 <= k <= n:
                raise fail(line_no, f"order refers to component {quote(k)}, but there are {n} components")
            if k in orders:
                raise fail(line_no, f"duplicate order line for component {k}")
            orders[k] = fields[2:]
        else:
            raise fail(line_no, f"unknown keyword {quote(keyword)}")

    if n is None:
        raise ComplexFormatError("missing components line")
    # every line is read: free the text and the last line before the ids are
    # read, and each order line's fields once its ids are
    del text, raw, fields
    read = tuple(_read_order(orders.pop(k), ids) if k in orders else () for k in range(1, n + 1))
    # CComplex validates in this frame: free the builders before its peak
    del ids
    clasps = tuple(clasps)
    return CComplex(n, clasps, read)


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
