"""Combinatorial C-complexes: signed clasps between components plus the
order in which each component's boundary meets its clasps.

Only the incidence data is modeled; surfaces, genus and embeddings are
not.  Every invariant computed downstream consumes nothing but the clasp
words derived here.

File format (line oriented, ``#`` comments, case-sensitive keywords):

    components <n>
    clasp <id> <a> <b> <+|->     one line per clasp, a and b component indices
    order <k> <id> <id> ...      one line per component; may be empty

The ``order k`` line lists the clasp ids met along component k starting
from its basepoint; rotating the list is a basepoint change.

A complex is checked once: when :func:`validate` finds no violations it
remembers that on the (frozen, immutable) instance, and the functions that
need a well-formed complex skip the check on an instance that passed it.
A new instance, whether built with ``CComplex(...)``, by
:func:`with_rotated_order` or by a copy, is checked again.  An explicit
``validate(F)`` call always runs the full check.

A clasp is checked once too.  The public ``Clasp(...)`` checks every field;
:func:`parse_complex` and :func:`generate_brn` make their clasps from
fields they already know to be a token and integers, so only the
endpoints' lower bound is checked again.  Error messages quote an id or a
bad field, or an integer argument, through :func:`~clasplink._record.clip`,
so no line grows with its input.
"""

from __future__ import annotations

from collections import defaultdict

from ._record import FrozenRecord, clip
from .words import ClaspWord, SignedLetter


# A complex holds one traversal order per component, so a file's component
# count sets the memory it takes, however short the file is.
COMPONENT_CAP = 1_000_000
# generate_brn(n) builds 4n clasps; n = 100_000 takes about 170 MiB.
BRN_CAP = 100_000


class ComplexFormatError(ValueError):
    """Raised when a complex file cannot be parsed."""


def _quote(value: object) -> str:
    """``value`` as an error message quotes it: a string's repr of at most
    ``QUOTE_CHARS`` of its characters, else at most that much of its repr."""
    return repr(clip(value)) if isinstance(value, str) else clip(repr(value))


def _endpoint_error(endpoint: object) -> ValueError:
    return ValueError(f"clasp endpoints must be positive integers, got {_quote(endpoint)}")


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
                raise _endpoint_error(endpoint)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"clasp sign must be +1 or -1, got {_quote(sign)}")
        _fill_clasp(self, id, a, b, sign)

    @classmethod
    def _from_fields(cls, id: str, a: int, b: int, sign: int) -> "Clasp":
        """A clasp from a whitespace-free token, two ints and a sign of
        +1 or -1: only the endpoints' lower bound is checked."""
        if a < 1:
            raise _endpoint_error(a)
        if b < 1:
            raise _endpoint_error(b)
        clasp = object.__new__(cls)
        _fill_clasp(clasp, id, a, b, sign)
        return clasp


def _fill_clasp(clasp: Clasp, id: str, a: int, b: int, sign: int) -> None:
    """Store a clasp's fields, ends in order.  Parsing builds one clasp
    per line, so the stores are spelled out, not looped over ``_fields``."""
    if a > b:
        a, b = b, a
    store = object.__setattr__
    store(clasp, "id", id)
    store(clasp, "a", a)
    store(clasp, "b", b)
    store(clasp, "sign", sign)


class CComplex(FrozenRecord):
    """n components, a tuple of clasps, and one traversal order per component."""

    # _validated: set by validate() once the instance is known well formed
    __slots__ = ("n", "clasps", "orders", "_validated")
    _fields = ("n", "clasps", "orders")
    n: int
    clasps: tuple[Clasp, ...]
    orders: tuple[tuple[str, ...], ...]

    def __init__(self, n: int, clasps: tuple[Clasp, ...], orders: tuple[tuple[str, ...], ...]) -> None:
        # Tuples all the way down, so a validation remembered on the
        # instance cannot go stale through a list mutated afterwards.
        clasps = tuple(clasps)
        orders = tuple(tuple(order) for order in orders)
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"component count must be a nonnegative integer, got {n!r}")
        if len(orders) != n:
            raise ValueError(f"expected {n} traversal orders, got {len(orders)}")
        self._set_fields(n, clasps, orders)
        object.__setattr__(self, "_validated", False)


def validate(F: CComplex) -> list[str]:
    """Check every structural invariant; returns a list of violations.

    An empty list means F is well formed, and F remembers it (see the
    module docstring).  Violations are descriptions, not exceptions, so
    malformed data can be reported in full.
    """
    violations: list[str] = []
    if F.n < 1:
        violations.append(f"component count must be at least 1, got {F.n}")

    seen: dict[str, Clasp] = {}
    # incident[k]: ids of the well-formed clasps with an end on component k
    incident: defaultdict[int, set[str]] = defaultdict(set)
    for c in F.clasps:
        if c.id in seen:
            violations.append(f"duplicate clasp id {_quote(c.id)}")
            continue
        seen[c.id] = c
        if c.a == c.b:
            violations.append(f"clasp {_quote(c.id)} is a self-clasp (both ends on component {c.a})")
        for endpoint in (c.a, c.b):
            if endpoint > F.n:
                violations.append(f"clasp {_quote(c.id)} references unknown component {clip(str(endpoint))}")
        if c.a != c.b and c.b <= F.n:  # a <= b, so both ends are known
            incident[c.a].add(c.id)
            incident[c.b].add(c.id)

    for k in range(1, F.n + 1):
        expected = incident.get(k, set())
        listed: set[str] = set()
        for cid in F.orders[k - 1]:
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
    if not violations:
        object.__setattr__(F, "_validated", True)
    return violations


def _require_valid(F: CComplex) -> None:
    """Raise ValueError listing the violations unless F is well formed;
    free for an instance that has already passed :func:`validate`."""
    if F._validated:
        return
    violations = validate(F)
    if violations:
        raise ValueError("invalid complex: " + "; ".join(violations))


def _require_component(F: CComplex, k: int) -> None:
    """Raise ValueError unless k is one of F's components 1..n."""
    if not 1 <= k <= F.n:
        raise ValueError(f"component {clip(str(k))} is not a component of this complex (n={F.n})")


def clasp_word(F: CComplex, k: int) -> ClaspWord:
    """The word read along component k: one letter per clasp met, whose
    index is the component at the clasp's other end and whose sign is the
    clasp's sign."""
    _require_valid(F)
    _require_component(F, k)
    # At most 2*(n-1) distinct letters: one per (other end, sign), shared
    # by every clasp id that reads as it.
    letters: dict[tuple[int, int], SignedLetter] = {}
    letter_of: dict[str, SignedLetter] = {}
    for c in F.clasps:
        if c.a == k:
            other = c.b
        elif c.b == k:
            other = c.a
        else:
            continue
        letter = letters.get((other, c.sign))
        if letter is None:
            letter = letters[other, c.sign] = SignedLetter(other, c.sign)
        letter_of[c.id] = letter
    return ClaspWord(tuple(letter_of[cid] for cid in F.orders[k - 1]))


def total_clasps(F: CComplex) -> int:
    """Number of clasps; twice this equals the summed clasp word lengths."""
    _require_valid(F)
    return len(F.clasps)


def with_rotated_order(F: CComplex, k: int, r: int) -> CComplex:
    """Move component k's basepoint: rotate its traversal order left by r."""
    _require_component(F, k)
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
    if n < 1:
        raise ValueError(f"n must be at least 1, got {clip(str(n))}")
    if n > BRN_CAP:
        raise ValueError(f"n may be at most {BRN_CAP}, got {clip(str(n))}")
    p = [f"p{m}" for m in range(1, n + 1)]  # 1-2 positive
    q = [f"q{m}" for m in range(1, n + 1)]  # 1-2 negative
    r = [f"r{m}" for m in range(1, n + 1)]  # 1-3 positive
    s = [f"s{m}" for m in range(1, n + 1)]  # 1-3 negative
    make = Clasp._from_fields
    clasps = tuple(
        [make(cid, 1, 2, 1) for cid in p]
        + [make(cid, 1, 2, -1) for cid in q]
        + [make(cid, 1, 3, 1) for cid in r]
        + [make(cid, 1, 3, -1) for cid in s]
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
    problems.  Semantic problems (self-clasps, incomplete orders, ...) are
    left for :func:`validate` to report.
    """
    n: int | None = None
    clasps: list[Clasp] = []
    orders: dict[int, tuple[str, ...]] = {}
    make_clasp = Clasp._from_fields  # cid is a split() token, a and b ints

    def fail(line_no: int, message: str) -> ComplexFormatError:
        return ComplexFormatError(f"line {line_no}: {message}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
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
                clasps.append(make_clasp(cid, a, b, 1 if sign_text == "+" else -1))
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
    return CComplex(n, tuple(clasps), tuple(orders.get(k, ()) for k in range(1, n + 1)))


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
