"""The library's frozen records against the ``@dataclass(frozen=True)``
classes they replaced, kept here as references: equal ``==``, ``hash`` and
``repr``, refused assignment, copies, pickles, keyword construction and the
same construction errors.  Also the package's lazy exports."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field

import pytest

import clasplink
from clasplink._record import QUOTE_CHARS
from clasplink.bounds import BoundReport
from clasplink.complexes import CComplex, Clasp, generate_brn, parse_complex, validate
from clasplink.invariants import TripleLinkingResult
from clasplink.oracles import OracleReport, count_fixed_polyominoes, verify_min_perimeter
from clasplink.words import ClaspWord


# A word's value merges equal neighbouring runs, and no case below has
# any: there it is the runs, as this reference's is.
@dataclass(frozen=True)
class ReferenceClaspWord:
    runs: tuple = ()

    def __post_init__(self) -> None:
        if isinstance(self.runs, str):
            raise ValueError(f"a clasp word takes a sequence of (key, count) runs, not a string, got {self.runs!r}")
        for run in self.runs:
            if type(run) is not tuple or len(run) != 2:
                raise ValueError(f"a run of a clasp word must be a (key, count) tuple, got {run!r}")
            key, count = run
            if type(key) is not int or not key:
                raise ValueError(f"a run's key must be a nonzero integer, got {key!r}")
            if type(count) is not int or count < 1:
                raise ValueError(f"a run's count must be a positive integer, got {count!r}")


@dataclass(frozen=True)
class ReferenceClasp:
    id: str
    a: int
    b: int
    sign: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or self.id.split() != [self.id]:
            raise ValueError(f"clasp id must be a nonempty token without whitespace, got {self.id!r}")
        for endpoint in (self.a, self.b):
            if type(endpoint) is not int or endpoint < 1:
                raise ValueError(f"clasp endpoints must be positive integers, got {endpoint!r}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"clasp sign must be +1 or -1, got {self.sign!r}")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)


@dataclass(frozen=True)
class ReferenceCComplex:
    n: int
    clasps: tuple
    orders: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "clasps", tuple(self.clasps))
        object.__setattr__(self, "orders", tuple(tuple(order) for order in self.orders))
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"component count must be a nonnegative integer, got {self.n!r}")
        if len(self.orders) != self.n:
            raise ValueError(f"expected {self.n} traversal orders, got {len(self.orders)}")


@dataclass(frozen=True)
class ReferenceBoundReport:
    n: int
    lower_C: int
    upper_C: int
    lower_B: int
    upper_B: int
    exact_C: int | frozenset[int] | None = None
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lower_C > self.upper_C:
            raise ValueError(f"lower_C={self.lower_C} exceeds upper_C={self.upper_C}")
        if self.lower_B > self.upper_B:
            raise ValueError(f"lower_B={self.lower_B} exceeds upper_B={self.upper_B}")
        if self.upper_B > self.upper_C:
            raise ValueError(f"upper_B={self.upper_B} exceeds upper_C={self.upper_C}")


@dataclass(frozen=True)
class ReferenceTripleLinkingResult:
    value: int
    contributions: tuple[int, int, int]
    well_defined: bool

    def __post_init__(self) -> None:
        if self.value != sum(self.contributions):
            raise ValueError("value must equal the sum of the contributions")


@dataclass(frozen=True)
class ReferenceOracleReport:
    parameter: int
    observed: int
    predicted: int


def word(pairs, cls=ClaspWord):
    """The word of the letters ``pairs``, (index, sign) each, one run a letter."""
    return cls(tuple((i * s, 1) for i, s in pairs))


def complex_of(spec, clasp=Clasp, cls=CComplex):
    n, clasps, orders = spec
    return cls(n, tuple(clasp(*c) for c in clasps), orders)


# (record, reference, argument tuples): distinct tuples build unequal records
CASES = [
    (ClaspWord, ReferenceClaspWord, [((),), (((1, 1),),), (((1, 1), (-2, 3)),), (((10**30, 1), (-1, 2), (10**30, 1)),)]),
    (Clasp, ReferenceClasp, [("a", 1, 2, 1), ("a", 2, 3, 1), ("b", 1, 2, 1), ("a", 1, 2, -1), ("é", 7, 4, -1)]),
    (OracleReport, ReferenceOracleReport, [(1, 4, 4), (2, 6, 6), (3, 8, 6)]),
    (TripleLinkingResult, ReferenceTripleLinkingResult, [(4, (1, 1, 2), True), (4, (1, 1, 2), False), (0, (0, 0, 0), True)]),
    (BoundReport, ReferenceBoundReport, [(2, 1, 1, 1, 1), (3, 2, 4, 0, 4, None, {"upper_C": "count"}), (2, 0, 2, 0, 2, frozenset({0, 2}))]),
    (CComplex, ReferenceCComplex, [(1, (), ((),)), (2, (), ((), ())), (2, [Clasp("a", 2, 1, -1)], [["a"], ["a"]])]),
]
PAIRS = [(record, reference, args) for record, reference, cases in CASES for args in cases]
PAIR_IDS = [f"{record.__name__}-{k}" for record, _, cases in CASES for k in range(len(cases))]


def shown(reference_repr: str) -> str:
    return reference_repr.replace("Reference", "")


@pytest.mark.parametrize("record,reference,args", PAIRS, ids=PAIR_IDS)
def test_repr_and_hash_match_the_dataclass(record, reference, args):
    new, old = record(*args), reference(*args)
    assert repr(new) == shown(repr(old))
    if record is BoundReport:  # its provenance is a dict
        with pytest.raises(TypeError):
            hash(new)
        with pytest.raises(TypeError):
            hash(old)
    else:
        assert hash(new) == hash(old)


@pytest.mark.parametrize("record,reference,cases", CASES, ids=[c[0].__name__ for c in CASES])
def test_equality_matches_the_dataclass(record, reference, cases):
    for x in cases:
        for y in cases:
            assert (record(*x) == record(*y)) == (reference(*x) == reference(*y))
            assert (record(*x) != record(*y)) == (reference(*x) != reference(*y))
        assert record(*x) != reference(*x)  # other classes never compare equal
        assert record(*x) != tuple(x)


@pytest.mark.parametrize("record,reference,args", PAIRS, ids=PAIR_IDS)
def test_fields_are_frozen(record, reference, args):
    new = record(*args)
    for name in record._fields:
        before = getattr(new, name)
        with pytest.raises(AttributeError):
            setattr(new, name, before)
        with pytest.raises(AttributeError):
            delattr(new, name)
        assert getattr(new, name) is before
    with pytest.raises(AttributeError):
        new.extra = 1
    assert not hasattr(new, "__dict__")


@pytest.mark.parametrize("record,reference,args", PAIRS, ids=PAIR_IDS)
def test_copies_and_pickles_round_trip(record, reference, args):
    new = record(*args)
    for twin in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
        assert type(twin) is record
        assert twin == new
        assert repr(twin) == repr(new)


@pytest.mark.parametrize("record,reference,args", PAIRS, ids=PAIR_IDS)
def test_keyword_construction(record, reference, args):
    kwargs = dict(zip(record._fields, args))
    assert record(**kwargs) == record(*args)
    assert repr(record(**kwargs)) == shown(repr(reference(**kwargs)))


def test_nested_records_match_the_dataclass():
    pairs = [(1, 1), (2, -1), (1, -1)]
    assert repr(word(pairs)) == shown(repr(word(pairs, ReferenceClaspWord)))
    assert hash(word(pairs)) == hash(word(pairs, ReferenceClaspWord))
    assert repr(ClaspWord()) == "ClaspWord(runs=())"
    spec = (2, [("a", 2, 1, 1), ("b", 1, 2, -1)], (("a", "b"), ("b", "a")))
    new, old = complex_of(spec), complex_of(spec, ReferenceClasp, ReferenceCComplex)
    assert repr(new) == shown(repr(old))
    assert hash(new) == hash(old)
    assert validate(new.n, new.clasps, new.orders) == []


def test_bound_report_provenance_defaults_are_not_shared():
    first, second = BoundReport(2, 1, 1, 1, 1), BoundReport(2, 1, 1, 1, 1)
    assert first.provenance == {} and first.provenance is not second.provenance
    first.provenance["lower_C"] = "note"
    assert second.provenance == {}
    assert BoundReport(2, 1, 1, 1, 1).provenance == {}


INVALID = [
    (ClaspWord, ReferenceClaspWord, (((0, 1),),)),
    (ClaspWord, ReferenceClaspWord, (((1, 0),),)),
    (ClaspWord, ReferenceClaspWord, (((True, 1),),)),
    (ClaspWord, ReferenceClaspWord, (((1, True),),)),
    (Clasp, ReferenceClasp, ("", 1, 2, 1)),
    (Clasp, ReferenceClasp, ("a b", 1, 2, 1)),
    (Clasp, ReferenceClasp, (7, 1, 2, 1)),
    (Clasp, ReferenceClasp, ("a", 0, "x", 1)),
    (Clasp, ReferenceClasp, ("a", "x", 0, 1)),
    (Clasp, ReferenceClasp, ("a", 1, True, 1)),
    (Clasp, ReferenceClasp, ("a", 1, 2, 0)),
    (Clasp, ReferenceClasp, ("a", 1, 2, True)),
    (CComplex, ReferenceCComplex, (-1, (), ())),
    (CComplex, ReferenceCComplex, ("2", (), ((), ()))),
    (CComplex, ReferenceCComplex, (2, (), ((),))),
    (BoundReport, ReferenceBoundReport, (2, 2, 1, 0, 1)),
    (BoundReport, ReferenceBoundReport, (2, 0, 1, 2, 1)),
    (BoundReport, ReferenceBoundReport, (2, 0, 1, 0, 2)),
    (TripleLinkingResult, ReferenceTripleLinkingResult, (1, (0, 0, 0), True)),
]


@pytest.mark.parametrize("record,reference,args", INVALID, ids=lambda v: getattr(v, "__name__", None))
def test_construction_errors_match_the_dataclass(record, reference, args):
    with pytest.raises(ValueError) as expected:
        reference(*args)
    with pytest.raises(ValueError) as actual:
        record(*args)
    assert str(actual.value) == str(expected.value)


LONG_TEXT = "x" * 100_000  # the dataclasses above quoted all 100,047 characters
HUGE = 10**5000  # more digits than repr converts: 4,300 by default


def quoting(build, value, message, quoted):
    """``build(value)`` raises ``message`` with ``quoted`` in place of its
    ``{}``.  The case is named by the builder and the message, with the
    bit length of an int value, or the type of another value that is not a
    string, in place of the quote."""
    if isinstance(value, str):
        kind = ""
    else:
        kind = f"{value.bit_length()}-bit int" if isinstance(value, int) else type(value).__name__
    return pytest.param(build, value, message.format(quoted), id=f"{build.__name__}-{message.format(kind)}")


@pytest.mark.parametrize(
    "build, value, message",
    [
        quoting(lambda value: ClaspWord([(value, 1)]), LONG_TEXT, "a run's key must be a nonzero integer, got {}",
                repr("x" * QUOTE_CHARS + "...")),
        quoting(lambda value: ClaspWord([(1, value)]), LONG_TEXT, "a run's count must be a positive integer, got {}",
                repr("x" * QUOTE_CHARS + "...")),
        quoting(ClaspWord, LONG_TEXT, "a clasp word takes a sequence of (key, count) runs, not a string, got {}",
                repr("x" * QUOTE_CHARS + "...")),
        quoting(lambda value: ClaspWord([value]), LONG_TEXT, "a run of a clasp word must be a (key, count) tuple, got {}",
                repr("x" * QUOTE_CHARS + "...")),
        quoting(lambda value: CComplex(value, (), ()), LONG_TEXT, "component count must be a nonnegative integer, got {}",
                repr("x" * QUOTE_CHARS + "...")),
        # repr refuses these ints, so they are shown by their bit length
        quoting(lambda value: ClaspWord([(1, value)]), -HUGE, "a run's count must be a positive integer, got {}",
                "<negative int of 16610 bits>"),
        quoting(generate_brn, HUGE, "n may be at most 100000, got {}", "<int of 16610 bits>"),
        quoting(verify_min_perimeter, HUGE, "max_area {} exceeds the cap 10", "<int of 16610 bits>"),
        quoting(count_fixed_polyominoes, -HUGE, "max_area must be at least 1, got {}", "<negative int of 16610 bits>"),
        # repr refuses a container of such an int too, so it is shown by its type
        quoting(lambda value: ClaspWord([value]), (HUGE,), "a run of a clasp word must be a (key, count) tuple, got {}",
                "<tuple that repr refuses>"),
        # the longest int that repr converts keeps its text
        quoting(generate_brn, 10**4299, "n may be at most 100000, got {}", "1" + "0" * (QUOTE_CHARS - 1) + "..."),
    ],
)
def test_construction_errors_quote_a_bounded_prefix_of_a_long_value(build, value, message):
    with pytest.raises(ValueError) as caught:
        build(value)
    assert str(caught.value) == message


def test_parsed_and_generated_clasps_equal_public_ones():
    F = parse_complex("components 3\nclasp a 3 1 +\nclasp b 2 3 -\norder 1 a\norder 2 b\norder 3 a b\n")
    assert F.clasps == (Clasp("a", 3, 1, 1), Clasp("b", 2, 3, -1))
    assert (F.clasps[0].a, F.clasps[0].b) == (1, 3)
    for c in generate_brn(2).clasps:
        assert c == Clasp(c.id, c.a, c.b, c.sign)
        assert repr(c) == repr(ReferenceClasp(c.id, c.a, c.b, c.sign)).replace("Reference", "")


def test_star_import_and_every_export_resolve():
    namespace: dict = {}
    exec("from clasplink import *", namespace)
    assert set(clasplink.__all__) <= set(namespace)
    for name in clasplink.__all__:
        module = __import__(f"clasplink.{clasplink._MODULE_OF[name]}", fromlist=[name])
        assert getattr(clasplink, name) is getattr(module, name) is namespace[name]
    assert set(clasplink.__all__) <= set(dir(clasplink))
    assert clasplink.__all__ == sorted(clasplink.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        clasplink.no_such_name


def _raised(call, *args):
    """The exception that ``call(*args)`` raises."""
    with pytest.raises(Exception) as caught:
        call(*args)
    return caught.value


def test_every_exported_exception_survives_copy_and_pickle():
    raised = [
        _raised(clasplink.parse_word, "x1 y"),
        _raised(parse_complex, "components 2\nbogus\n"),
        _raised(parse_complex, "components 2\nclasp a 1 1 +\norder 1 a\n"),
        _raised(verify_min_perimeter, 11, 10),
    ]
    exported = [getattr(clasplink, name) for name in clasplink.__all__]
    assert {type(exc) for exc in raised} == {c for c in exported if isinstance(c, type) and issubclass(c, Exception)}
    for exc in raised:
        for twin in (copy.copy(exc), copy.deepcopy(exc), pickle.loads(pickle.dumps(exc))):
            assert type(twin) is type(exc)
            assert (str(twin), repr(twin)) == (str(exc), repr(exc))
            assert vars(twin) == vars(exc)  # line and column, or violations
    assert (raised[0].line, raised[0].column) == (1, 4)
