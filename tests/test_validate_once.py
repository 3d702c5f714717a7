"""A complex is well formed by construction: ``CComplex(...)`` runs
validate() once on its parts and raises InvalidComplexError when it finds
violations, so nothing that takes a complex checks it again."""

import copy
import pickle
from pathlib import Path

import pytest

from clasplink import cli, complexes
from clasplink.bounds import bound_report
from clasplink.complexes import (
    CComplex,
    Clasp,
    InvalidComplexError,
    clasp_word,
    generate_brn,
    parse_complex,
    validate,
    with_rotated_order,
)
from clasplink.invariants import triple_linking

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "golden" / "complex"
INVALID = sorted(GOLDEN.glob("invalid-*.cc"))


@pytest.fixture
def validate_calls(monkeypatch):
    """Count the real checks: CComplex looks validate up in complexes."""
    calls = []

    def counting(n, clasps, orders):
        calls.append(n)
        return validate(n, clasps, orders)

    monkeypatch.setattr(complexes, "validate", counting)
    return calls


@pytest.mark.parametrize("name", ["borromean.cc", "two_component_three_clasps.cc"])
def test_bound_report_checks_once(validate_calls, name):
    F = parse_complex((DATA / name).read_text())
    assert len(validate_calls) == 1
    first = bound_report(F)
    assert bound_report(F) == first
    assert len(F.clasps) == first.upper_C
    assert [clasp_word(F, k) for k in range(1, F.n + 1)]
    if F.n == 3:
        triple_linking(F, 1, 2, 3)
    assert len(validate_calls) == 1  # nothing checks a built complex again


def test_cli_bounds_checks_once(validate_calls, capsys):
    assert cli.main(["bounds", str(DATA / "borromean.cc")]) == 0
    assert len(validate_calls) == 1
    assert cli.main(["mu", str(DATA / "borromean.cc"), "1", "2", "3"]) == 0
    assert len(validate_calls) == 2  # a new parse is a new instance
    capsys.readouterr()


def test_explicit_validate_always_checks(validate_calls):
    F = generate_brn(3)
    assert len(validate_calls) == 1
    assert complexes.validate(F.n, F.clasps, F.orders) == []
    assert complexes.validate(F.n, F.clasps, F.orders) == []
    assert len(validate_calls) == 3


def invalid_complexes():
    """(build, message) pairs: the message is the one every function that
    took an unchecked complex used to raise, "invalid complex: " and the
    violations joined with "; "."""
    for path in INVALID:
        violations = (GOLDEN / f"validate-{path.stem}.out").read_text().splitlines()
        yield (lambda text=path.read_text(): parse_complex(text)), "invalid complex: " + "; ".join(violations)
    yield (
        lambda: CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ())),
        "invalid complex: order for component 2 is incomplete: missing clasp id 'a'",
    )
    yield (
        lambda: CComplex(3, (Clasp("a", 1, 2, 1), Clasp("a", 1, 3, 1)), (("a",), ("a",), ())),
        "invalid complex: duplicate clasp id 'a'",
    )


@pytest.mark.parametrize("F", list(invalid_complexes()))
def test_invalid_complex_raises_every_time(F):
    build, message = F
    for _ in range(2):
        with pytest.raises(InvalidComplexError) as excinfo:
            build()
        assert str(excinfo.value) == message
        assert "invalid complex: " + "; ".join(excinfo.value.violations) == message


def test_new_instances_are_checked_again(validate_calls):
    F = generate_brn(2)
    assert len(validate_calls) == 1
    rotated = with_rotated_order(F, 1, 3)
    assert clasp_word(rotated, 1) != clasp_word(F, 1)
    assert len(validate_calls) == 2
    for twin in (copy.copy(F), copy.deepcopy(F), pickle.loads(pickle.dumps(F))):
        assert type(twin) is CComplex
        assert twin == F and hash(twin) == hash(F) and repr(twin) == repr(F)
    assert len(validate_calls) == 5

    with pytest.raises(InvalidComplexError, match="^invalid complex: .*incomplete: missing clasp id 's1'$"):
        CComplex(F.n, F.clasps, (F.orders[0][1:], *F.orders[1:]))
    assert len(validate_calls) == 6


def test_violations_survive_copy_and_pickle():
    with pytest.raises(InvalidComplexError) as excinfo:
        CComplex(2, (Clasp("a", 1, 1, 1),), (("a",), ()))
    exc = excinfo.value
    for twin in (copy.copy(exc), pickle.loads(pickle.dumps(exc))):
        assert type(twin) is InvalidComplexError
        assert twin.violations == exc.violations
        assert str(twin) == str(exc)


def test_record_is_invisible():
    # a complex holds its three fields and nothing that remembers a check
    assert CComplex.__slots__ == ("n", "clasps", "orders")
    assert not hasattr(complexes, "_require_valid")
    assert not hasattr(complexes, "total_clasps")
    assert not hasattr(cli, "_load_valid_complex")
    F, G = generate_brn(2), generate_brn(2)
    assert F == G and hash(F) == hash(G) and repr(F) == repr(G)


def test_orders_and_clasps_are_frozen_as_tuples():
    # lists mutated afterwards would make a checked complex malformed
    clasps = [Clasp("a", 1, 2, 1)]
    orders = [["a"], ["a"]]
    F = CComplex(2, clasps, orders)
    clasps.append(Clasp("b", 1, 2, 1))
    orders[0].append("zz")
    orders.append(["b"])
    assert F.clasps == (Clasp("a", 1, 2, 1),)
    assert F.orders == (("a",), ("a",))
    assert F == CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ("a",)))
    assert len(clasp_word(F, 1)) == len(clasp_word(F, 2)) == 1
