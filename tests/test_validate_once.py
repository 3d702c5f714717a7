"""A complex is checked once: validate() remembers a clean result on the
instance, and the functions that need a well-formed complex rely on it."""

from dataclasses import replace
from pathlib import Path

import pytest

from clasplink import cli, complexes
from clasplink.bounds import bound_report
from clasplink.complexes import (
    CComplex,
    Clasp,
    clasp_word,
    generate_brn,
    parse_complex,
    total_clasps,
    validate,
    with_rotated_order,
)
from clasplink.invariants import triple_linking

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
INVALID = sorted((ROOT / "tests" / "golden" / "complex").glob("invalid-*.cc"))


@pytest.fixture
def validate_calls(monkeypatch):
    """Count the real checks, wherever validate is looked up."""
    calls = []

    def counting(F):
        calls.append(F)
        return validate(F)

    monkeypatch.setattr(complexes, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    return calls


@pytest.mark.parametrize("name", ["borromean.cc", "two_component_three_clasps.cc"])
def test_bound_report_checks_once(validate_calls, name):
    F = parse_complex((DATA / name).read_text())
    first = bound_report(F)
    assert len(validate_calls) == 1
    assert bound_report(F) == first
    assert total_clasps(F) == len(F.clasps)
    assert len(validate_calls) == 1


def test_cli_bounds_checks_once(validate_calls, capsys):
    assert cli.main(["bounds", str(DATA / "borromean.cc")]) == 0
    assert len(validate_calls) == 1
    assert cli.main(["mu", str(DATA / "borromean.cc"), "1", "2", "3"]) == 0
    assert len(validate_calls) == 2  # a new parse is a new instance
    capsys.readouterr()


def test_explicit_validate_always_checks(validate_calls):
    F = generate_brn(3)
    assert complexes.validate(F) == []
    assert complexes.validate(F) == []
    assert len(validate_calls) == 2


def invalid_complexes():
    yield from (parse_complex(path.read_text()) for path in INVALID)
    yield CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ()))
    yield CComplex(3, (Clasp("a", 1, 2, 1), Clasp("a", 1, 3, 1)), (("a",), ("a",), ()))


@pytest.mark.parametrize("F", list(invalid_complexes()))
def test_invalid_complex_raises_every_time(F):
    message = "invalid complex: " + "; ".join(validate(F))
    calls = [
        lambda: clasp_word(F, 1),
        lambda: total_clasps(F),
        lambda: bound_report(F),
        lambda: triple_linking(F, 1, 2, 3),
    ]
    for _ in range(2):  # a failed validate(F) records nothing
        for call in calls:
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message
        assert validate(F) != []


def test_new_instances_are_checked_again(validate_calls):
    F = generate_brn(2)
    bound_report(F)
    assert len(validate_calls) == 1

    rotated = with_rotated_order(F, 1, 3)
    assert clasp_word(rotated, 1) != clasp_word(F, 1)
    assert len(validate_calls) == 2

    broken = replace(F, orders=(F.orders[0][1:], *F.orders[1:]))
    with pytest.raises(ValueError, match="^invalid complex: .*incomplete"):
        clasp_word(broken, 1)
    with pytest.raises(ValueError, match="^invalid complex: .*incomplete"):
        bound_report(broken)
    assert len(validate_calls) == 4


def test_record_is_invisible():
    F, G = generate_brn(2), generate_brn(2)
    assert validate(F) == []
    assert F == G and hash(F) == hash(G) and repr(F) == repr(G)


def test_orders_and_clasps_are_frozen_as_tuples():
    # lists would let a remembered check go stale
    clasps = [Clasp("a", 1, 2, 1)]
    orders = [["a"], ["a"]]
    F = CComplex(2, clasps, orders)
    assert validate(F) == []
    clasps.append(Clasp("b", 1, 2, 1))
    orders[0].append("zz")
    assert F.clasps == (Clasp("a", 1, 2, 1),)
    assert F.orders == (("a",), ("a",))
    assert F == CComplex(2, (Clasp("a", 1, 2, 1),), (("a",), ("a",)))
