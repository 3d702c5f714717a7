"""Exact-integer clasp number bounds.

C(L) is the minimum number of clasps over all C-complexes bounded by L,
B(L) the minimum number of crossing changes reducing L to a boundary
link; they satisfy sum |lk| <= B(L) <= C(L).  For 2-component links the
linking number determines C(L) outright; for 3-component links with
vanishing pairwise linking the triple linking number gives the lower
bound 2*ceil(2*sqrt(|mu|/3)).

Ceilings of square roots are computed through integer inequalities only
(floating point rounds the wrong way exactly at perfect squares).
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING

from ._record import FrozenRecord, quote, require_int

if TYPE_CHECKING:
    from .complexes import CComplex


def _smallest_root_at_least(target: int, coeff: int) -> int:
    """Smallest m >= 0 with coeff * m^2 >= target (both integers, coeff >= 1)."""
    if target <= 0:
        return 0
    m = isqrt(target // coeff)
    while coeff * m * m < target:
        m += 1
    return m


def ceil_two_sqrt(a: int) -> int:
    """ceil(2*sqrt(a)) for a >= 0, exactly: min {m >= 0 : m^2 >= 4a}."""
    require_int("a", a, 0)
    return _smallest_root_at_least(4 * a, 1)


def min_polyomino_perimeter(a: int) -> int:
    """Minimum perimeter of an area-a polyomino: 2*ceil(2*sqrt(a)).

    This is the Harary-Harborth minimum; the oracles module re-derives it
    by exhaustive enumeration.
    """
    require_int("polyomino area", a)
    return 2 * ceil_two_sqrt(a)


def two_component_clasp_number(lk: int) -> int | frozenset[int]:
    """Clasp number of a 2-component link from its linking number.

    Nonzero lk determines C(L) = |lk| exactly; lk = 0 leaves the
    dichotomy {0, 2} (boundary link or not), returned as a set.
    """
    require_int("lk", lk, None)
    return abs(lk) if lk != 0 else frozenset({0, 2})


def three_component_lower_bound(mu: int) -> int:
    """Lower bound 2*ceil(2*sqrt(|mu|/3)) on the clasp number of a
    3-component link with vanishing pairwise linking numbers, computed as
    2 * min {m >= 0 : 3m^2 >= 4|mu|}."""
    require_int("mu", mu, None)
    return 2 * _smallest_root_at_least(4 * abs(mu), 3)


def _braces(values: frozenset[int]) -> str:
    """A set of values as a report prints it: ``{0, 2}``."""
    return "{" + ", ".join([str(v) for v in sorted(values)]) + "}"


class BoundReport(FrozenRecord):
    """Bounds on C(L) and B(L) with a provenance tag per bound.

    ``provenance`` defaults to a new empty dict for each report.
    """

    __slots__ = _fields = ("n", "lower_C", "upper_C", "lower_B", "upper_B", "exact_C", "provenance")
    n: int
    lower_C: int
    upper_C: int
    lower_B: int
    upper_B: int
    exact_C: int | frozenset[int] | None
    provenance: dict[str, str]

    def __init__(
        self,
        n: int,
        lower_C: int,
        upper_C: int,
        lower_B: int,
        upper_B: int,
        exact_C: int | frozenset[int] | None = None,
        provenance: dict[str, str] | None = None,
    ) -> None:
        # types first, so the order comparisons below see ints only
        require_int("n", n)
        for name, value in zip(self._fields[1:5], (lower_C, upper_C, lower_B, upper_B)):
            require_int(name, value, 0)
        if isinstance(exact_C, frozenset):
            for member in exact_C:
                require_int("exact_C", member, 0)
        elif exact_C is not None:
            require_int("exact_C", exact_C, 0)
        if lower_C > upper_C:
            raise ValueError(f"lower_C={quote(lower_C)} exceeds upper_C={quote(upper_C)}")
        if lower_B > upper_B:
            raise ValueError(f"lower_B={quote(lower_B)} exceeds upper_B={quote(upper_B)}")
        if upper_B > upper_C:
            raise ValueError(f"upper_B={quote(upper_B)} exceeds upper_C={quote(upper_C)}")
        # a set may hold values outside the bounds ({0, 2} when upper_C is 0),
        # but not only such values
        if isinstance(exact_C, frozenset):
            if not any(lower_C <= member <= upper_C for member in exact_C):
                raise ValueError(f"exact_C has no member in [{quote(lower_C)}, {quote(upper_C)}]")
        elif exact_C is not None and not lower_C <= exact_C <= upper_C:
            raise ValueError(f"exact_C={quote(exact_C)} is outside [{quote(lower_C)}, {quote(upper_C)}]")
        if provenance is None:
            provenance = {}
        self._set_slots(n, lower_C, upper_C, lower_B, upper_B, exact_C, provenance)

    def summary(self) -> str:
        if isinstance(self.exact_C, frozenset):
            head = f"C in {_braces(self.exact_C)}"
        elif self.exact_C is not None:
            head = f"C = {self.exact_C} (exact)"
        elif self.lower_C == self.upper_C:
            head = f"C = {self.lower_C} (exact)"
        else:
            head = f"{self.lower_C} <= C <= {self.upper_C}"
        if self.n == 2:
            plural = "clasp" if self.upper_C == 1 else "clasps"
            head += f"; this complex has {self.upper_C} {plural}"
        return head

    def format(self) -> str:
        """Text form: summary first, then one provenanced line per bound."""
        lines = [self.summary()]
        for key in ("lower_C", "upper_C", "exact_C", "lower_B", "upper_B"):
            value = getattr(self, key)
            if value is None:
                continue
            note = self.provenance.get(key, "")
            suffix = f" # {note}" if note else ""
            if isinstance(value, frozenset):
                lines.append(f"{key} in {_braces(value)}{suffix}")
            else:
                lines.append(f"{key} = {value}{suffix}")
        return "\n".join(lines) + "\n"


def bound_report(F: CComplex) -> BoundReport:
    """Assemble every bound the given 2- or 3-component complex certifies.

    The complex itself always supplies the upper bound (its clasp count)
    and the linking numbers the lower bound on B(L).  The lower bound on
    C(L) comes from the linking numbers too, except for 3 components with
    vanishing pairwise linking, where the triple linking number gives it.
    """
    # imported here, so the oracles' use of ceil_two_sqrt loads no invariants
    from .invariants import pairwise_linking, triple_linking

    clasps = len(F.clasps)
    if F.n not in (2, 3):
        raise ValueError(f"bound reports cover 2- or 3-component links only, got {F.n}")

    pairs = ((1, 2),) if F.n == 2 else ((1, 2), (2, 3), (3, 1))
    lks = [pairwise_linking(F, *pair) for pair in pairs]
    lower_B = sum(abs(v) for v in lks)
    provenance = {
        "upper_C": "clasp count of this complex",
        "lower_B": "sum of |lk| over pairs",
        "upper_B": "crossing change at each clasp",
    }
    exact_C: int | frozenset[int] | None = None
    if F.n == 2:
        lower_C = lower_B
        exact_C = two_component_clasp_number(lks[0])
        provenance["lower_C"] = "pairwise linking number"
        provenance["exact_C"] = "linking number determines the clasp number"
    elif any(lks):
        lower_C = lower_B
        provenance["lower_C"] = "sum of |lk| over pairs"
    else:
        lower_C = three_component_lower_bound(triple_linking(F, 1, 2, 3).value)
        provenance["lower_C"] = "triple linking lower bound"
    if F.n == 3 and lower_C == clasps:
        exact_C = clasps
        provenance["exact_C"] = "lower and upper bounds coincide"
    return BoundReport(F.n, lower_C, clasps, lower_B, clasps, exact_C, provenance)
