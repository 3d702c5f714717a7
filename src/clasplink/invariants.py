"""Linking invariants computed from clasp words and clasp incidence.

e_ij(w) is the signed count of occurrences of x_i appearing before x_j in
w.  Summed cyclically over the three clasp words of a 3-component complex
it yields the Milnor triple linking number; the pairwise linking number is
just the signed clasp count between two components.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._record import FrozenRecord, clip

if TYPE_CHECKING:
    from .complexes import CComplex
    from .words import ClaspWord


def e_ij(w: ClaspWord, i: int, j: int) -> int:
    """Signed count of x_i-before-x_j pairs in w.

    Single left-to-right pass: maintain the running signed count of x_i
    letters and, at each x_j letter, add that count times the letter sign.
    """
    if i == j:
        raise ValueError("e_ij requires two distinct indices")
    for index in (i, j):  # type(): bool is an int subclass
        if type(index) is not int or index < 1:
            raise ValueError(f"letter index must be a positive integer, got {clip(repr(index))}")
    running = 0
    total = 0
    for letter in w:
        if letter.index == i:
            running += letter.sign
        elif letter.index == j:
            total += running * letter.sign
    return total


def pairwise_linking(F: CComplex, i: int, j: int) -> int:
    """Signed count of the clasps joining components i and j."""
    from .complexes import _require_component  # loaded already: F is a complex

    if i == j:
        raise ValueError("pairwise linking requires two distinct components")
    _require_component(F, i)
    _require_component(F, j)
    lo, hi = (i, j) if i < j else (j, i)  # clasps store a <= b
    return sum(c.sign for c in F.clasps if c.a == lo and c.b == hi)


class TripleLinkingResult(FrozenRecord):
    """Value and breakdown of a triple linking number computation.

    ``contributions`` holds (e_ij(w_k), e_jk(w_i), e_ki(w_j)); the value is
    their sum.  ``well_defined`` is True iff the three pairwise linking
    numbers among the chosen components vanish, which is the hypothesis
    under which the value is an invariant of the link.
    """

    __slots__ = _fields = ("value", "contributions", "well_defined")
    value: int
    contributions: tuple[int, int, int]
    well_defined: bool

    def __init__(self, value: int, contributions: tuple[int, int, int], well_defined: bool) -> None:
        if value != sum(contributions):
            raise ValueError("value must equal the sum of the contributions")
        self._set_fields(value, contributions, well_defined)


def triple_linking(F: CComplex, i: int, j: int, k: int) -> TripleLinkingResult:
    """Milnor triple linking number of components (i, j, k) of F.

    Computes e_ij(w_k) + e_jk(w_i) + e_ki(w_j), reading the three words in
    one pass over the clasps.  The value is reported even when the pairwise
    linking numbers do not vanish; ``well_defined`` records whether they do.
    """
    from .complexes import _read_words  # here, so that e_ij alone loads no complex code

    if len({i, j, k}) != 3:
        raise ValueError("triple linking requires three distinct components")
    w_i, w_j, w_k = _read_words(F, (i, j, k))
    contributions = (e_ij(w_k, i, j), e_ij(w_i, j, k), e_ij(w_j, k, i))
    well_defined = not any(pairwise_linking(F, *pair) for pair in ((i, j), (j, k), (k, i)))
    return TripleLinkingResult(sum(contributions), contributions, well_defined)
