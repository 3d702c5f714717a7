"""Linking invariants computed from clasp words and clasp incidence.

e_ij(w) is the signed count of occurrences of x_i appearing before x_j in
w.  Summed cyclically over the three clasp words of a 3-component complex
it yields the Milnor triple linking number; the pairwise linking number is
just the signed clasp count between two components.
"""

from __future__ import annotations

from ._record import FrozenRecord


def e_ij(w: ClaspWord, i: int, j: int) -> int:
    """Signed count of x_i-before-x_j pairs in w."""
    from .words import _require_letter_index  # loaded already: w is a word

    if i == j:
        raise ValueError("e_ij requires two distinct indices")
    _require_letter_index(i)
    _require_letter_index(j)
    return _e_and_count(w, i, j)[0]


def _e_and_count(w: ClaspWord, i: int, j: int) -> tuple[int, int]:
    """e_ij(w) and the signed count of x_i in w, for distinct indices.

    One pass over the runs: keep the signed count of x_i letters so far,
    and add it times the signed length of each run of x_j letters.
    """
    running = total = 0
    for key, count in w.runs:
        if key == i:
            running += count
        elif key == -i:
            running -= count
        elif key == j:
            total += running * count
        elif key == -j:
            total -= running * count
    return total, running


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
        self._set_slots(value, contributions, well_defined)


def triple_linking(F: CComplex, i: int, j: int, k: int) -> TripleLinkingResult:
    """Milnor triple linking number of components (i, j, k) of F.

    Computes e_ij(w_k) + e_jk(w_i) + e_ki(w_j), reading the three words in
    one pass over the clasps.  The value is reported even when the pairwise
    linking numbers do not vanish; ``well_defined`` records whether they do.
    lk(i, j) is the signed count of x_j in w_i, read in the pass over w_i
    that reads e_jk(w_i): so lk(k, i), lk(i, j) and lk(j, k) come with the
    three contributions, whatever runs the words are cut into.
    """
    from .complexes import _read_words  # here, so that e_ij alone loads no complex code

    # pairwise, not as a set: an unhashable value is no component, not a TypeError
    if i == j or j == k or k == i:
        raise ValueError("triple linking requires three distinct components")
    w_i, w_j, w_k = _read_words(F, (i, j, k))
    (e_k, lk_ki), (e_i, lk_ij), (e_j, lk_jk) = _e_and_count(w_k, i, j), _e_and_count(w_i, j, k), _e_and_count(w_j, k, i)
    contributions = (e_k, e_i, e_j)
    return TripleLinkingResult(sum(contributions), contributions, not (lk_ki or lk_ij or lk_jk))
