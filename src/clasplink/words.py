"""Clasp words: finite sequences of signed letters x_i.

A clasp word records, in order, the signed clasps a link component meets
while traversing its boundary.  Words are kept raw: ``x1 x1^-1`` is never
cancelled, because the invariants downstream depend on the unreduced
sequence.

Text grammar (word files may also contain ``#`` comment lines):

    word := [ term { sep term } ]
    sep  := ( whitespace | "." )+
    term := "x" INDEX [ "^" SIGNEDINT ]
    INDEX := [1-9][0-9]*      at most WORD_INDEX_DIGITS digits
    SIGNEDINT := [ "-" ] [1-9][0-9]*

Terms are found by ``str.split()`` with each ``.`` made a space, so
whitespace is what ``str.isspace()`` accepts (U+00A0 among it).  The text
is read a piece at a time through :func:`~clasplink._record.pieces`, which
says where it is cut, and the comment lines of a piece that holds a ``#``
are dropped.  Every line break of ``str.splitlines()`` is whitespace, so a
piece's terms are its lines' terms, and no parse holds the whole text's
lines or a long line's terms at once.  An error's line and column are
found only when the parse stops, by walking the lines to the term it
stopped at.

A word is kept as its runs: ``runs`` is a tuple of ``(key, count)``
tuples, one a run, where ``key`` is ``index * sign`` and ``count`` the
letters in the run.  ``x3^-2`` is one run, ``(-3, 2)``; ``x3^-1 x3^-1`` is
two, each ``(-3, 1)``, and the two words are equal: no invariant depends
on how a word is cut into runs.  A parsed word holds one run a term, so no
code makes a pass per letter of an exponent, and a complex's clasp word one
run a letter.  Equal runs are one tuple object, so a run costs the word 8
bytes: a parsed word holds one tuple a distinct term, and a clasp word one
a distinct letter.  A word's value is its runs with equal neighbours
merged, so it compares, hashes, copies and pickles by them, and no letter
is ever built; ``repr`` shows the runs it holds.  ``ClaspWord(runs)``
takes ``(key, count)`` tuples: a nonzero int key of at most
``WORD_INDEX_DIGITS`` digits, so that the word's text parses, and an int
count from 1.

A parsed word may hold at most ``WORD_LETTER_CAP`` letters.  An exponent
writes many letters in a few characters (``x1^1000000000``), so the cap is
checked before a term's run is stored; the term that would cross it raises
:class:`WordSyntaxError` with its line and column, instead of a later
expansion running out of memory.  An exponent too long to convert is such a
term, and an index longer than ``WORD_INDEX_DIGITS`` digits is a malformed
one.  An error message quotes at most ``QUOTE_CHARS`` characters of the bad
term.
"""

from __future__ import annotations

import re
from itertools import chain, groupby
from operator import itemgetter

from ._record import FrozenRecord, clip, pieces, quote


class WordSyntaxError(ValueError):
    """Raised when word text does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message

    def __reduce__(self) -> tuple:  # copy and pickle rebuild from the three arguments
        return self.__class__, (self.message, self.line, self.column)


def _require_letter_index(index: int) -> None:
    """Raise ValueError unless ``index`` is a letter index: an int from 1.
    type() rather than isinstance(): True, a bool, would pass as index 1."""
    if type(index) is not int or index < 1:
        raise ValueError(f"letter index must be a positive integer, got {quote(index)}")


# the text of the letter of key index * sign
def _term(key: int) -> str:
    return f"x{key}" if key > 0 else f"x{-key}^-1"


class ClaspWord(FrozenRecord):
    """An immutable sequence of signed letters, kept as its runs (see the module docstring)."""

    __slots__ = _fields = ("runs",)  # a tuple of (key, count) tuples, one a run
    runs: tuple[tuple[int, int], ...]

    def __init__(self, runs: Iterable[tuple[int, int]] = ()) -> None:
        # tuple() would split a string into one-character runs
        if isinstance(runs, str):
            raise ValueError(f"a clasp word takes a sequence of (key, count) runs, not a string, got {quote(runs)}")
        shared: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple object a distinct run
        kept: list[tuple[int, int]] = []
        for run in runs:
            if type(run) is not tuple or len(run) != 2:
                raise ValueError(f"a run of a clasp word must be a (key, count) tuple, got {quote(run)}")
            key, count = run
            if type(key) is not int or not key:  # type(): True, a bool, would pass as 1
                raise ValueError(f"a run's key must be a nonzero integer, got {quote(key)}")
            if not -_KEY_LIMIT < key < _KEY_LIMIT:  # str() refuses past 4,300 digits
                raise ValueError(f"a run's key may have at most {WORD_INDEX_DIGITS} digits, got {quote(key)}")
            if type(count) is not int or count < 1:
                raise ValueError(f"a run's count must be a positive integer, got {quote(count)}")
            kept.append(shared.setdefault(run, run))
        self._set_slots(tuple(kept))

    @classmethod
    def _of_runs(cls, runs: tuple[tuple[int, int], ...]) -> "ClaspWord":
        """The word of ``runs``, which the caller built valid."""
        return cls.__new__(cls)._set_slots(runs)

    def _values(self) -> tuple:
        # equal neighbours merged: ==, hash, copy and pickle do not depend on
        # how the word is cut into runs; with none to merge, the stored runs,
        # whose equal runs pickle's memo writes once
        groups = groupby(self.runs, itemgetter(0))
        merged = tuple([(key, sum(map(itemgetter(1), group))) for key, group in groups])
        return (self.runs if len(merged) == len(self.runs) else merged,)

    def __len__(self) -> int:
        return sum(map(itemgetter(1), self.runs))

    def __str__(self) -> str:
        """Canonical text form: single spaces, one term per letter."""
        # a word holds few distinct runs, so each run's text is made once
        texts = {run: " ".join([_term(run[0])] * run[1]) for run in set(self.runs)}
        return " ".join(map(texts.__getitem__, self.runs))


WORD_LETTER_CAP = 10_000_000  # letters in one parsed word
# Digits in a component index: far more than any complex has components,
# and fewer than the least limit int() can be set to convert (640).
WORD_INDEX_DIGITS = 100
_KEY_LIMIT = 10**WORD_INDEX_DIGITS  # the least key of more digits
# An exponent with more digits than the letter cap writes more letters than
# the cap allows, whatever the digits are, so it is never converted.
_CAP_DIGITS = len(str(WORD_LETTER_CAP))

_TERM_RE = re.compile(r"x(-?[0-9]+)(?:\^(-?[0-9]+))?\Z")  # a term, or a near miss of one


def _read_term(token: str) -> tuple[int, int]:
    """The letter key (``index * sign``) and letter count of the term
    ``token``, or ValueError with the message of a bad term.  Digits are
    compared as text: int() refuses very long digit strings."""
    m = _TERM_RE.match(token)
    if m is None:
        raise ValueError(f"malformed term {quote(token)} (expected x<INT> or x<INT>^<SIGNEDINT>)")
    index_text, exponent = m.groups()
    if index_text.startswith("-") or not index_text.strip("0"):
        raise ValueError(f"component index must be at least 1, got {clip(index_text)}")
    if index_text.startswith("0"):
        raise ValueError(f"component index may not have a leading zero: {clip(index_text)}")
    if len(index_text) > WORD_INDEX_DIGITS:
        raise ValueError(f"component index has more than {WORD_INDEX_DIGITS} digits")
    index = int(index_text)
    if exponent is None:
        return index, 1
    digits = exponent.lstrip("-")
    if not digits.strip("0"):
        raise ValueError("exponent must be nonzero")
    if digits.startswith("0"):
        raise ValueError(f"exponent may not have a leading zero: {clip(exponent)}")
    count = int(digits) if len(digits) <= _CAP_DIGITS else WORD_LETTER_CAP + 1
    return (-index if exponent[0] == "-" else index), count


def _terms(text: str) -> Iterator[list[str]]:
    """The terms of ``text``'s lines that are not comments, in order, one
    list a slice of at most about ``_record.PIECE`` characters (see the module
    docstring)."""
    for piece in pieces(text, "\n"):
        if "#" in piece:  # no term holds a "#", so only such a piece has comments
            piece = "\n".join([line for line in piece.splitlines() if not line.lstrip().startswith("#")])
        yield from map(str.split, pieces(piece.replace(".", " "), " "))


def _error_at(message: str, text: str, number: int) -> WordSyntaxError:
    """``message`` at the ``number``-th term of ``text``, from 0, found by
    walking its lines that are not comments a slice at a time, so that no
    line's terms are held at once."""
    lines = chain.from_iterable(map(str.splitlines, pieces(text, "\n")))
    for line_no, line in enumerate(lines, start=1):
        if line.lstrip().startswith("#"):
            continue
        column = 1
        for part in pieces(line.replace(".", " "), " "):
            # the part's first number terms, then the rest from the term sought
            terms = part.split(None, number)
            if len(terms) > number:
                return WordSyntaxError(message, line_no, column + len(part) - len(terms[-1]))
            number -= len(terms)
            column += len(part)


def parse_word(text: str) -> ClaspWord:
    """Parse word text into a :class:`ClaspWord` of one run a term.

    Raises :class:`WordSyntaxError` (with line and column) on malformed
    input or on a word longer than ``WORD_LETTER_CAP`` letters.  Lines
    starting with ``#`` are ignored.
    """
    runs_read: list[tuple[int, int]] = []  # the word, a (key, count) run per term
    total = 0  # letters in runs_read
    runs: dict[str, tuple[int, int]] = {}  # term text -> its run, read once and shared
    for token in chain.from_iterable(_terms(text)):
        run = runs.get(token)
        if run is None:
            try:
                run = runs[token] = _read_term(token)
            except ValueError as exc:
                raise _error_at(str(exc), text, len(runs_read)) from None
        total += run[1]
        if total > WORD_LETTER_CAP:
            raise _error_at(f"term {clip(token)} takes the word past {WORD_LETTER_CAP} letters", text, len(runs_read))
        runs_read.append(run)
    # a caller that passes the text as a temporary leaves this frame its one
    # reference: free it, and the term map, before the word is built
    del text, runs
    return ClaspWord._of_runs(tuple(runs_read))
