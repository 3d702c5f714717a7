"""Clasp words: finite sequences of signed letters x_i.

A clasp word records, in order, the signed clasps a link component meets
while traversing its boundary.  Words are kept raw: ``x1 x1^-1`` is never
cancelled, because the invariants downstream depend on the unreduced
sequence.

Text grammar (word files may also contain ``#`` comment lines):

    word := [ term { sep term } ]
    sep  := whitespace+ | "."
    term := "x" INDEX [ "^" SIGNEDINT ]
    INDEX := [1-9][0-9]*      at most WORD_INDEX_DIGITS digits
    SIGNEDINT := [ "-" ] [1-9][0-9]*

``x3^-2`` expands at parse time to two copies of ``x3^-1``; the in-memory
form is always the fully expanded letter sequence.  A parsed word holds one
shared :class:`SignedLetter` per ``(index, sign)``: each distinct term is
read once and its run of letters reused wherever the term recurs.  A
complex's clasp words share their letters through the same table.

A parsed word may hold at most ``WORD_LETTER_CAP`` letters.  An exponent
writes many letters in a few characters (``x1^1000000000``), so the cap is
checked before a term is expanded; the term that would cross it raises
:class:`WordSyntaxError` with its line and column, instead of the parse
running out of memory.  An exponent too long to convert is such a term, and
an index longer than ``WORD_INDEX_DIGITS`` digits is a malformed one.  An
error message quotes at most ``QUOTE_CHARS`` characters of the bad term.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Iterator

from ._record import FrozenRecord, clip, quote


class WordSyntaxError(ValueError):
    """Raised when word text does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _require_letter_index(index: int) -> None:
    """Raise ValueError unless ``index`` is a letter index: an int from 1.
    type() rather than isinstance(): True, a bool, would pass as index 1."""
    if type(index) is not int or index < 1:
        raise ValueError(f"letter index must be a positive integer, got {quote(index)}")


class SignedLetter(FrozenRecord):
    """A single letter x_i or x_i^-1."""

    __slots__ = _fields = ("index", "sign")
    index: int
    sign: int

    def __init__(self, index: int, sign: int) -> None:
        _require_letter_index(index)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {quote(sign)}")
        # A complex's words can build two letters a clasp, so the fields are
        # stored through their slot descriptors, bound once, as Clasp does.
        _store_index(self, index)
        _store_sign(self, sign)

    def __str__(self) -> str:
        return f"x{self.index}" if self.sign == 1 else f"x{self.index}^-1"


_store_index, _store_sign = [SignedLetter.__dict__[name].__set__ for name in SignedLetter._fields]


class ClaspWord(FrozenRecord):
    """An immutable sequence of signed letters."""

    __slots__ = _fields = ("letters",)
    letters: tuple[SignedLetter, ...]

    def __init__(self, letters: tuple[SignedLetter, ...] = ()) -> None:
        # tuple() copies a list, which could change the frozen word, and
        # returns a tuple as it is
        object.__setattr__(self, "letters", tuple(letters))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "ClaspWord":
        """Build a word from (index, sign) pairs."""
        return cls(tuple(SignedLetter(i, s) for i, s in pairs))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[SignedLetter]:
        return iter(self.letters)

    def __str__(self) -> str:
        """Canonical text form: single spaces, one term per letter."""
        return " ".join(str(letter) for letter in self.letters)


class _SharedLetters(dict):
    """The one letter of each ``(index, sign)``, keyed by ``index * sign``
    and built on first use, so every word read through a table shares it."""

    def __missing__(self, key: int) -> SignedLetter:
        letter = self[key] = SignedLetter(abs(key), 1 if key > 0 else -1)
        return letter


WORD_LETTER_CAP = 10_000_000  # letters in one parsed word
# Digits in a component index: far more than any complex has components,
# and fewer than the least limit int() can be set to convert (640).
WORD_INDEX_DIGITS = 100
# An exponent with more digits than the letter cap writes more letters than
# the cap allows, whatever the digits are, so it is never converted.
_CAP_DIGITS = len(str(WORD_LETTER_CAP))

_TERM_RE = re.compile(rf"x([1-9][0-9]{{0,{WORD_INDEX_DIGITS - 1}}})(?:\^(-?[1-9][0-9]*))?\Z")
_TOKEN_RE = re.compile(r"[^\s.]+")


def _term_error(token: str) -> str:
    # digits are compared as text: int() refuses very long digit strings
    m = re.match(r"x(-?[0-9]+)(?:\^(-?[0-9]+))?\Z", token)
    if m:
        index_text, exp_text = m.group(1), m.group(2)
        if index_text.startswith("-") or not index_text.strip("0"):
            return f"component index must be at least 1, got {clip(index_text)}"
        if index_text.startswith("0"):
            return f"component index may not have a leading zero: {clip(index_text)}"
        if len(index_text) > WORD_INDEX_DIGITS:
            return f"component index has more than {WORD_INDEX_DIGITS} digits"
        if exp_text is not None:
            if not exp_text.lstrip("-").strip("0"):
                return "exponent must be nonzero"
            return f"exponent may not have a leading zero: {clip(exp_text)}"
    return f"malformed term {quote(token)} (expected x<INT> or x<INT>^<SIGNEDINT>)"


def _stop_column(line: str, runs: dict[str, tuple[SignedLetter, ...]], before: int) -> int:
    """1-based column of the token the parse stopped at on ``line``.

    Every token before it is a known good term that kept the word, which
    held ``before`` letters at the start of the line, within the cap.  So it
    is the first token that is not a known term or whose run crosses the cap.
    """
    total = before
    for match in _TOKEN_RE.finditer(line):
        run = runs.get(match.group())
        if run is None or total + len(run) > WORD_LETTER_CAP:
            return match.start() + 1
        total += len(run)
    raise AssertionError(f"no token on {line!r} stops the parse")


def parse_word(text: str) -> ClaspWord:
    """Parse word text into a fully expanded :class:`ClaspWord`.

    Raises :class:`WordSyntaxError` (with line and column) on malformed
    input or on a word longer than ``WORD_LETTER_CAP`` letters.  Lines
    starting with ``#`` are ignored.
    """
    runs_read: list[tuple[SignedLetter, ...]] = []  # the word, a run per term
    total = 0  # letters in runs_read
    runs: dict[str, tuple[SignedLetter, ...]] = {}  # term text -> its letters
    letters = _SharedLetters()
    for line_no, line in enumerate(text.splitlines() or [""], start=1):
        if line.lstrip().startswith("#"):
            continue
        line_start = total
        for token in _TOKEN_RE.findall(line):
            run = runs.get(token)
            if run is None:
                term = _TERM_RE.match(token)
                if term is None:
                    column = _stop_column(line, runs, line_start)
                    raise WordSyntaxError(_term_error(token), line_no, column)
                exponent = term.group(2) or "1"
                digits = exponent.lstrip("-")
                count = int(digits) if len(digits) <= _CAP_DIGITS else WORD_LETTER_CAP + 1
            else:
                count = len(run)
            # checked before the run is built: x1^999999999999 never expands
            if total + count > WORD_LETTER_CAP:
                column = _stop_column(line, runs, line_start)
                raise WordSyntaxError(
                    f"term {clip(token)} takes the word past {WORD_LETTER_CAP} letters", line_no, column
                )
            if run is None:
                index = int(term.group(1))
                run = runs[token] = (letters[-index if exponent[0] == "-" else index],) * count
            runs_read.append(run)
            total += count
    return ClaspWord(tuple(chain.from_iterable(runs_read)))
