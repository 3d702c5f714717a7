"""Frozen records: the base of the library's small immutable value types.

A record class lists its fields in ``_fields``, and in ``__slots__`` what
it stores: the fields, and any private state.  Its ``__init__`` checks the
values and stores them with ``_set_slots``.  The base compares, hashes,
copies and pickles a record by ``_values()``, its fields in order unless
the record overrides it; it shows a record as ``Name(field=value, ...)``,
and refuses assignment and deletion.  This is what
``@dataclass(frozen=True)`` gives, without importing :mod:`dataclasses`
(and with it :mod:`inspect`) on every start of the command line.

An error message quotes input through :func:`clip`, and a caller's value
through :func:`quote`, so that no error line grows with its input.
:func:`require_int` checks an integer argument.  Records, components and
letter indices keep their own checks, one message for a wrong type or
value: one helper for ``Clasp``'s three made ``parse_complex`` 7% slower.
:func:`ascii_int` reads an integer of input text, ASCII digits alone.
:func:`pieces` cuts a text into pieces of about ``PIECE`` characters at a
separator, so that a parser splits one piece at a time and never holds a
whole text's lines or a whole line's tokens.
"""

from __future__ import annotations

# Characters of input that an error message quotes: a longer piece is cut
# there and marked with "...", so no error line grows with its input.
QUOTE_CHARS = 40


def clip(text: str) -> str:
    """``text`` as an error message quotes it: its first ``QUOTE_CHARS``
    characters, then ``...`` if it was longer."""
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


def quote(value: object) -> str:
    """``value`` as an error message quotes it: a string's repr of at most
    ``QUOTE_CHARS`` of its characters, else at most that much of its repr.
    repr refuses an int too long for it, and a container that holds one: such
    an int is shown by its sign and bit length, anything else by its type."""
    if isinstance(value, str):
        return repr(clip(value))
    try:
        return clip(repr(value))
    except ValueError:  # repr converts at most sys.get_int_max_str_digits() digits
        if isinstance(value, int):
            return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        return f"<{clip(type(value).__qualname__)} that repr refuses>"


def ascii_int(text: str) -> int | None:
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


def require_int(name: str, value: object, least: int | None = 1) -> None:
    """Raise ValueError unless ``value`` is an int, and at least ``least``
    unless that is None.  type(): True, a bool, is an int and would pass as 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {quote(value)}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {quote(value)}")


# Characters of a piece: every cut of word and complex text is at least
# this far from the last.  A piece's lines or tokens are a parse's largest
# transient.  On Brn(5000) text a fresh `bounds`, `validate` or `mu` process
# peaked 0.1 to 0.3 MiB of RSS lower with 4 KiB than with 64 KiB, and a
# fresh `eij` process on a 400,000-letter word 16.3 MiB against 17.4 to
# 17.9, neither slower (Python 3.11, 2 vCPUs).
PIECE = 1 << 12


def pieces(text: str, sep: str) -> Iterator[str]:
    """``text`` cut into consecutive pieces.  Each piece but the last is at
    least ``PIECE`` characters and ends just after a ``sep``: the first one
    at or past its ``PIECE``-th character.  A text with no ``sep`` past
    that is one piece, the text itself.

    Cut at a line feed, which ends a line whatever comes before it (a
    carriage return and line feed are one break), no line is split and
    none is added; cut at a space, which ends a token whatever comes
    before it, no token of ``str.split()`` is.  So word text is cut at a
    line feed, then each piece, its comment lines dropped, at a space;
    complex text at a line feed, and an order line's ids at a space."""
    start = 0
    while start < len(text):
        cut = text.find(sep, start + PIECE - 1) + 1 or len(text)
        yield text[start:cut]
        start = cut


class FrozenRecord:
    """Base of an immutable record (see the module docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set_slots(self, *values: object) -> "FrozenRecord":
        """Store the slots' values, in order, and return the record."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, past __setattr__
        return self.__class__, self._values()
