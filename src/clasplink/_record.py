"""Frozen records: the base of the library's small immutable value types.

A record class lists its fields in ``_fields`` and declares them (and any
private state) in ``__slots__``; its ``__init__`` checks the values and
stores them with ``object.__setattr__``.  The base compares, hashes, shows,
copies and pickles a record by its fields in order, and refuses assignment
and deletion.  The text of ``repr`` is ``Name(field=value, ...)``.  This is
what ``@dataclass(frozen=True)`` gives, without importing :mod:`dataclasses`
(and with it :mod:`inspect`) on every start of the command line.

An error message quotes input through :func:`clip`, and a caller's value
through :func:`quote`, so that no error line grows with its input.
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
    ``QUOTE_CHARS`` of its characters, else at most that much of its repr,
    or the sign and bit length of an int too long for repr."""
    if isinstance(value, str):
        return repr(clip(value))
    try:
        return clip(repr(value))
    except ValueError:  # repr converts at most sys.get_int_max_str_digits() digits
        if not isinstance(value, int):
            raise
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"


class FrozenRecord:
    """Base of an immutable record (see the module docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set_fields(self, *values: object) -> None:
        """Store the fields' values, in order; for ``__init__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

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
