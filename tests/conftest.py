"""Fixtures shared by the test modules."""

import pytest
import reference


@pytest.fixture(scope="session")
def shapes():
    """The reference cell sets of every area up to 10, index = area.

    Enumerated once per session: the enumeration takes seconds, and the
    oracle and bound tests read the same shapes.  Criterion 7 runs its
    own enumeration, because its time limit covers the enumerator."""
    return reference.fixed_polyominoes(10)
