"""Fixtures and the Hypothesis policy shared by the test modules."""

import pytest
import reference
from hypothesis import settings

# Every property draws the same examples on every run, and no example is
# timed out: the suite runs on shared machines, where a slow example is
# not a failure.  A decorator sets max_examples and nothing else.
settings.register_profile("clasplink", deadline=None, derandomize=True)
settings.load_profile("clasplink")


@pytest.fixture(scope="session")
def shapes():
    """The reference cell sets of every area up to 10, index = area.

    Enumerated once per session: the enumeration takes seconds, and the
    oracle and bound tests read the same shapes.  Criterion 7 runs its
    own enumeration, because its time limit covers the enumerator."""
    return reference.fixed_polyominoes(10)
