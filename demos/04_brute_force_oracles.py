#!/usr/bin/env python3
"""Walkthrough: the brute-force oracles behind the closed forms.

Two independent sweeps back the bound calculators:

* every fixed polyomino up to area 10, walked by Redelmeier's method,
  which never builds a cell set and tracks adjacent cells as it goes;
  the walk counts the shapes of each area and confirms the minimal
  perimeter 2*ceil(2*sqrt(A));
* every balanced two-letter word up to length 12, confirming that a
  word achieving integral A has length at least 2*ceil(2*sqrt(|A|)),
  and that the minimum is attained at every achievable A.
"""

from clasplink import (
    count_fixed_polyominoes,
    format_reports,
    verify_min_perimeter,
    verify_word_length_bound,
)

print(__doc__)

max_area = 8
print(f"Fixed polyomino counts up to area {max_area}, by the Redelmeier walk:")
print(f"  {count_fixed_polyominoes(max_area)}")
print()

print("Minimum perimeter per area vs the closed form:")
print(format_reports(verify_min_perimeter(max_area)))

print("Minimal balanced-word length per achieved |integral| vs the bound:")
print(format_reports(verify_word_length_bound(12)))
