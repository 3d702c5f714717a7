#!/usr/bin/env python3
"""Walkthrough: the brute-force oracles behind the closed forms.

Two independent sweeps back the bound calculators:

* every fixed polyomino up to area 10, enumerated twice (growth with
  deduplication, and a frontier walk that never builds cell sets and
  tracks adjacent cells as it goes), the walk confirming the minimal
  perimeter 2*ceil(2*sqrt(A));
* every balanced two-letter word up to length 12, confirming that a
  word achieving integral A has length at least 2*ceil(2*sqrt(|A|)),
  and that the minimum is attained at every achievable A.
"""

from clasplink import (
    count_fixed_polyominoes,
    enumerate_polyominoes,
    format_reports,
    verify_min_perimeter,
    verify_word_length_bound,
)

print(__doc__)

max_area = 8
print(f"Fixed polyomino counts up to area {max_area}, by two methods:")
growth = [len(enumerate_polyominoes(a)) for a in range(1, max_area + 1)]
frontier = count_fixed_polyominoes(max_area)
print(f"  growth enumeration : {growth}")
print(f"  frontier counter   : {frontier}")
print(f"  agree              : {growth == frontier}")
print()

print("Minimum perimeter per area vs the closed form:")
print(format_reports(verify_min_perimeter(max_area)))

print("Minimal balanced-word length per achieved |integral| vs the bound:")
print(format_reports(verify_word_length_bound(12)))

print("The smallest polyominoes, drawn:")
for p in enumerate_polyominoes(3):
    max_x = max(x for x, _ in p.cells)
    max_y = max(y for _, y in p.cells)
    for y in range(max_y, -1, -1):
        print("  " + "".join("#" if (x, y) in p.cells else "." for x in range(max_x + 1)))
    print(f"  perimeter {p.perimeter()}")
    print()
