# Invalid: two clasps share the id a.
components 3
clasp a 1 2 +
clasp a 1 3 -
clasp b 2 3 +
order 1 a
order 2 a b
order 3 b
