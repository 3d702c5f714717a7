# Invalid: the order of component 1 lists z, which no clasp line names.
components 3
clasp a 1 2 +
clasp b 2 3 -
clasp c 1 3 +
order 1 a z c
order 2 a b
order 3 b c
