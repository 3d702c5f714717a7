# Invalid: the order of component 3 lists clasp a, which joins 1 and 2.
components 3
clasp a 1 2 +
clasp b 2 3 -
clasp c 1 3 +
order 1 a c
order 2 a b
order 3 b c a
