# Invalid: clasp c has an end on component 4, and clasp d on 4 and 5.
components 3
clasp a 1 2 +
clasp b 2 3 -
clasp c 3 4 +
clasp d 5 4 -
order 1 a
order 2 a b
order 3 b
