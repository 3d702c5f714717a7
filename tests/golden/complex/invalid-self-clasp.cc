# Invalid: clasp b has both ends on component 2.
components 3
clasp a 1 2 +
clasp b 2 2 -
clasp c 1 3 +
order 1 a c
order 2 a b
order 3 c
