# Invalid: component 1 meets clasps a and c, but its order omits c.
components 3
clasp a 1 2 +
clasp b 2 3 -
clasp c 1 3 +
order 1 a
order 2 a b
order 3 b c
