# Invalid in several ways at once: a duplicate id, a self-clasp, an
# unknown component, and orders that repeat, invent, misplace and omit ids.
components 3
clasp a 1 2 +
clasp b 2 3 -
clasp c 1 3 +
clasp b 1 2 +
clasp d 3 3 -
clasp e 2 5 +
order 1 c a x c
order 2 b a b d
order 3 e
