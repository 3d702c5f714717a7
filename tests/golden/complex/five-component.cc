# Five components with clasps on every pair, mixed signs, some pairs
# clasped twice, clasps listed out of (a, b) order and some written b a,
# and each traversal order rotated away from its file order.
components 5
clasp k 5 3 -
clasp a 1 2 +
clasp g 2 3 +
clasp d 4 1 -
clasp m 4 5 -
clasp b 1 2 -
clasp e 1 5 +
clasp f 3 2 -
clasp h 2 4 +
clasp c 1 3 +
clasp i 2 5 -
clasp j 3 4 +
clasp l 4 5 +
clasp n 5 1 -
clasp o 3 5 +
order 1 c n a e b d
order 2 g h a i f b
order 3 o j c k g f
order 4 m d j h l
order 5 l n k e o i m
