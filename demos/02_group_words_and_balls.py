"""Words, normal forms, and word balls over the supported group families.

The Baumslag-Solitar groups B(1,n) carry an exact affine-pair normal form:
a word maps to (m, t) with the product rule (m1,t1)(m2,t2) =
(m1+m2, t1 + n^m1 t2).  Two words are equal in the group iff their pairs
coincide, which makes ball enumeration and deduplication exact.
"""

from lineact import Presentation, ball, parse_word
from lineact.words import bs_pair, free_reduced_words

print("-- free reduction only --")
F2 = Presentation.free(2)
w = parse_word(F2, "a b b^-1 a")
print("a b b^-1 a  reduces to:", w)

print()
print("-- the B(1,2) rewriting relation, witnessed by pairs --")
BS2 = Presentation.baumslag_solitar(2)
print("pair of 'b a':  ", bs_pair(parse_word(BS2, "b a")))
print("pair of 'a^2 b':", bs_pair(parse_word(BS2, "a^2 b")))
print("pair of 'b^-1 a b':", bs_pair(parse_word(BS2, "b^-1 a b")),
      " (translation by 1/2 in the affine model)")

print()
print("-- ball sizes --")
for p, name in ((Presentation.free(2), "free rank 2"),
                (Presentation.free_abelian(2), "free abelian rank 2"),
                (Presentation.baumslag_solitar(-1), "Klein bottle group"),
                (Presentation.baumslag_solitar(-2), "B(1,-2)")):
    sizes = [len(ball(p, L)) for L in range(5)]
    print(f"{name:24s} |ball(0..4)| = {sizes}")

print()
print("-- elements vs words --")
p = Presentation.baumslag_solitar(-1)
words = sum(1 for _ in free_reduced_words(p, 4))
elements = len(ball(p, 4)) - 1
print(f"radius 4: {words} reduced words collapse onto {elements} elements")
print("shortlex-first representatives:",
      [str(g) for g in ball(p, 2)])
