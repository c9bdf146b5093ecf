"""Exact and tracked arithmetic on line homeomorphisms.

Expressions denote strictly increasing bijections of the real line.  As long
as every node on an evaluation path is rational-closed, results stay exact
rationals with zero error; anything transcendental degrades to a rigorous
enclosure that carries its own error bound.
"""

from fractions import Fraction

from lineact import (
    Affine,
    Compose,
    Inverse,
    OddPower,
    Real,
    UnitPowerLadder,
    compose,
    evaluate,
    inverse,
    simplify,
    to_text,
)

R = Real.rational

print("-- affine maps compose exactly --")
S = Affine(R(2), R(0))     # x -> 2x
T = Affine(R(1), R(1))     # x -> x + 1
conj = compose(inverse(S), T, S)
print("S^-1 T S  at 0:", evaluate(conj, R(0)))        # 1/2, exactly
conj3 = compose(*[inverse(S)] * 3, T, *[S] * 3)
print("S^-3 T S^3 at 0:", evaluate(conj3, R(0)))      # 1/8

print()
print("-- the alternating power ladder --")
g = UnitPowerLadder(2, 1)
print("cell 0 squares:", evaluate(g, R(1, 2)))         # 1/4, exact
print("cell 1 is transcendental:", evaluate(g, R(3, 2)))
print("its inverse is structural:", to_text(inverse(g)))
x = R(17, 7)
back = evaluate(inverse(g), evaluate(g, x))
print("round trip error bound:", float(abs(back - x).bounds()[1]))

print()
print("-- simplification --")
h = Compose(Affine(R(2), R(0)), Affine(R(3), R(1)))
print(to_text(h), "->", to_text(simplify(h)))
h2 = Compose(Affine(R(5), R(2)), Inverse(Affine(R(5), R(2))))
print(to_text(h2), "->", to_text(simplify(h2)))
print(to_text(Inverse(Inverse(OddPower(3)))), "->",
      to_text(simplify(Inverse(Inverse(OddPower(3))))))
