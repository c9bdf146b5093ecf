"""The action catalog and relation checks.

Each catalog entry binds a presentation's generators to homeomorphism
expressions.  check_relations passes a defining relation only when
simplification takes its relator lhs rhs^-1 to the identity (an exactly
zero residual); a sample grid can refute a relation, never prove it.
"""

from lineact import (
    Interval,
    check_relations,
    gallery,
    gallery_entries,
    realize,
    sample_points,
)
from lineact.homeo import evaluate
from lineact.reals import Real
from lineact.words import parse_word

print("-- catalog --")
for name, desc in gallery_entries():
    print(f"{name:16s} {desc}")

print()
print("-- relation residuals --")
pts = sample_points(Interval.closed(-4, 5), 200)
for name, params in (("ex_1_2", {"alpha": "sqrt2"}), ("ex_1_3", {"n": 2}),
                     ("ex_1_4", {"k": 2}), ("klein_bottle", {})):
    act = gallery(name, **params)
    rep = check_relations(act, pts)
    kind = "structural zero" if rep.checks[0].passed else \
        f"max residual {float(rep.worst_residual.bounds()[1]):.2e}"
    print(f"{name:14s} passed={rep.passed}  ({kind})")

print()
print("-- a deliberately corrupted binding fails loudly --")
from lineact.actions import Action
from lineact.homeo import Affine, UnitPowerLadder

p3 = __import__("lineact").Presentation.baumslag_solitar(-3, labels=("g", "f"))
bad = Action(p3, {"g": UnitPowerLadder(2, 1),
                  "f": Affine(Real.rational(1), Real.rational(1))})
rep = check_relations(bad, [Real.rational(1, 2)])
print("base-2 images on the base-3 presentation: passed =", rep.passed,
      " residual =", float(rep.worst_residual.bounds()[0]))

print()
print("-- realized words --")
act = gallery("ex_1_3", n=2)
w = parse_word(act.presentation, "b^-3 a b^3")
print("b^-3 a b^3 sends 0 to", evaluate(realize(act, w), Real.rational(0)))
