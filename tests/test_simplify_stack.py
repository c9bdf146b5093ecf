"""The one-pass stack ``simplify`` against the pass schedule it replaced.

``_reference_simplify`` below is the multi-pass loop, kept verbatim: each
pass rewrites non-overlapping adjacent pairs left to right, and the loop
stops when a pass rewrites nothing.  Both use ``_simplify_leaf`` and
``_rewrite_pair`` unchanged; they differ only in the order of merges.  So
they are compared by what a proof reads: over every realized word of radius
<= 5 on ten actions, and over near-cancelling random composites, both prove
the identity for the same inputs, the stack result simplifies to itself,
and where both results evaluate to exact values they are equal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineact.actions import (
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    realize,
)
from lineact.homeo import (
    Affine,
    BoundedConjugate,
    ExtensionCell,
    HomeoExpr,
    HorizonExceeded,
    Identity,
    OddPower,
    UnitPowerLadder,
    _factors,
    _rewrite_pair,
    _simplify_leaf,
    compose,
    evaluate,
    inverse,
    simplify,
    to_text,
)
from lineact.reals import PrecisionExhausted, Real
from lineact.words import free_reduced_words

POINTS = [Real.rational(n, d) for n, d in ((-7, 3), (-1, 2), (1, 5), (3, 4), (13, 7))]


def _reference_simplify(h: HomeoExpr) -> HomeoExpr:
    """The pass schedule ``simplify`` had before its stack pass."""
    items = [_simplify_leaf(x) for x in _factors(h)]
    items = [x for x in items if not isinstance(x, Identity)]

    changed = True
    while changed:
        changed = False
        out: list[HomeoExpr] = []
        i = 0
        while i < len(items):
            rewritten = _rewrite_pair(*items[i:i + 2]) if i + 1 < len(items) else None
            if rewritten is None:
                out.append(items[i])
                i += 1
            else:
                out += rewritten
                i += 2
                changed = True
        items = [x for x in out if not isinstance(x, Identity)]

    return compose(*items)


def _exact_values(h: HomeoExpr) -> list:
    """h at the five points: each exact value, or None where h raises or
    gives an enclosure."""
    values = []
    for x in POINTS:
        try:
            y = evaluate(h, x)
        except (HorizonExceeded, PrecisionExhausted):
            y = None
        values.append(None if y is None or y.kind == "tracked-real" else y)
    return values


def assert_same_proofs(h: HomeoExpr, exact: bool):
    """Stack and reference agree on h; with ``exact``, also in value."""
    new, old = simplify(h), _reference_simplify(h)
    assert (new == Identity()) == (old == Identity()), to_text(h)
    assert to_text(simplify(new)) == to_text(new), to_text(h)
    if exact:
        for a, b in zip(_exact_values(new), _exact_values(old)):
            assert a is None or b is None or a == b, to_text(h)


def _sqrt2_extension():
    inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
    return extend_action(direct_product_extension(inner, coset_label="t", horizon=4))


# (action, whether its maps are exact)
ACTIONS = {
    "ex_1_1": (lambda: gallery("ex_1_1"), True),
    "ex_1_2-sqrt2": (lambda: gallery("ex_1_2", alpha="sqrt2"), True),
    "ex_1_2-pi": (lambda: gallery("ex_1_2", alpha="pi"), False),
    "ex_1_3": (lambda: gallery("ex_1_3"), True),
    "ex_1_4-k2": (lambda: gallery("ex_1_4", k=2), True),
    "ex_1_4-k3": (lambda: gallery("ex_1_4", k=3), True),
    "klein_bottle": (lambda: gallery("klein_bottle"), True),
    "free_transitive": (lambda: gallery("free_transitive"), True),
    "unit-ex_1_2": (lambda: conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2")), True),
    "sqrt2-extension": (_sqrt2_extension, True),
}


@pytest.mark.parametrize("name", ACTIONS)
def test_realized_words(name):
    build, exact = ACTIONS[name]
    act = build()
    for w in free_reduced_words(act.presentation, 5):
        assert_same_proofs(realize(act, w), exact)


R = Real.rational
T1, L2 = Affine(R(1), R(1)), UnitPowerLadder(2, 1)
SPEC = direct_product_extension(conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2")),
                                coset_label="t", horizon=4)
LEAVES = [
    T1, Affine(R(1), R(2)), Affine(R(2), R(0)), Affine(R(1, 2), R(3)),
    Affine(R(1), Real.sqrt2()), Affine(Real.sqrt2(), R(-1)),
    UnitPowerLadder(1, 1), L2, UnitPowerLadder(3, -1), UnitPowerLadder(2, Fraction(1, 2)),
    OddPower(3, False), OddPower(5, True),
    BoundedConjugate(T1), BoundedConjugate(L2), BoundedConjugate(Affine(R(2), R(0))),
    Affine(R(1), R(0)), BoundedConjugate(Affine(R(1), R(0))),   # identities in disguise
    *(ExtensionCell(SPEC, SPEC.inner_action.presentation.generator(i)) for i in (0, 1)),
]
LEAVES += [inverse(x) for x in LEAVES]


@st.composite
def near_cancelling(draw):
    """A word in LEAVES followed by its inverse, with a few leaves put in
    at random places, so that most factors cancel only after merges."""
    half = draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=8))
    factors = half + [inverse(x) for x in reversed(half)]
    for leaf in draw(st.lists(st.sampled_from(LEAVES), max_size=3)):
        factors.insert(draw(st.integers(0, len(factors))), leaf)
    return compose(*factors)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_cancelling())
def test_near_cancelling_composites(h):
    assert_same_proofs(h, exact=True)


def test_stack_merges_a_dilation_before_moving_a_translation():
    # the pass schedule merges 2x and 3x, and in the same pass moves T_1 past
    # the ladder, so the merged 6x meets the ladder and cannot take T_1 in;
    # the stack merges 6x with T_1 first
    h = compose(Affine(R(2), R(0)), Affine(R(3), R(0)), T1, L2)
    assert to_text(_reference_simplify(h)) == \
        "compose(affine(6,0),unitpowerladder(2,-2),affine(1,1))"
    assert to_text(simplify(h)) == "compose(affine(6,6),unitpowerladder(2,+1))"
    assert_same_proofs(h, exact=True)
