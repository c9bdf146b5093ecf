"""The ladder-conjugation rewrite in ``simplify`` is exact and sound.

A ladder's cell exponent obeys t(n - d) = (-k)^d t(n), so with T_d the
translation by an integer d and L^c the ladder of base k and factor c,
T_d o L^c = L^(c (-k)^d) o T_d and L^a o L^b = L^(a+b).  ``simplify`` moves
each translation right past each ladder and merges adjacent ladders of one
base, so a run of both becomes L^C o T_D.

Exact: on the ladder actions of B(1,-k) the rewrite proves a word to be the
identity exactly when the word is trivial in the group, by the independent
normal form of ``perfbench/oracles.py`` (which imports nothing from
lineact).  Sound: at exact points the rewritten map's enclosure meets the
original's.
"""

import os
import sys
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lineact.actions import (
    Action,
    check_relations,
    gallery,
    realize,
    relations_proved,
    sample_points,
)
from lineact.homeo import (
    Affine,
    Compose,
    Identity,
    UnitPowerLadder,
    compose,
    evaluate,
    simplify,
    to_text,
)
from lineact.reals import Interval, PrecisionExhausted, Real
from lineact.words import Presentation, free_reduced_words

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import oracles  # noqa: E402

R = Real.rational
T1 = Affine(R(1), R(1))
LADDER_ACTIONS = [("klein_bottle", {}, 1), ("ex_1_4", {"k": 2}, 2), ("ex_1_4", {"k": 3}, 3)]


def translation(d) -> Affine:
    return Affine(R(1), R(d))


class TestRules:
    def test_translation_moves_right_past_a_ladder(self):
        # t(n - 1) = -2 t(n) for k = 2, and t(n + 1) = -t(n) / 2
        assert simplify(Compose(T1, UnitPowerLadder(2, 1))) == \
            Compose(UnitPowerLadder(2, -2), T1)
        assert simplify(Compose(translation(-1), UnitPowerLadder(2, 1))) == \
            Compose(UnitPowerLadder(2, Fraction(-1, 2)), translation(-1))
        assert simplify(Compose(translation(2), UnitPowerLadder(3, -1))) == \
            Compose(UnitPowerLadder(3, -9), translation(2))

    def test_klein_sign_alternates(self):
        assert simplify(Compose(translation(3), UnitPowerLadder(1, 1))) == \
            Compose(UnitPowerLadder(1, -1), translation(3))
        assert simplify(Compose(translation(-2), UnitPowerLadder(1, 1))) == \
            Compose(UnitPowerLadder(1, 1), translation(-2))

    def test_ladders_of_one_base_merge(self):
        L2, L3 = UnitPowerLadder(2, 1), UnitPowerLadder(3, 1)
        assert simplify(compose(L2, L2, L2)) == UnitPowerLadder(2, 3)
        assert simplify(Compose(UnitPowerLadder(2, Fraction(1, 2)),
                                UnitPowerLadder(2, Fraction(-1, 2)))) == Identity()
        assert simplify(Compose(L2, L3)) == Compose(L2, L3)

    def test_only_integer_translations_move(self):
        half = translation(Fraction(1, 2))
        dilation = Affine(R(2), R(0))
        for h in (half, dilation):
            assert simplify(Compose(h, UnitPowerLadder(2, 1))) == \
                Compose(h, UnitPowerLadder(2, 1))

    def test_relation_reduces_to_identity(self):
        # f g f^-1 = g^-k in B(1,-k)
        for k in (1, 2, 3):
            L = UnitPowerLadder(k, 1)
            lhs = compose(T1, L, translation(-1))
            rhs = compose(*[UnitPowerLadder(k, -1)] * k)
            assert simplify(lhs) == simplify(rhs) == UnitPowerLadder(k, -k)

    def test_factor_text(self):
        assert to_text(UnitPowerLadder(2, -2)) == "unitpowerladder(2,-2)"
        assert to_text(UnitPowerLadder(2, Fraction(1, 4))) == "unitpowerladder(2,+1/4)"
        assert to_text(UnitPowerLadder(2, Fraction(-1))) == "unitpowerladder(2,-1)"


class TestExactOnLadderActions:
    def test_identity_exactly_on_trivial_words(self):
        for name, params, k in LADDER_ACTIONS:
            act = gallery(name, **params)
            trivial = 0
            for w in free_reduced_words(act.presentation, 6):
                is_id = oracles.bs_is_identity(w.word, -k)
                assert (simplify(realize(act, w)) == Identity()) == is_id, (name, k, str(w))
                trivial += is_id
            assert trivial > 1, (name, k)

    def test_relations_are_structural(self):
        pts = sample_points(Interval.closed(-4, 5), 4)
        for name, params, _ in LADDER_ACTIONS:
            act = gallery(name, **params)
            rep = check_relations(act, pts)
            assert rep.passed and relations_proved(act), name
            assert rep.worst_residual.as_fraction() == 0

    def test_corrupted_binding_still_fails(self):
        # base-2 ladder images bound to the base-3 presentation
        p3 = Presentation.baumslag_solitar(-3, labels=("g", "f"))
        bad = Action(p3, {"g": UnitPowerLadder(2, 1), "f": T1})
        rep = check_relations(bad, [R(1, 2)])
        assert not rep.passed and not relations_proved(bad)


@st.composite
def ladder_runs(draw):
    """A start cell c in -3..3, an exact point in it, and a run of ladders
    (factor +-1, of one base 1, 2 or 3, or of all three) and translations by
    +-1 or +-2 whose every partial image of the point stays in cells -3..3."""
    bases = draw(st.sampled_from([[1], [2], [3], [1, 2, 3]]))
    cell = draw(st.integers(-3, 3))
    x = Fraction(cell) + Fraction(draw(st.integers(1, 15)), 16)
    maps, at = [], cell
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            maps.append(UnitPowerLadder(draw(st.sampled_from(bases)),
                                        draw(st.sampled_from([1, -1]))))
        else:
            d = draw(st.sampled_from([1, -1, 2, -2]))
            if not -3 <= at + d <= 3:
                d = -d
            at += d
            maps.append(translation(d))
    # maps[0] acts first here, so the composite lists them outermost first
    return compose(*reversed(maps)), x


def _value(h, x):
    try:
        return evaluate(h, R(x))
    except PrecisionExhausted:
        # a tracked image underflows onto a cell edge under a root
        return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ladder_runs())
def test_rewrite_agrees_with_evaluation(run):
    h, x = run
    y, y_simple = _value(h, x), _value(simplify(h), x)
    assume(y is not None and y_simple is not None)
    assert y.cmp(y_simple) in (0, None), (to_text(h), x)
