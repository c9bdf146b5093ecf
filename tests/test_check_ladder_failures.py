"""``check_ladder`` fails a ladder whose level interval is altered by hand.

Each test starts from the benchmark ladder (ex_1_4 with k = 2, depth 2,
radius 6, orbit depth 0), swaps one level's U for an interval that breaks
one condition, and checks the condition's verdict and the word it names.
The named word's endpoint images come from ``perfbench/oracles.ladder_point``,
the ladder's closed form in cell-local mpmath coordinates, which shares no
code with lineact.
"""

import dataclasses
import os
import sys
from fractions import Fraction

import mpmath
import pytest

from lineact.actions import gallery, realize
from lineact.dynamics import LadderParams, cantor_ladder, check_ladder
from lineact.homeo import eval_interval
from lineact.reals import _DEFAULT_CEILING, Interval, PrecisionExhausted
from lineact.words import parse_word

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import oracles  # noqa: E402

K = 2


@pytest.fixture(scope="module")
def act():
    return gallery("ex_1_4", k=K)


@pytest.fixture(scope="module")
def ladder(act):
    return cantor_ladder(act, 2, 6, params=LadderParams(orbit_depth=0))


def _failure(act, ladder, level: int, lo: Fraction, hi: Fraction, condition: str):
    """The named word and the reason of the one failing ``condition`` check
    after level's U is replaced by (lo, hi)."""
    levels = list(ladder.levels)
    levels[level - 1] = dataclasses.replace(levels[level - 1],
                                            u_interval=Interval.open(lo, hi))
    checks = check_ladder(act, dataclasses.replace(ladder, levels=levels))
    [check] = [c for c in checks if c.condition == condition and c.level == level]
    assert not check.passed
    word, _, reason = check.detail.partition(": ")
    return parse_word(act.presentation, word), reason


def test_ladder_as_built_passes(act, ladder):
    assert all(c.passed for c in check_ladder(act, ladder))


def test_image_not_evaluable(act, ladder):
    # in cell -3, g^-1 raises the offset to the 256th power, so g^-3 takes
    # 1/4 .. 1/2 to 2^-33554432 .. 2^-16777216; f^2 moves them to cell -1,
    # where g takes their fourth root
    lo, hi = Fraction(-11, 4), Fraction(-5, 2)
    w, reason = _failure(act, ladder, 1, lo, hi, "displacement-or-equality")
    assert str(w) == "g f^2 g^-3"
    assert reason == "image not evaluable"
    tiny = mpmath.mpf(2) ** -_DEFAULT_CEILING
    for x in (lo, hi):
        cell, u = oracles.ladder_point(K, w.word, x)
        # the image is a point of cell -1 nearer its edge than any enclosure
        # at the precision ceiling can tell apart from the edge
        assert cell == -1
        assert 0 < u < tiny


def test_image_partially_overlaps(act, ladder):
    # U straddles 0, where g^-1 is u^4 on cell -1 and u^(1/2) on cell 0
    lo, hi = Fraction(-1, 100), Fraction(1, 100)
    w, reason = _failure(act, ladder, 1, lo, hi, "displacement-or-equality")
    assert str(w) == "g^-1"
    assert reason == "image (-3940399/100000000, 1/10) partially overlaps"
    (n_lo, u_lo), (n_hi, u_hi) = (oracles.ladder_point(K, w.word, x) for x in (lo, hi))
    with mpmath.workdps(oracles.DPS):
        img_lo, img_hi = n_lo + u_lo, n_hi + u_hi
        assert mpmath.almosteq(img_lo, mpmath.mpf(-3940399) / 10**8, 1e-60)
        assert mpmath.almosteq(img_hi, mpmath.mpf(1) / 10, 1e-60)
        # the image meets U, and its upper end moves by more than diam U
        a, b = (mpmath.mpf(x.numerator) / x.denominator for x in (lo, hi))
        assert img_lo < b and img_hi > a
        assert img_hi - b > b - a


def test_level_two_image_diameter(act, ladder):
    lo, hi = Fraction(1, 10), Fraction(9, 10)
    w, reason = _failure(act, ladder, 2, lo, hi, "image-diameter")
    assert str(w) == "g"
    assert reason == "diam 4/5 in [0,1] not < 1/2"
    (n_lo, u_lo), (n_hi, u_hi) = (oracles.ladder_point(K, w.word, x) for x in (lo, hi))
    assert n_lo == n_hi == 0
    with mpmath.workdps(oracles.DPS):
        # g squares offsets in cell 0: (1/100, 81/100), of diameter 4/5
        assert mpmath.almosteq(u_hi - u_lo, mpmath.mpf(4) / 5, 1e-60)


def test_mover_image_not_evaluable(act, ladder):
    # in cell -25 the mover's exponent is out of range, so its image of U
    # cannot be evaluated; the separation check fails on it and the rest of
    # the check goes on (radius 2 keeps the ball walk short)
    U = Interval.open(Fraction(-49, 2), Fraction(-97, 4))
    mover = ladder.levels[0].mover
    with pytest.raises(PrecisionExhausted):
        eval_interval(realize(act, mover), U.closure())
    levels = [dataclasses.replace(ladder.levels[0], u_interval=U), *ladder.levels[1:]]
    checks = check_ladder(act, dataclasses.replace(ladder, levels=levels, radius=2))
    [check] = [c for c in checks if c.condition == "separation" and c.level == 1]
    assert not check.passed
    assert check.detail == (f"mover {mover} sends {U.closure()} to an image "
                            "that cannot be evaluated")
    assert len(checks) == len(check_ladder(act, ladder))
