"""The pruned mover scan against the exhaustive one it replaced.

``cantor_ladder`` takes each level's mover from ``dynamics._movers``, a
branch and bound that skips every (word, point) pair whose separation cannot
beat the best found so far.  ``_reference_movers`` and
``_reference_max_separation`` below are the exhaustive scan, kept verbatim:
every case must return the same (word, x, delta) bit for bit, at several
working precisions so that the cap's rounding margin is exercised.
"""

from fractions import Fraction
from itertools import islice
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lineact.dynamics as dyn
from lineact.actions import Action, gallery, realize
from lineact.dynamics import (
    _MAX_HALVINGS,
    _MOVER_CANDIDATES,
    _ball_images,
    _movers,
    _or_none,
)
from lineact.homeo import Affine, HomeoExpr, UnitPowerLadder, evaluate
from lineact.reals import Interval, Real, precision
from lineact.words import Presentation

PRECISIONS = (16, 24, 64, 256)


def _reference_movers(act: Action, U: Interval, radius: int):
    """Deterministic mover scan: (word, x, delta) with the largest safe V radius."""
    p = act.presentation
    lo, hi = U.lo, U.hi
    span = hi - lo
    xs = [lo + span * Real.rational(j, _MOVER_CANDIDATES + 1)
          for j in range(1, _MOVER_CANDIDATES + 1)]
    best = None
    for w, img in islice(_ball_images(act, U, radius), 1, None):
        if img is None or img.certainly_disjoint(U):
            continue
        hw = realize(act, w)
        for x in xs:
            y = _or_none(evaluate, hw, x)
            if y is None or not (x.cmp(y) == -1 and y.cmp(hi) == -1
                                 and lo.cmp(x) == -1):
                continue
            delta = _reference_max_separation(hw, x, y, U)
            if delta is None:
                continue
            if best is None or delta.mid() > best[2].mid():
                best = (w, x, delta)
    return best


def _reference_max_separation(hw: HomeoExpr, x: Real, y: Real,
                              U: Interval) -> Optional[Real]:
    """Largest halving-found radius d with [x-d,x+d] and its image separated in U."""
    lo, hi = U.lo, U.hi
    room = x - lo
    if (hi - y).mid() < room.mid():
        room = hi - y
    if (y - x).mid() / 2 < room.mid():
        room = (y - x) / Real.rational(2)
    d = room * Real.rational(9, 10)
    for _ in range(_MAX_HALVINGS):
        if d.cmp(Real.rational(0)) != 1:
            return None
        a, b = x - d, x + d
        fa = _or_none(evaluate, hw, a)
        fb = None if fa is None else _or_none(evaluate, hw, b)
        if (fb is not None and lo.cmp(a) == -1 and fb.cmp(hi) == -1
                and (x + d).cmp(fa) == -1):
            return d
        d = d / Real.rational(2)
    return None


def _bits(r: Real):
    """An exact value's Fraction, or a tracked value's raw mpf endpoints."""
    return ("exact", r.as_fraction()) if r.is_rational else ("tracked", r._mpi)


def _key(found):
    if found is None:
        return None
    w, x, delta = found
    return w.word, _bits(x), _bits(delta)


def assert_same_scan(act: Action, U: Interval, radius: int, bits: int):
    with precision(bits):
        want = _reference_movers(act, U, radius)
        got = _movers(act, U, radius)
    assert _key(got) == _key(want)
    return got


ACTIONS = {
    "ex_1_4 k=2": lambda: gallery("ex_1_4", k=2),
    "ex_1_4 k=3": lambda: gallery("ex_1_4", k=3),
    "klein_bottle": lambda: gallery("klein_bottle"),
    "ex_1_3 n=2": lambda: gallery("ex_1_3", n=2),
}

UNIT = Interval.open(0, 1)
# the intervals U_i of the benchmark's ladder (ex_1_4 k=2, depth 2, radius 6,
# orbit depth 0) and of demo 07's (depth 3, radius 7, orbit depth 0)
BENCH_LEVELS = [(Fraction(1, 5), Fraction(2, 5)), (Fraction(7, 31), Fraction(8, 31))]
DEMO_LEVELS = BENCH_LEVELS + [(Fraction(268, 1179), Fraction(269, 1179))]


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_unit_interval(name, bits):
    assert assert_same_scan(ACTIONS[name](), UNIT, 5, bits) is not None


@pytest.mark.parametrize("bits", (24, 256))
@pytest.mark.parametrize("radius, levels", [(6, BENCH_LEVELS), (7, DEMO_LEVELS)],
                         ids=["bench", "demo07"])
def test_ladder_levels(radius, levels, bits):
    act = gallery("ex_1_4", k=2)
    for lo, hi in levels:
        assert_same_scan(act, Interval.open(lo, hi), radius, bits)


# exact (cell, tau) coordinates in a far cell and in an odd one, and a U
# across a cell edge, which every word takes on the tree
CELL_CASES = {
    "ex_1_4 k=3 cell -2": ("ex_1_4 k=3", Fraction(-1999, 1000), Fraction(-1001, 1000)),
    "klein_bottle cell 1": ("klein_bottle", Fraction(9, 8), Fraction(7, 4)),
    "ex_1_4 k=2 across 0": ("ex_1_4 k=2", Fraction(-1, 4), Fraction(1, 4)),
}


@pytest.mark.parametrize("bits", (24, 256))
@pytest.mark.parametrize("case", sorted(CELL_CASES))
def test_cells_and_an_edge(case, bits):
    name, lo, hi = CELL_CASES[case]
    assert assert_same_scan(ACTIONS[name](), Interval.open(lo, hi), 4, bits) is not None


def _ladder_and_long_translation() -> Action:
    # T_2 crosses two cells a step, so a word of length r reaches 2r cells away
    return Action(Presentation.free(2), {"a": UnitPowerLadder(2, 1), "b": Affine(1, 2)})


@pytest.mark.parametrize("radius", (3, 4))
@pytest.mark.parametrize("lo, hi", [(Fraction(0), Fraction(1)), (Fraction(1, 5), Fraction(2, 5))])
def test_translation_by_two_cells(lo, hi, radius):
    assert_same_scan(_ladder_and_long_translation(), Interval.open(lo, hi), radius, 64)


def _endpoint(q: Fraction, tracked: bool) -> Real:
    return Real.tracked_from_fraction(q) if tracked else Real.from_fraction(q)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ACTIONS)),
       bits=st.sampled_from(PRECISIONS),
       radius=st.integers(3, 5),
       ends=st.lists(st.fractions(0, 1, max_denominator=64), min_size=2,
                     max_size=2, unique=True).map(sorted),
       tracked=st.tuples(st.booleans(), st.booleans()))
def test_random_subintervals(name, bits, radius, ends, tracked):
    with precision(bits):
        U = Interval.open(*(_endpoint(q, t) for q, t in zip(ends, tracked)))
    assert_same_scan(ACTIONS[name](), U, radius, bits)


@pytest.mark.parametrize("bits", PRECISIONS)
def test_steep_mover_runs_out_of_halvings(bits):
    # a: x -> q + 2**70 (x - q) sends the candidate 14/41, 2**-72 above its
    # fixed point q, to 14/41 + 1/4; every radius that _MAX_HALVINGS halvings
    # reach contains q, left of which a falls far below U, so the search
    # gives up; a^-1 wins at 5/41
    q = Fraction(14, 41) - Fraction(1, 2**72)
    act = Action(Presentation.free(1), {"a": Affine(2**70, q * (1 - 2**70))})
    w, x, _ = assert_same_scan(act, UNIT, 1, bits)
    assert str(w) == "a^-1" and x.as_fraction() == Fraction(5, 41)


def test_cap_margin_keeps_a_rounded_up_winner():
    # a: x -> x + 20/41 gives 10/41 the radius 9/10 * 10/41, which is both
    # candidates' cap without rounding; b translates by a 16-bit enclosure
    # of a value just below 20/41, and outward rounding lifts its radius's
    # midpoint above a's, so b wins only if the cap keeps its margin
    q = Fraction(20, 41) - Fraction(16, 2**22)
    with precision(16):
        act = Action(Presentation.free(2), {"a": Affine(1, Fraction(20, 41)),
                                            "b": Affine(1, Real.tracked_from_fraction(q))})
    w, x, _ = assert_same_scan(act, UNIT, 1, 16)
    assert str(w) == "b" and x.as_fraction() == Fraction(10, 41)


def test_bench_ladder_evaluates_at_most_half(monkeypatch):
    calls = {"n": 0}

    def counted(h, x, evaluate=evaluate):
        calls["n"] += 1
        return evaluate(h, x)

    monkeypatch.setattr(dyn, "evaluate", counted)
    monkeypatch.setitem(globals(), "evaluate", counted)
    act = gallery("ex_1_4", k=2)
    spent = {}
    for scan in (_reference_movers, _movers):
        calls["n"] = 0
        for lo, hi in [(0, 1), BENCH_LEVELS[0]]:
            scan(act, Interval.open(lo, hi), 6)
        spent[scan.__name__] = calls["n"]
    assert 2 * spent["_movers"] <= spent["_reference_movers"], spent
