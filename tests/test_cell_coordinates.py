"""Exact (cell, tau) coordinates never contradict the closed form.

``dynamics._Cells`` decides, for a cellwise action and an interval U inside
one cell, three questions without evaluating a word on the tree: does the
word's image of U miss U (``misses``), does it meet [0, 1] in less than a
bound (``narrow``), and does x < w(x) < hi fail for a point x of U
(``stuck``).  Every decision is checked here against
``perfbench/oracles.ladder_point``, the ladder's closed form in cell-local
mpmath coordinates (80 digits), which shares no code with lineact; klein_bottle
is the closed form with k = 1.  An undecided question is no claim, so only
the decided ones are checked.  A U across a cell edge has no coordinates.

The walk deduplicates by the carry (n, q) itself.  On the gallery's
ladders the carry is the B(1,-k) normal form (m, t) rescaled, so that walk
lists ``ball``'s words; on a spec whose relations fail it still visits
each map of U's cell once, as a free-group walk's carries show.
"""

import dataclasses
import os
import sys
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from lineact.actions import Action, gallery
from lineact.dynamics import LadderParams, _Cells, cantor_ladder, check_ladder
from lineact.parse import parse_action_file
from lineact.reals import Interval, Real
from lineact.words import GroupElement, Presentation, ball, free_reduced_words, normal_form_key

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import oracles  # noqa: E402

ACTIONS = {"ex_1_4 k=2": 2, "ex_1_4 k=3": 3, "klein_bottle": 1}
# the closed form's offsets agree with the true ones to about 80 digits;
# only a contradiction by more than this relative slack counts
SLACK = mpmath.mpf(10) ** -30


def _act(name: str):
    k = ACTIONS[name]
    return gallery("klein_bottle") if k == 1 else gallery("ex_1_4", k=k)


def _closed_form(k: int, word, x: Fraction):
    n, u = oracles.ladder_point(k, word, x)
    return (n + 1, mpmath.mpf(0)) if u == 1 else (n, u)


def _below(a, b) -> bool:
    """Point a lies below point b by more than the slack."""
    (n, u), (m, v) = a, b
    with mpmath.workdps(oracles.DPS):
        return n < m if n != m else u < v - SLACK * max(u, v)


# an offset that rounds to 1 at working precision, so its tau is undecided
NEAR_ONE = 1 - Fraction(1, 2**300)
offsets = st.one_of(st.fractions(0, 1, max_denominator=40).filter(lambda q: 0 < q < 1),
                    st.just(NEAR_ONE))


@st.composite
def intervals(draw):
    """(lo, hi, kind): rational ends inside one cell, a whole cell, or across
    an edge."""
    n = draw(st.integers(-6, 6))
    kind = draw(st.sampled_from(["inside", "cell", "edge"]))
    if kind == "cell":
        return Fraction(n), Fraction(n + 1), kind
    a, b = draw(st.lists(offsets, min_size=2, max_size=2, unique=True).map(sorted))
    if kind == "edge":
        return n - 1 + b, n + a, kind
    return n + a, n + b, kind


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ACTIONS)), radius=st.integers(1, 4),
       ends=intervals(), i=st.integers(1, 4), picks=st.lists(st.integers(1, 40), max_size=3))
def test_decisions_agree_with_the_closed_form(name, radius, ends, i, picks):
    lo, hi, kind = ends
    k, act = ACTIONS[name], _act(name)
    cells = _Cells.of(act, Interval.open(lo, hi))
    if kind == "edge":
        assert cells is None
        return
    xs = [lo + (hi - lo) * Fraction(j, 41) for j in picks]
    for w, carry in cells.walk(radius):
        img_lo, img_hi = (_closed_form(k, w.word, x) for x in (lo, hi))
        a, b = _closed_form(k, (), lo), _closed_form(k, (), hi)
        if cells.misses(carry):
            assert not (_below(a, img_hi) and _below(img_lo, b)), (str(w), lo, hi)
        if cells.narrow(carry, Real.rational(1, i)):
            # the image meets [0, 1] in less than 1/i
            top = min(img_hi, (1, mpmath.mpf(0)))
            bottom = max(img_lo, (0, mpmath.mpf(0)))
            with mpmath.workdps(oracles.DPS):
                assert (not _below(bottom, top)
                        or top[0] - bottom[0] + top[1] - bottom[1] < mpmath.mpf(1) / i
                        + SLACK), (str(w), lo, hi, i)
        for x in xs:
            if cells.stuck(Real.from_fraction(x), carry):
                y = _closed_form(k, w.word, x)
                assert not (_below(_closed_form(k, (), x), y) and _below(y, b)), (str(w), x)


def _walks_from_every_cell(act, radius):
    for n0 in range(-4, 5):
        yield n0, list(_Cells.of(act, Interval.open(n0 + Fraction(1, 5),
                                                    n0 + Fraction(2, 5))).walk(radius))


def test_carry_is_the_normal_form_rescaled_and_lists_the_ball():
    # a word with B(1,-k) normal form (m, t), x -> (-k)^m x + t, takes cell n0
    # to n0 + m and shifts tau there by t (-k)^-(n0 + m): one key, so the
    # carry walk keeps the words the normal-form walk keeps, in its order
    for name, k in ACTIONS.items():
        act = _act(name)
        p = act.presentation
        words = ball(p, 7)
        for n0, walked in _walks_from_every_cell(act, 7):
            assert [w for w, _ in walked] == words, (name, n0)
            for w, carry in walked:
                m, t = normal_form_key(p, w)[1]
                n = n0 + m
                assert carry == (n, t * Fraction(-k) ** -n), (name, n0, str(w))


# a and b act as ex_1_4's g and f, which do not commute: the free abelian
# relation a b = b a fails, and no key of the presentation may merge words
UNPROVED = "group free_abelian 2\ngen a = unitpowerladder(2, 1)\ngen b = affine(1, 1)\n"


def _unproved_and_free():
    act = parse_action_file(UNPROVED)
    labels = act.presentation.labels
    return act, Action(Presentation.free(2, labels), {lab: act.image(lab) for lab in labels})


def test_unproved_relation_walk_visits_each_map_once():
    act, _ = _unproved_and_free()
    U = Interval.open(Fraction(1, 5), Fraction(3, 5))
    carries = [carry for _, carry in _Cells.of(act, U).walk(3)]
    # the maps of the free ball, each the B(1,-2) normal form of g, f rescaled
    gf = Presentation.baumslag_solitar(-2)
    maps = {normal_form_key(gf, GroupElement(gf, w.word))
            for w in free_reduced_words(act.presentation, 3, include_identity=True)}
    assert len(carries) == len(set(carries)) == len(maps) == 43
    assert set(carries) == {(m, t * Fraction(-2) ** -m) for _, (m, t) in maps}


def test_unproved_relation_ladder_is_the_free_group_ladder():
    act, free = _unproved_and_free()
    params = LadderParams(orbit_depth=0)
    ladder, free_ladder = (cantor_ladder(a, 2, 3, params=params) for a in (act, free))
    assert repr(ladder) == repr(free_ladder)
    got = [dataclasses.astuple(c) for c in check_ladder(act, ladder)]
    assert all(c[2] for c in got)
    assert got == [dataclasses.astuple(c) for c in check_ladder(free, free_ladder)]
