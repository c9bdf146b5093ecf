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
"""

import os
import sys
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from lineact.actions import gallery
from lineact.dynamics import _Cells
from lineact.reals import Interval, Real

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
