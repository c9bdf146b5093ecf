"""The certified order on mpf endpoints against verbatim copies of the
Fraction-bound versions it replaced (the reference): Real.cmp, leq,
cmp_fraction, contains_zero and hull, the branch choice of piecewise maps,
the orbit overlap merge and the largest-residual pick must all agree, mpf
tuples included."""

import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fninf, from_int, round_ceiling, round_floor

from lineact import actions, dynamics, homeo
from lineact.reals import (
    PrecisionExhausted,
    Real,
    _cmp_rational,
    _mpf_round,
    _mpi_from_fraction,
    _prec,
    precision,
)


# -- the reference: the Fraction-bound versions, kept unchanged ----------------

def ref_contains_zero(self) -> bool:
    lo, hi = self.bounds()
    return lo <= 0 <= hi


def ref_cmp(self, other) -> Optional[int]:
    """-1, 0, +1, or None when the enclosures overlap undecidably."""
    other = Real.coerce(other)
    if self._rat is not None and other._rat is not None:
        return _cmp_rational(self._rat, other._rat)
    slo, shi = self.bounds()
    olo, ohi = other.bounds()
    if shi < olo:
        return -1
    if slo > ohi:
        return 1
    return None


def ref_cmp_fraction(self, q: Fraction) -> Optional[int]:
    lo, hi = self.bounds()
    if hi < q:
        return -1
    if lo > q:
        return 1
    if lo == hi == q:
        return 0
    return None


def ref_leq(self, bound) -> Optional[bool]:
    """Is self <= bound?  True/False only when certain."""
    bound = Real.coerce(bound)
    if self._rat is not None and bound._rat is not None:
        return _cmp_rational(self._rat, bound._rat) <= 0
    slo, shi = self.bounds()
    blo, bhi = bound.bounds()
    if shi <= blo:
        return True
    if slo > bhi:
        return False
    return None


def ref_hull(a: "Real", b: "Real") -> "Real":
    """Smallest tracked enclosure containing both values."""
    alo, ahi = a.bounds()
    blo, bhi = b.bounds()
    lo, hi = min(alo, blo), max(ahi, bhi)
    if lo == hi:
        return Real(lo)
    p = _prec()
    return Real(None, (
        _mpf_round(lo.numerator, lo.denominator, p, round_floor),
        _mpf_round(hi.numerator, hi.denominator, p, round_ceiling),
    ))


def _floor_fraction(q: Fraction) -> int:
    return q.numerator // q.denominator


def ref_piecewise_eval(x, branch_of, eval_branch):
    xlo, xhi = x.bounds()
    blo, bhi = branch_of(xlo), branch_of(xhi)
    if blo == bhi:
        return eval_branch(blo, x)
    if bhi - blo > 64:
        raise PrecisionExhausted("enclosure spans too many cells")
    lo_v = eval_branch(blo, Real.from_fraction(xlo))
    hi_v = eval_branch(bhi, Real.from_fraction(xhi))
    return ref_hull(lo_v, hi_v)


def ref_cell_branch(q: Fraction) -> int:  # ladder and extension cell
    return _floor_fraction(q)


def ref_sign_branch(q: Fraction) -> int:  # odd root
    return 0 if q >= 0 else -1


def ref_conjugate_branch(q: Fraction) -> int:  # bounded conjugate
    if q <= -1:
        return -1
    if q >= 1:
        return 1
    return 0


def ref_merge_overlapping(items: list, value=lambda r: r) -> list:
    merged: list = []
    for item in sorted(items, key=lambda it: value(it).mid()):
        if merged:
            plo, phi = value(merged[-1]).bounds()
            lo, hi = value(item).bounds()
            if lo <= phi and plo <= hi:
                continue
        merged.append(item)
    return merged


def ref_largest(residuals):
    """The keep-the-larger-upper-bound loop of check_relations."""
    worst = Real.rational(0)
    worst_x = None
    for r, x in residuals:
        if r.bounds()[1] > worst.bounds()[1]:
            worst, worst_x = r, x
    return worst, worst_x


# -- strategies ---------------------------------------------------------------

def state(r: Real):
    """What a Real is, for comparison: its rational or its mpf pair."""
    return ("exact", r._rat) if r.is_rational else ("tracked", r._mpi)


# Branch boundaries and a far cell: endpoints land exactly on them.
_ANCHORS = [-1, 0, 1, 2, 7, -5, 40]

precs = st.one_of(st.sampled_from([8, 53, 256, 4096]), st.integers(8, 4096))


@st.composite
def exact_values(draw) -> Fraction:
    """Anchors, integers, dyadic, non-dyadic and 100-kbit rationals."""
    kind = draw(st.sampled_from(["anchor", "int", "dyadic", "odd", "huge"]))
    if kind == "anchor":
        return Fraction(draw(st.sampled_from(_ANCHORS)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "int":
        return Fraction(sign * rng.getrandbits(draw(st.sampled_from([1, 8, 64, 65, 300]))))
    if kind == "dyadic":
        shift = draw(st.sampled_from([1, 3, 64, 300, 5000]))
        return Fraction(sign * (rng.getrandbits(draw(st.sampled_from([3, 40, 4100]))) | 1),
                        1 << shift)
    if kind == "odd":
        return Fraction(sign * rng.getrandbits(50), 3 * (rng.getrandbits(30) | 1))
    return Fraction(sign * (rng.getrandbits(100_000) | 1),
                    rng.getrandbits(100_000) | (1 << 99_999))


@st.composite
def tiny(draw) -> Fraction:
    """A value below 2**-100000, as in far ladder cells."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Fraction(rng.getrandbits(60) | 1, 3 << draw(st.sampled_from([100_000, 140_000])))


@st.composite
def tracked_values(draw) -> Real:
    """sqrt2-based, zero-width, hull, rounded and tiny-exponent enclosures,
    built at a drawn precision."""
    kind = draw(st.sampled_from(["sqrt2", "point", "hull", "rounded", "tiny", "edge"]))
    q = draw(exact_values())
    with precision(draw(precs)):
        if kind == "sqrt2":
            return Real.sqrt2() + Real(q)
        if kind == "point":  # zero width, exact when q fits
            return Real.tracked_from_fraction(Fraction(draw(st.sampled_from(_ANCHORS))))
        if kind == "hull":  # an endpoint exactly at q
            d = draw(st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(1, 1 << 70)]))
            return Real.hull(Real(q), Real(q + d)) if draw(st.booleans()) \
                else Real.hull(Real(q - d), Real(q))
        if kind == "rounded":
            return Real.tracked_from_fraction(q)
        t = draw(tiny())
        if kind == "tiny":
            return Real.tracked_from_fraction(-t if draw(st.booleans()) else t)
        # an anchor plus or minus a tiny tracked offset: one endpoint is the anchor
        n = Real(Fraction(draw(st.sampled_from(_ANCHORS))))
        off = Real.tracked_from_fraction(t)
        return n + off if draw(st.booleans()) else n - off


def operands():
    return st.one_of(exact_values().map(Real), tracked_values())


@st.composite
def pairs(draw):
    """Two values; often the second sits exactly on an endpoint of the first,
    as an exact value or a zero-width enclosure, or is the first itself."""
    x = draw(operands())
    shape = draw(st.sampled_from(["free", "at-lower", "at-upper", "same"]))
    if shape == "free":
        return x, draw(operands())
    if shape == "same":
        return x, x
    i = 0 if shape == "at-lower" else 1
    if x.is_rational or draw(st.booleans()):
        return x, Real(x.bounds()[i])
    end = x._mpi[i]
    return x, Real(None, (end, end))


# -- equivalence --------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(pairs())
def test_order_matches_reference(xy):
    x, y = xy
    for a, b in ((x, y), (y, x), (x, x)):
        assert a.cmp(b) == ref_cmp(a, b)
        assert a.leq(b) == ref_leq(a, b)
        for q in b.bounds():
            assert a.cmp_fraction(q) == ref_cmp_fraction(a, q)
        assert a.contains_zero() == ref_contains_zero(a)


@settings(max_examples=300, deadline=None)
@given(pairs(), precs)
def test_hull_matches_reference(xy, prec):
    x, y = xy
    for a, b in ((x, y), (y, x)):
        with precision(prec):
            got, want = Real.hull(a, b), ref_hull(a, b)
        assert state(got) == state(want)


@st.composite
def branch_points(draw) -> Real:
    """Points and enclosures on, just off and across branch boundaries, and
    enclosures spanning more than 64 cells."""
    kind = draw(st.sampled_from(["operand", "across", "wide"]))
    if kind == "operand":
        return draw(operands())
    n = Fraction(draw(st.sampled_from(_ANCHORS)))
    d = Fraction(1, 3) if kind == "across" else Fraction(draw(st.sampled_from([32, 33, 40])))
    with precision(draw(precs)):
        return Real.hull(Real(n - d), Real(n + d))


def run_piecewise(piecewise, x, branch_of):
    """The branches and points a piecewise evaluation visits, and its result."""
    calls = []

    def eval_branch(b, v):
        calls.append((b, state(v)))
        return v

    try:
        out = state(piecewise(x, branch_of, eval_branch))
    except PrecisionExhausted as exc:
        out = str(exc)
    return calls, out


@settings(max_examples=400, deadline=None)
@given(branch_points())
def test_branch_choice_matches_reference(x):
    for new, old in ((homeo._cell_branch, ref_cell_branch),
                     (homeo._sign_branch, ref_sign_branch),
                     (homeo._conjugate_branch, ref_conjugate_branch)):
        assert run_piecewise(homeo._piecewise_eval, x, new) \
            == run_piecewise(ref_piecewise_eval, x, old)


# Midpoints 1 and 1 + 2**-80 round to the same float, so only the exact
# compare can order them; exact values and disjoint enclosures, both orders.
_ONE, _NEXT = Fraction(1), 1 + Fraction(1, 1 << 80)
_HALF_WIDTH = Fraction(1, 1 << 90)


def _around(m: Fraction) -> Real:
    return Real.hull(Real(m - _HALF_WIDTH), Real(m + _HALF_WIDTH))


@settings(max_examples=100, deadline=None)
@given(st.lists(pairs(), max_size=5))
@example([(Real(_ONE), Real(_NEXT))])
@example([(Real(_NEXT), Real(_ONE))])
@example([(_around(_ONE), _around(_NEXT))])
@example([(_around(_NEXT), _around(_ONE)), (Real(_NEXT), Real(_ONE))])
def test_merge_overlapping_matches_reference(xys):
    items = [r for xy in xys for r in xy]
    got = dynamics._merge_overlapping(items)
    assert [id(r) for r in got] == [id(r) for r in ref_merge_overlapping(items)]


@settings(max_examples=100, deadline=None)
@given(st.lists(pairs(), max_size=5))
def test_largest_residual_matches_reference(xys):
    items = [(r, i) for i, r in enumerate(r for xy in xys for r in xy)]
    got, got_i = actions._largest(items)
    want, want_i = ref_largest(items)
    assert got_i == want_i and state(got) == state(want)


@settings(max_examples=100, deadline=None)
@given(exact_values(), precs, precs)
def test_exact_rounding_is_cached_per_precision(q, p1, p2):
    x = Real(q)
    for p in (p1, p2, p1):
        assert x._as_mpi(p) == _mpi_from_fraction(q, p)


# -- regression: an infinite endpoint is not read as 0 --------------------------

def test_negative_power_of_enclosure_with_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Real.hull(Real.rational(0), Real.rational(1)).pow_int(-1)


def test_infinite_endpoints_order_as_infinities():
    one = from_int(1)
    up = Real(None, (one, finf))  # [1, +inf]
    down = Real(None, (fninf, one))  # [-inf, 1]
    with pytest.raises(ValueError):
        up.bounds()
    assert up.cmp(5) is None and up.leq(1) is None
    assert up.cmp_fraction(Fraction(5)) is None and up.cmp(0) == 1
    assert down.cmp(-5) is None and down.leq(1) is True and down.cmp(2) == -1
    assert not up.contains_zero() and down.contains_zero()
