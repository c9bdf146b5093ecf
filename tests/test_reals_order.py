"""The certified order on mpf endpoints against verbatim copies of the
Fraction-bound versions it replaced (the reference): Real.cmp, the
touching-ends rule reals._precedes (against the retired leq), contains_zero
and hull, the branch choice of piecewise maps, the orbit
overlap merge and the largest-residual pick must all agree, mpf tuples
included.  Real.cmp also decides a provable point tie (both enclosures one
and the same point) as 0, so against a rational it is the retired
cmp_fraction.  The operands include far-cell ends with mantissas of up to
10**6 bits and values at and around powers of two; a path test checks which
branch of the mpf-against-rational compare runs, and the sort key's float is
checked against the nearest float of the exact midpoint."""

import random
from fractions import Fraction
from typing import Optional
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fninf, from_int, round_ceiling, round_floor, to_rational

from lineact import actions, dynamics, homeo, reals
from lineact.reals import (
    PrecisionExhausted,
    Real,
    _cmp_rational,
    _mpf_round,
    _mpi_from_fraction,
    _prec,
    _precedes,
    approx_float,
    precision,
)

from helpers import tracked_sqrt2


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


def ref_cmp_tie(self, other: Real) -> Optional[int]:
    """ref_cmp, and 0 when both enclosures are one and the same point."""
    (slo, shi), (olo, ohi) = self.bounds(), other.bounds()
    return 0 if slo == shi == olo == ohi else ref_cmp(self, other)


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
            return tracked_sqrt2() + Real(q)
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


# Far cells: a tracked end n + m/2**k with k up to 10**6, as Real.shift's
# exact sums leave it (a mantissa of about k bits), next to rationals that
# share its integer part or lie a few cells off; negative n as well.
_CELLS = [-7, -5, -3, -2, -1, 0, 1, 4, 7]
_OFFSET_BITS = [1, 60, 300, 5000, 100_000, 1_000_000]


@st.composite
def offsets(draw) -> Fraction:
    """m/2**k for a small odd m of either sign."""
    m = draw(st.sampled_from([1, -1, 3, -5]))
    return Fraction(m, 1 << draw(st.sampled_from(_OFFSET_BITS)))


@st.composite
def wide_values(draw, n: int) -> Real:
    """n + an offset enclosure (zero width or not), summed by Real.shift."""
    u, v = sorted((draw(offsets()), draw(offsets())))
    with precision(draw(precs)):
        off = Real.tracked_from_fraction(u) if u == v else Real.hull(Real(u), Real(v))
        return off.shift(n)


@st.composite
def near_rationals(draw, n: int) -> Fraction:
    """n + d + r: in cell n itself, mostly, or up to 3 cells off; r is 0, an
    offset, or a fraction of the cell, so n + d + r may lie in (-1, 0)."""
    d = draw(st.sampled_from([0, 0, 0, -1, 1, -2, 2, -3, 3]))
    r = draw(st.one_of(offsets(), st.sampled_from(
        [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
         Fraction(7, 8), 1 - Fraction(1, 1 << 60)])))
    return n + d + r


@st.composite
def wide_pairs(draw):
    n = draw(st.sampled_from(_CELLS))
    x = draw(wide_values(n))
    if draw(st.booleans()):
        return x, Real(draw(near_rationals(n)))
    return x, draw(wide_values(n + draw(st.sampled_from([0, -1, 1, 2]))))


@st.composite
def near_powers(draw, j: int) -> Fraction:
    """+-2**j exactly, 2**j * (1 +- 2**-q) (one ulp at q bits), or
    2**j * 2**d / (2**d -+ 1), just off 2**j with a denominator of all ones."""
    kind = draw(st.sampled_from(["at", "up", "down", "above", "below"]))
    if kind == "at":
        q = Fraction(1)
    elif kind in ("up", "down"):
        ulp = Fraction(1, 1 << draw(st.sampled_from([1, 2, 53, 256, 300])))
        q = 1 + ulp if kind == "up" else 1 - ulp
    else:
        d = draw(st.sampled_from([2, 60]))
        q = Fraction(1 << d, (1 << d) - 1 if kind == "above" else (1 << d) + 1)
    return draw(st.sampled_from([1, -1])) * q * Fraction(2) ** j


@st.composite
def edge_pairs(draw):
    """An mpf and a rational near powers of two at most 3 binades apart: both
    edges of _cmp_end's magnitude window, and pairs 4x apart or more."""
    # 2**-1075 is half the least subnormal float: a float rounding that
    # rounds twice misplaces the values just above it
    j = draw(st.sampled_from([-1075, -70, -1, 0, 1, 3, 64]))
    a = draw(near_powers(j))
    b = draw(near_powers(j + draw(st.integers(-3, 3))))
    with precision(4096):  # every drawn dyadic fits, so the mpf is exact
        x = Real.tracked_from_fraction(a)
    return x, Real(b)


def operands():
    return st.one_of(exact_values().map(Real), tracked_values())


@st.composite
def pairs(draw):
    """Two values; often the second sits exactly on an endpoint of the first,
    as an exact value or a zero-width enclosure, or is the first itself; or a
    wide far-cell end and a value near it; or two values near powers of two."""
    shape = draw(st.sampled_from(["free", "at-lower", "at-upper", "same", "wide", "edge"]))
    if shape == "wide":
        return draw(wide_pairs())
    if shape == "edge":
        return draw(edge_pairs())
    x = draw(operands())
    if shape == "free":
        return x, draw(operands())
    if shape == "same":
        return x, x
    i = 0 if shape == "at-lower" else 1
    if x.is_rational or draw(st.booleans()):
        return x, Real(x.bounds()[i])
    end = x._mpi[i]
    return x, Real(None, (end, end))


def _far(n: int, k: int, m: int = 1) -> Real:
    """n + m/2**k, summed exactly by Real.shift: a mantissa of about k bits."""
    return Real.tracked_from_fraction(Fraction(m, 1 << k)).shift(n)


# (mpf, rational) pairs pinned at each edge of _cmp_end's magnitude window
# (top = exp + bc of the mpf, lb = bitlen(num) - bitlen(den)) and of its
# integer-part reduction, whatever the drawn examples.
_PINNED = [
    (Real.tracked_from_fraction(Fraction(3, 2)), Real(Fraction(4, 3))),  # top = lb
    (Real.tracked_from_fraction(Fraction(1, 2)), Real(1 - Fraction(1, 1 << 53))),  # lb + 1
    (Real.tracked_from_fraction(Fraction(1)), Real(Fraction(4))),  # lb - 1, 4x apart
    (Real.tracked_from_fraction(8 - Fraction(1, 1 << 50)), Real(Fraction(4, 3))),  # lb + 2
    (_far(-3, 5000, -1), Real(Fraction(-10, 3))),  # b's floor -4, not its trunc -3
    (_far(4, 5000), Real(Fraction(31, 2))),  # a - floor(b) <= -1
    (tracked_sqrt2(), Real(Fraction(3, 2))),  # close and narrow: not reduced
    (_far(-3, 5000), Real(Fraction(-14, 5))),  # close and wide: reduced
]


def pinned(test):
    for xy in _PINNED:
        test = example(xy)(test)
    return test


# -- equivalence --------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(pairs())
@pinned
# a zero-width enclosure is its one point, so it ties with that rational
@example((Real.tracked_from_fraction(Fraction(1, 2)), Real(Fraction(1, 2))))
def test_order_matches_reference(xy):
    x, y = xy
    for a, b in ((x, y), (y, x), (x, x)):
        assert a.cmp(b) == ref_cmp_tie(a, b)
        assert _precedes(a, b, True) is (ref_leq(a, b) is True)
        for q in b.bounds():
            assert a.cmp(Real(q)) == ref_cmp_fraction(a, q)
        assert a.contains_zero() == ref_contains_zero(a)


def _compare_path(e, q: Fraction) -> tuple[int, int]:
    """The precision lookups and exact subtractions _cmp_end(e, q) makes."""
    calls = [0, 0]

    def counted(i, fn):
        def call(*args):
            calls[i] += 1
            return fn(*args)
        return call

    with patch.object(reals, "_prec", counted(0, reals._prec)), \
            patch.object(reals, "mpf_sub", counted(1, reals.mpf_sub)):
        reals._cmp_end(e, q)
    return calls[0], calls[1]


@settings(max_examples=300, deadline=None)
@given(pairs())
@pinned
def test_compare_path_follows_sign_magnitude_and_width(xy):
    """An mpf end and a rational of opposite signs, or 4x apart in magnitude,
    are ordered before the precision lookup; closer, only a mantissa wider
    than working precision is reduced, by one exact subtraction, and only
    when the rational's integer part is not 0."""
    p = _prec()
    for x, y in (xy, xy[::-1]):
        if x.is_rational or not y.is_rational:
            continue
        q = y.as_fraction()
        for e in x._mpi:
            v = Fraction(*to_rational(e))
            lookups, subs = _compare_path(e, q)
            if v * q <= 0 or 4 * abs(v) <= abs(q) or 4 * abs(q) <= abs(v):
                assert (lookups, subs) == (0, 0)
            else:
                assert subs == (lookups == 1 and e[3] > p and not 0 <= q < 1)


def _just_above_half_least_subnormal() -> Real:
    """2**-1075 (1 + 2**-300): its nearest float is 2**-1074, but rounding to
    53 bits first gives 2**-1075, a tie that rounds to 0.0."""
    with precision(512):
        return Real.tracked_from_fraction(Fraction(1, 1 << 1075) * (1 + Fraction(1, 1 << 300)))


@settings(max_examples=300, deadline=None)
@given(pairs())
@example((_just_above_half_least_subnormal(), Real.tracked_from_fraction(Fraction(0))))
def test_mid_key_float_is_the_nearest_float(xy):
    for x in xy:
        assert x.mid_key()[0] == approx_float(x.mid())


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
# a zero-width enclosure at 0: its endpoint sum is fzero, whose exponent may
# not be lowered
@example([(Real.tracked_from_fraction(Fraction(0)), Real(Fraction(-1, 3)))])
def test_merge_overlapping_matches_reference(xys):
    items = [r for xy in xys for r in xy]
    got = dynamics._merge_overlapping(items)
    assert [id(r) for r in got] == [id(r) for r in ref_merge_overlapping(items)]


@settings(max_examples=100, deadline=None)
@given(st.lists(pairs(), max_size=5))
def test_largest_residual_matches_reference(xys):
    rs = [r for xy in xys for r in xy]
    got = actions._largest(rs)
    want, want_i = ref_largest((r, i) for i, r in enumerate(rs))
    if want_i is None:
        assert state(got) == state(want)
    else:
        assert got is rs[want_i]


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
    one_r = Real.rational(1)
    assert up.cmp(5) is None and not _precedes(up, one_r, True)
    assert up.cmp(up) is None and up.cmp(0) == 1
    assert down.cmp(-5) is None and _precedes(down, one_r, True) and down.cmp(2) == -1
    assert not up.contains_zero() and down.contains_zero()
