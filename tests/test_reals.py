import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineact.reals import (
    Interval,
    PrecisionExhausted,
    Real,
    current_precision,
    _precedes,
    precision,
    retry_precision,
)

from helpers import radius, same_enclosure, tracked_sqrt2


def fr(n, d=1):
    return Real.rational(n, d)


class TestRealArithmetic:
    def test_rational_closure(self):
        a, b = fr(1, 3), fr(2, 5)
        assert (a + b).as_fraction() == Fraction(11, 15)
        assert (a * b).as_fraction() == Fraction(2, 15)
        assert (a - b).as_fraction() == Fraction(-1, 15)
        assert (a / b).as_fraction() == Fraction(5, 6)
        assert (a + b).kind == "exact-rational"

    def test_lowest_terms_positive_denominator(self):
        q = fr(-4, -6).as_fraction()
        assert q.numerator == 2 and q.denominator == 3

    def test_mixing_degrades_to_tracked(self):
        s = tracked_sqrt2()
        v = fr(1) + s
        assert v.kind == "tracked-real"
        lo, hi = v.bounds()
        assert float(lo) <= 1 + math.sqrt(2) <= float(hi)

    def test_tracked_error_bound_nonnegative_and_kept(self):
        s = tracked_sqrt2()
        assert radius(s) >= 0
        v = (s + fr(1)) * (s - fr(1))  # should enclose 1
        lo, hi = v.bounds()
        assert lo <= 1 <= hi
        assert radius(v) > 0

    @mpmath.workdps(120)
    def test_sqrt2_encloses_truth(self):
        truth = mpmath.mpf(2) ** mpmath.mpf("0.5")
        lo, hi = tracked_sqrt2().bounds()
        assert float(lo) <= float(truth) <= float(hi)
        assert float(radius(tracked_sqrt2())) < 1e-70

    def test_pow_int_exact(self):
        assert fr(3, 2).pow_int(4).as_fraction() == Fraction(81, 16)
        assert fr(3, 2).pow_int(-2).as_fraction() == Fraction(4, 9)

    def test_pow_int_exact_up_to_eight_ceilings(self):
        # |e| * max(bits(num), bits(den)): 2 * 16384 = 8 * 4096 stays exact
        assert fr(3, 2).pow_int(16384).is_rational
        big = fr(3, 2).pow_int(-16385)
        assert not big.is_rational
        assert big.bounds()[0] <= Fraction(2, 3) ** 16385 <= big.bounds()[1]
        with precision(256, 8192):
            assert fr(3, 2).pow_int(-16385).is_rational

    def test_shift_exact_and_ordinary_ends(self):
        assert fr(3, 4).shift(-2).as_fraction() == Fraction(-5, 4)
        x = tracked_sqrt2()
        for n in (0, 1, -3, 1 << 70):
            # ends no finer than n's ulp: bit for bit the rounded sum
            assert same_enclosure(x.shift(n), x + fr(n))

    def test_shift_keeps_sub_ulp_ends(self):
        tiny = Real.tracked_from_fraction(Fraction(1, 3 << 1000))
        assert (tiny + fr(-2)).cmp(fr(-2)) is None  # rounds onto -2
        y = tiny.shift(-2)
        assert y.cmp(fr(-2)) == 1
        # both ends exact, so moving back gives tiny bit for bit
        assert same_enclosure(y.shift(2), tiny)
        assert same_enclosure(y - fr(-2), tiny) and same_enclosure(y.shift(0), y)
        lo, hi = y.bounds()
        assert lo < Fraction(-2) + Fraction(1, 3 << 1000) < hi

    def test_shift_rounds_past_the_exact_budget(self):
        far = Real.tracked_from_fraction(Fraction(1, 3 << (1 << 21)))
        assert same_enclosure(far.shift(1), far + fr(1))

    def test_root_exact_on_perfect_powers(self):
        assert fr(9, 4).pow_real(Fraction(1, 2)).as_fraction() == Fraction(3, 2)
        assert fr(27, 8).pow_real(Fraction(1, 3)).as_fraction() == Fraction(3, 2)
        assert fr(-27, 8).pow_real(Fraction(1, 3)).as_fraction() == Fraction(-3, 2)

    def test_root_tracked_otherwise(self):
        v = fr(2).pow_real(Fraction(1, 2))
        assert v.kind == "tracked-real"
        lo, hi = v.bounds()
        assert float(lo) <= math.sqrt(2) <= float(hi)

    def test_root_huge_index_fast(self):
        # regression: exact-root probing must not attempt astronomical powers
        v = fr(3, 7).pow_real(Fraction(1, 2**32))
        lo, hi = v.bounds()
        assert 0 < lo < hi < 1

    def test_two_to(self):
        # 2**t as pow_real takes it: exact for an integer t within pow_int's
        # budget of 8 ceilings, tracked past it and for a fractional t
        assert fr(2).pow_real(Fraction(3)).as_fraction() == 8
        assert fr(2).pow_real(Fraction(-3)).as_fraction() == Fraction(1, 8)
        v = fr(2).pow_real(Fraction(-1, 2))
        lo, hi = v.bounds()
        assert float(lo) <= 2 ** -0.5 <= float(hi)
        big = fr(2).pow_real(Fraction(32768))
        assert big.kind == "tracked-real"
        assert big.bounds()[0] <= 2 ** 32768 <= big.bounds()[1]

    def test_pow_int_refuses_an_exponent_wider_than_the_ceiling(self):
        # squaring once per bit of 2**8192 took 4.8 s; 2**16384, with 16385
        # bits, is refused before any squaring
        start = time.perf_counter()
        with pytest.raises(PrecisionExhausted, match="e beyond 2\\*\\*4096"):
            fr(3, 7).pow_int(2**16384)
        with pytest.raises(PrecisionExhausted):
            fr(3, 7).pow_int(-(2**4096))
        assert time.perf_counter() - start < 0.5
        # 4096 bits is not past the ceiling
        assert fr(1, 2).pow_int(2**4095 + 1).kind == "tracked-real"
        with precision(256, 8192):
            assert fr(1, 2).pow_int(2**4096).kind == "tracked-real"

    def test_pow_real_zero_touching_base(self):
        s = Real.hull(fr(0), fr(1, 100))
        v = s.pow_real(fr(2).pow_real(Fraction(-1, 2)))
        lo, hi = v.bounds()
        assert lo == 0 and hi > 0

    def test_division_by_possible_zero(self):
        z = Real.hull(fr(-1, 10**40), fr(1, 10**40))
        with pytest.raises(ZeroDivisionError):
            fr(1) / z

    def test_comparisons(self):
        assert fr(1, 3).cmp(fr(1, 2)) == -1
        assert fr(1, 2).cmp(fr(1, 2)) == 0
        s = tracked_sqrt2()
        assert s.cmp(fr(1)) == 1
        assert s.cmp(s) is None  # identical enclosures overlap
        # a zero-width enclosure is its one point: a provable tie
        half = Real.tracked_from_fraction(Fraction(1, 2))
        assert half.cmp(fr(1, 2)) == fr(1, 2).cmp(half) == half.cmp(half) == 0
        assert _precedes(fr(1, 3), fr(1, 2), True)
        assert not _precedes(s, fr(1), True)

    def test_str_forms(self):
        assert str(fr(3, 4)) == "3/4"
        assert str(fr(5)) == "5"
        assert "±" in str(tracked_sqrt2())

    def test_exact_quadratic_str_forms(self):
        s, t = Real.sqrt2(), Real.sqrt3()
        assert [str(x) for x in (s, -s, s / 2, fr(1, 7) + 3 * s, 1 - t, t * t)] == \
            ["sqrt2", "-sqrt2", "1/2*sqrt2", "1/7+3*sqrt2", "1-sqrt3", "3"]
        assert (s.kind, (s * s).kind) == ("exact-quadratic", "exact-rational")
        # the midpoint that approximations print from ignores the precision
        x = fr(1, 7) + 3 * s
        with precision(64):
            low = x.mid()
        with precision(1024):
            assert x.mid() == low
        # past the 4300-digit print bound: the 256-bit rounding and the sizes
        big = (1 + s).pow_int(20000)
        assert big.kind == "exact-quadratic"
        assert str(big).endswith("[exact (a+b*sqrt2)/d: 25431/25430/1 bits]")

    def test_reflected_division(self):
        # a rational or an int over a Real: the field quotient, exactly
        assert 3 / fr(4) == fr(3, 4)
        q = Fraction(1, 3) / Real.sqrt2()
        assert q.kind == "exact-quadratic"
        assert q * q == fr(1, 18) and q.cmp(0) == 1

    def test_hull_rounds_an_exact_quadratic_end_outward(self):
        # (lo, hi) bounds of the hull of sqrt2 and a tracked value: the
        # quadratic end is rounded outward, by at most a few ulps
        below = Real.hull(Real.sqrt2(), Real.pi()).bounds()
        above = Real.hull(Real.pi() - 3, Real.sqrt2()).bounds()
        ulp = Fraction(1, 2 ** (current_precision().bits - 4))
        assert below[0] ** 2 <= 2 < (below[0] + ulp) ** 2
        assert (above[1] - ulp) ** 2 < 2 <= above[1] ** 2
        with mpmath.workdps(100):
            hi, lo = (mpmath.mpf(q.numerator) / q.denominator for q in (below[1], above[0]))
            assert hi >= mpmath.pi and lo <= mpmath.pi - 3

    def test_tracked_equality_is_identity(self):
        # one enclosure does not prove one value
        p, q = Real.pi(), Real.pi()
        assert p == p and p != q and same_enclosure(p, q)

    def test_tracked_values_are_keys_only_as_themselves(self):
        # equal enclosures hash alike, but a dict still tells them apart,
        # and a third enclosure of pi is no key
        p, q = Real.pi(), Real.pi()
        keys = {p: "p", q: "q"}
        assert len(keys) == 2 and keys[p] == "p" and keys[q] == "q"
        assert Real.pi() not in keys

    def test_exact_rational_hashes_as_python_numbers(self):
        assert hash(fr(1, 3) + fr(1, 6)) == hash(Fraction(1, 2)) == hash(0.5)

    def test_str_independent_of_ambient_precision(self):
        s = tracked_sqrt2()
        text = str(s)
        with precision(64):
            assert str(s) == text
        with precision(1024):
            assert str(s) == text


class TestPrecisionContext:
    def test_default(self):
        ctx = current_precision()
        assert ctx.bits == 256 and ctx.ceiling == 4096

    def test_scoped_precision_changes_enclosures(self):
        with precision(64):
            wide = radius(tracked_sqrt2())
        with precision(512):
            narrow = radius(tracked_sqrt2())
        assert narrow < wide

    def test_doubled_hits_ceiling(self):
        # retry_precision doubles the working precision while the answer is
        # None (undecided), up to the ceiling, then gives up
        tried = []

        def undecidable():
            tried.append(current_precision().bits)
            return None

        with precision(128, 640):
            with pytest.raises(PrecisionExhausted, match="640-bit ceiling"):
                retry_precision(undecidable)
        assert tried == [128, 256, 512, 640]


class TestInterval:
    def test_open_closed(self):
        iv = Interval.open(0, 1)
        assert iv.open_lo and iv.open_hi
        cl = iv.closure()
        assert not cl.open_lo and not cl.open_hi

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval.open(1, 1)
        with pytest.raises(ValueError):
            Interval.closed(2, 1)
        Interval.closed(1, 1)  # a single closed point is fine
        # a zero-width enclosure of 1/2 against 1/2 itself is a provable tie
        half = Real.tracked_from_fraction(Fraction(1, 2))
        with pytest.raises(ValueError, match="degenerate"):
            Interval.open(half, Fraction(1, 2))
        Interval.closed(half, Fraction(1, 2))

    def test_exact_quadratic_tie_rejected(self):
        # two sqrt2 are one point, exactly: an empty open interval
        with pytest.raises(ValueError, match="degenerate"):
            Interval.open(Real.sqrt2(), Real.sqrt2())
        Interval.closed(Real.sqrt2(), Real.sqrt2())
        # touching at an exact quadratic end is certainly disjoint
        s = Real.sqrt2()
        assert Interval.open(fr(1), s).certainly_disjoint(Interval.open(s, fr(2)))

    def test_disjointness_with_openness(self):
        a = Interval.open(0, 1)
        b = Interval.open(1, 2)
        assert a.certainly_disjoint(b)  # open endpoints touching
        c = Interval.closed(1, 2)
        assert a.certainly_disjoint(c)  # (0,1) vs [1,2] still disjoint
        d = Interval.closed(0, 1)
        assert not d.certainly_disjoint(c)

    def test_intersects(self):
        assert Interval.open(0, 2).certainly_intersects(Interval.open(1, 3))
        assert not Interval.open(0, 1).certainly_intersects(Interval.open(1, 2))

    def test_subset(self):
        assert Interval.open(Fraction(1, 4), Fraction(1, 2)).certainly_subset_of(
            Interval.open(0, 1)
        )
        assert not Interval.open(0, 1).certainly_subset_of(
            Interval.open(Fraction(1, 4), Fraction(1, 2))
        )
        assert Interval.open(0, 1).certainly_subset_of(Interval.closed(0, 1))
        assert not Interval.closed(0, 1).certainly_subset_of(Interval.open(0, 1))

    def test_tracked_endpoint_uncertainty(self):
        s = tracked_sqrt2()
        a = Interval.open(s, fr(2))
        b = Interval.open(fr(2), fr(3))
        # (sqrt2, 2) and (2, 3): touching at an exact rational endpoint
        assert a.certainly_disjoint(b)
        c = Interval.open(fr(1), s)
        d = Interval.open(s, fr(2))
        # touching at a tracked endpoint cannot be certified disjoint
        assert not c.certainly_disjoint(d)

    def test_intersection_hull(self):
        h = Interval.open(0, 2).intersection_hull(Interval.closed(1, 3))
        assert float(h.lo.mid()) == 1.0 and float(h.hi.mid()) == 2.0
        assert Interval.open(0, 1).intersection_hull(Interval.open(2, 3)) is None

    def test_equality_with_a_non_interval_is_false(self):
        assert (Interval.open(0, 1) == (0, 1)) is False
        assert Interval.open(0, 1) != (0, 1)

    def test_diameter_midpoint(self):
        iv = Interval.open(Fraction(-1, 2), Fraction(3, 2))
        assert iv.diameter().as_fraction() == 2
        assert iv.midpoint().as_fraction() == Fraction(1, 2)


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_rational_field_ops_match_fractions(qa, qb):
    a, b = Real.from_fraction(qa), Real.from_fraction(qb)
    assert (a + b).as_fraction() == qa + qb
    assert (a * b).as_fraction() == qa * qb
    assert (a - b).as_fraction() == qa - qb
    if qb != 0:
        assert (a / b).as_fraction() == qa / qb


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000),
       st.fractions(min_value=-3, max_value=3))
@settings(max_examples=100, deadline=None)
def test_tracked_pow_encloses_float_truth(base, expo):
    v = Real.from_fraction(base).pow_real(
        Real.tracked_from_fraction(expo)
    )
    lo, hi = v.bounds()
    truth = float(base) ** float(expo)
    assert float(lo) <= truth * (1 + 1e-12) and truth * (1 - 1e-12) <= float(hi)
