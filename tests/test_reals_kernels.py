"""The big-rational kernels of lineact.reals against verbatim copies of the
bisection root, from_rational rounding, Fraction-bound comparisons and
rational-power dispatch they replaced (the reference; the compare has since
gained Real.cmp's rule that a provable point tie is 0): every result must be
identical, mpf tuples included.  The exact quadratics are checked against an
integer oracle of their own, and the paths that rely on them (the sqrt2
extension's residual, an ex_1_2 orbit) must stay exact.  The exact-rational
kernels, which build each Fraction from its two integers, are checked
against Fraction's own operators."""

import math
import random
import sys
import time
from fractions import Fraction
from typing import Optional

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    finf,
    fninf,
    from_int,
    from_man_exp,
    from_rational,
    mpf_abs,
    mpf_cmp,
    mpf_neg,
    round_ceiling,
    round_floor,
)

from lineact.actions import (
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    homomorphism_residual,
    sample_points,
)
from lineact.dynamics import orbit
from lineact.reals import (
    Interval,
    PrecisionExhausted,
    Real,
    _fraction_root,
    _frac,
    _iroot,
    _mpi_from_fraction,
    _mpi_from_quad,
    _prec,
    _precedes,
    _quadratic,
    precision,
)

from helpers import tracked_sqrt2, tracked_sqrt3


# -- the reference: the kernels as they were, kept unchanged ----------------

def ref_iroot(n: int, p: int) -> Optional[int]:
    if n < 0:
        if p % 2 == 0:
            return None
        r = ref_iroot(-n, p)
        return None if r is None else -r
    if n in (0, 1):
        return n
    if n.bit_length() <= p:
        return None  # no integer root >= 2 can exist, and n > 1
    lo, hi = 1, 1 << ((n.bit_length() + p - 1) // p + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**p < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**p == n else None


def ref_root(x: Real, p: int) -> Real:
    """Exact-aware p-th root for positive values (sign-preserving for odd p)."""
    if p == 1:
        return x
    if x._rat is not None:
        r = _fraction_root(x._rat, p)
        if r is not None:
            return Real(r)
    return ref_pow_fraction(x, Fraction(1, p))


def ref_pow_fraction(x: Real, e: Fraction) -> Real:
    """``x ** e`` for positive x (or rational x with integer e)."""
    if e.denominator == 1:
        return x.pow_int(e.numerator)
    if x._rat is not None:
        base_root = _fraction_root(x._rat, e.denominator)
        if base_root is not None:
            return Real(base_root).pow_int(e.numerator)
        if x._rat < 0:
            raise ValueError("fractional power of a negative value")
        if x._rat == 0:
            return Real(Fraction(0))
    return x.pow_real(Real.tracked_from_fraction(e))


def ref_mpi_from_fraction(q: Fraction, prec: int):
    if q.denominator == 1:
        v = from_int(q.numerator)
        return (v, v)
    lo = from_rational(q.numerator, q.denominator, prec, round_floor)
    hi = from_rational(q.numerator, q.denominator, prec, round_ceiling)
    return (lo, hi)


def ref_hull(a: "Real", b: "Real") -> "Real":
    """Smallest tracked enclosure containing both values."""
    alo, ahi = a.bounds()
    blo, bhi = b.bounds()
    lo, hi = min(alo, blo), max(ahi, bhi)
    if lo == hi:
        return Real(lo)
    p = _prec()
    return Real(None, (
        from_rational(lo.numerator, lo.denominator, p, round_floor),
        from_rational(hi.numerator, hi.denominator, p, round_ceiling),
    ))


def ref_mid(self) -> Fraction:
    lo, hi = self.bounds()
    return (lo + hi) / 2


def ref_cmp(self, other) -> Optional[int]:
    """-1, 0, +1, or None when the enclosures overlap undecidably; 0 also
    when both enclosures are one and the same point."""
    other = Real.coerce(other)
    if self._rat is not None and other._rat is not None:
        a, b = self._rat, other._rat
        return -1 if a < b else (1 if a > b else 0)
    slo, shi = self.bounds()
    olo, ohi = other.bounds()
    if shi < olo:
        return -1
    if slo > ohi:
        return 1
    return 0 if slo == shi == olo == ohi else None


def ref_leq(self, bound) -> Optional[bool]:
    """Is self <= bound?  True/False only when certain."""
    bound = Real.coerce(bound)
    if self._rat is not None and bound._rat is not None:
        return self._rat <= bound._rat
    slo, shi = self.bounds()
    blo, bhi = bound.bounds()
    if shi <= blo:
        return True
    if slo > bhi:
        return False
    return None


# -- strategies ---------------------------------------------------------------

# Bit sizes from word size to 100 kbit and beyond; the large ones are drawn
# from a seeded generator so hypothesis need not build huge integers itself.
_SIZES = [1, 2, 8, 31, 64, 65, 200, 3000, 100_000, 140_000]


@st.composite
def integers(draw, zeros=True):
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.getrandbits(draw(st.sampled_from(_SIZES))) or 1
    if zeros:
        n <<= draw(st.sampled_from([0, 0, 1, 7, 8, 9, 300, 701]))
    return -n if draw(st.booleans()) else n


@st.composite
def fractions(draw):
    num = draw(integers())
    kind = draw(st.sampled_from(["int", "dyadic", "odd", "general"]))
    if kind == "int":
        return Fraction(num)
    if kind == "dyadic":
        return Fraction(num, 1 << draw(st.sampled_from([1, 3, 64, 300, 100_000])))
    den = abs(draw(integers(zeros=kind == "general")))
    return Fraction(num, (den | 1) if kind == "odd" else den)


precs = st.one_of(st.sampled_from([8, 53, 256, 4096]), st.integers(8, 4096))


def reals(q: Fraction, how: str) -> Real:
    if how == "exact":
        return Real(q)
    if how == "tracked":
        return Real.tracked_from_fraction(q)
    return Real.hull(Real(q), Real(q + Fraction(1, 3)))


# -- equivalence --------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(fractions(), precs)
def test_outward_rounding_matches_from_rational(q, prec):
    assert _mpi_from_fraction(q, prec) == ref_mpi_from_fraction(q, prec)


@st.composite
def at_precision(draw):
    """A precision and a value whose numerator has about that many bits."""
    prec = draw(precs)
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = prec + draw(st.integers(-2, 2))
    num = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    den = draw(st.sampled_from([1, 2, 1 << 40, 3, 3 << 40, (1 << 61) - 1]))
    return Fraction(-num if draw(st.booleans()) else num, den), prec


@settings(max_examples=200, deadline=None)
@given(at_precision())
def test_outward_rounding_at_the_precision_edge(qp):
    q, prec = qp
    assert _mpi_from_fraction(q, prec) == ref_mpi_from_fraction(q, prec)


@settings(max_examples=200, deadline=None)
@given(fractions(), fractions(), precs,
       st.sampled_from(["exact", "tracked"]), st.sampled_from(["exact", "tracked"]))
def test_hull_matches_reference(a, b, prec, how_a, how_b):
    with precision(prec):
        x, y = reals(a, how_a), reals(b, how_b)
        got, want = Real.hull(x, y), ref_hull(x, y)
    assert (got._rat, got._mpi) == (want._rat, want._mpi)


@settings(max_examples=200, deadline=None)
@given(fractions(), st.sampled_from(["exact", "tracked", "hull"]))
def test_mid_err_match_reference(q, how):
    x = reals(q, how)
    assert x.mid() == ref_mid(x)


@st.composite
def enclosures(draw) -> Real:
    """Tracked enclosures from raw endpoints: negative, straddling zero, of
    zero width, and with exponents far apart."""
    rng = random.Random(draw(st.integers(0, 2**32)))

    def end():
        man = rng.getrandbits(draw(st.sampled_from([1, 8, 53, 256, 3000])))
        exp = draw(st.sampled_from([-100_000, -1100, -60, -1, 0, 5, 1100, 100_000]))
        return from_man_exp(-man if draw(st.booleans()) else man, exp)

    a = end()
    shape = draw(st.sampled_from(["free", "zero-width", "straddle", "negative"]))
    if shape == "zero-width":
        b = a
    else:
        b = end()
        if shape == "straddle":
            a, b = mpf_neg(mpf_abs(a)), mpf_abs(b)
        elif shape == "negative":
            a, b = mpf_neg(mpf_abs(a)), mpf_neg(mpf_abs(b))
    return Real(None, (a, b) if mpf_cmp(a, b) <= 0 else (b, a))


@settings(max_examples=300, deadline=None)
@given(enclosures())
def test_mid_of_raw_enclosures_matches_reference(x):
    assert x.mid() == ref_mid(x)


@pytest.mark.parametrize("ends", [(fninf, from_int(1)), (from_int(-1), finf),
                                  (fninf, finf)])
def test_mid_refuses_an_infinite_endpoint(ends):
    with pytest.raises(ValueError, match="non-finite endpoint"):
        Real(None, ends).mid()


@st.composite
def pairs(draw):
    """Two values, often over one denominator (as a level interval's endpoint
    images under one word are), or one equal to the other."""
    a = draw(fractions())
    shape = draw(st.sampled_from(["same-den", "equal", "free"]))
    if shape == "same-den":
        den = 1 << draw(st.sampled_from([3, 3 * 4096, 3 * 40_000]))
        a = Fraction(draw(integers(zeros=False)) | 1, den)
        b = Fraction(draw(integers(zeros=False)) | 1, den)
    elif shape == "equal":
        b = Fraction(a.numerator, a.denominator)
    else:
        b = draw(fractions())
    how = st.sampled_from(["exact", "exact", "tracked", "hull"])
    return reals(a, draw(how)), reals(b, draw(how))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_cmp_leq_match_reference(xy):
    x, y = xy
    for a, b in ((x, y), (y, x), (x, x)):
        assert a.cmp(b) == ref_cmp(a, b)
        assert _precedes(a, b, True) is (ref_leq(a, b) is True)


@st.composite
def powers(draw):
    """Perfect powers, their neighbours and their negatives."""
    p = draw(st.sampled_from([2, 3, 5, 8, 512]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    r = rng.getrandbits(draw(st.sampled_from([1, 2, 7, 40, 200])))
    r <<= draw(st.sampled_from([0, 0, 1, 100]))
    n = r**p + draw(st.sampled_from([0, 0, 1, -1]))
    return (-n if draw(st.booleans()) else n), p


@settings(max_examples=300, deadline=None)
@given(powers())
def test_iroot_matches_bisection(np):
    n, p = np
    assert _iroot(n, p) == ref_iroot(n, p)


def state(r: Real):
    """What a Real is, for comparison: its rational or its mpf pair."""
    return ("exact", r._rat) if r.is_rational else ("tracked", r._mpi)


def outcome(fn, *args):
    """The result's state, or the type of the error raised."""
    try:
        return state(fn(*args))
    except (ValueError, ZeroDivisionError, PrecisionExhausted) as exc:
        return type(exc)


@st.composite
def powered(draw):
    """A rational exponent e = num/p and a base: often a perfect p-th power
    or its neighbour, of either sign, or exact 0; exact, or tracked away
    from 0."""
    p = draw(st.sampled_from([1, 2, 3, 5, 8]))
    e = Fraction(draw(st.sampled_from([1, 1, 2, 3, -1, -2])), p)
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = st.sampled_from([1, 2, 8, 64, 300])
    r = Fraction(rng.getrandbits(draw(sizes)) or 1, rng.getrandbits(draw(sizes)) or 1)
    shape = draw(st.sampled_from(["power", "power", "near", "free", "zero"]))
    if shape == "zero":
        return Real(Fraction(0)), e
    q = {"power": r**p, "near": r**p + Fraction(1, r.denominator**p), "free": r}[shape]
    if draw(st.booleans()):
        q = -q
    how = draw(st.sampled_from(["exact", "exact", "tracked", "hull"]))
    if how == "hull" and q < 0:
        how = "tracked"  # q's hull with q + 1/3 might touch 0
    with precision(draw(st.sampled_from([8, 53, 256]))):
        return reals(q, how), e


@settings(max_examples=300, deadline=None)
@given(powered())
@example((Real(Fraction(-27, 8)), Fraction(1, 3)))
@example((Real(Fraction(0)), Fraction(1, 3)))
@example((Real(Fraction(0)), Fraction(-1, 2)))
def test_pow_real_matches_the_old_power_dispatch(xe):
    x, e = xe
    if e.numerator == 1:
        want = outcome(ref_root, x, e.denominator)
    else:
        want = outcome(ref_pow_fraction, x, e)
    assert outcome(x.pow_real, e) == want


def test_pow_real_roots_the_upper_end_of_a_hull_at_0():
    x = Real.hull(Real(Fraction(0)), Real(Fraction(1, 8)))
    assert x.pow_real(Fraction(1, 3)).bounds() == (0, Fraction(1, 2))
    # the old dispatch rounded the upper end outward through exp and log
    assert ref_pow_fraction(x, Fraction(1, 3)).bounds()[1] > Fraction(1, 2)


# -- regressions: megabit exact values stay fast ------------------------------

# The bisection root and the quadratic conversions took tens of seconds on
# each of these; the bound is a wide margin over their sub-second run.
_FAST_S = 10.0


def test_root_of_huge_exact_power():
    t = time.perf_counter()
    r = Real((Fraction(5, 8)) ** (2**16)).pow_real(Fraction(1, 8))
    assert time.perf_counter() - t < _FAST_S
    assert r.as_fraction() == Fraction(5, 8) ** (2**13)


def test_far_cell_orbit_fails_fast():
    t = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match="touches cell -4 edge"):
        orbit(gallery("ex_1_4", k=3), Fraction(-2) + Fraction(5, 8), 4)
    assert time.perf_counter() - t < _FAST_S


# -- exact quadratics against an integer oracle -------------------------------
# The oracle holds p + q*sqrt(r) as two Fractions p and q, and decides every
# sign from an integer square root: for v != 0, v*sqrt(r) lies strictly
# between two consecutive integers.

def q_sign(u: int, v: int, r: int) -> int:
    """The sign of u + v*sqrt(r): u + v*sqrt(r) lies in (low, low + 1), low
    = u + k or u - k - 1 with k = isqrt(r*v*v), as v > 0 or v < 0."""
    if not v:
        return (u > 0) - (u < 0)
    k = math.isqrt(r * v * v)
    return 1 if (u + k if v > 0 else u - k - 1) >= 0 else -1


def q_cmp(x, y, r: int) -> int:
    """The order of x = (p, q) and y as numbers p + q*sqrt(r)."""
    dp, dq = x[0] - y[0], x[1] - y[1]
    den = math.lcm(dp.denominator, dq.denominator)
    return q_sign(int(dp * den), int(dq * den), r)


def q_state(x, r: int):
    """The kind and stored value the exact number x = (p, q) must have: d is
    the least common denominator of p and q, so gcd(a, b, d) = 1."""
    p, q = x
    if not q:
        return ("exact-rational", p)
    d = math.lcm(p.denominator, q.denominator)
    return ("exact-quadratic", (int(p * d), int(q * d), d, r))


def state_of(v: Real):
    return (v.kind, v._rat if v.kind == "exact-rational" else v._quad)


def q_mul(x, y, r):
    return (x[0] * y[0] + r * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q_pow(x, n: int, r: int):
    out = (Fraction(1), Fraction(0))
    if n < 0:
        norm = x[0] ** 2 - r * x[1] ** 2
        x, n = (x[0] / norm, -x[1] / norm), -n
    for _ in range(n):
        out = q_mul(out, x, r)
    return out


small = st.fractions(min_value=-40, max_value=40, max_denominator=12)
field_elements = st.tuples(small, st.one_of(st.just(Fraction(0)), small))


@settings(max_examples=300, deadline=None)
@given(field_elements, field_elements, st.sampled_from([2, 3]),
       st.integers(-4, 6), st.integers(-5, 5), precs)
def test_quadratic_ops_match_integer_oracle(x, y, r, e, n, prec):
    root = Real.sqrt2() if r == 2 else Real.sqrt3()
    a, b = (Real(p) + Real(q) * root for p, q in (x, y))
    assert state_of(a) == q_state(x, r) and state_of(b) == q_state(y, r)
    assert state_of(a + b) == q_state((x[0] + y[0], x[1] + y[1]), r)
    assert state_of(a - b) == q_state((x[0] - y[0], x[1] - y[1]), r)
    assert state_of(a * b) == q_state(q_mul(x, y, r), r)
    zero = (Fraction(0), Fraction(0))
    if y != zero:
        norm = y[0] ** 2 - r * y[1] ** 2
        assert state_of(a / b) == q_state(q_mul(x, (y[0] / norm, -y[1] / norm), r), r)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    sign = q_cmp(x, zero, r)
    assert state_of(-a) == q_state((-x[0], -x[1]), r)
    assert state_of(abs(a)) == q_state((sign * x[0], sign * x[1]) if sign else x, r)
    assert state_of(a.shift(n)) == q_state((x[0] + n, x[1]), r)
    if x != zero or e >= 0:
        assert state_of(a.pow_int(e)) == q_state(q_pow(x, e, r), r)
    assert a.cmp(b) == q_cmp(x, y, r) and a.cmp(0) == sign
    assert _precedes(a, b, True) is (q_cmp(x, y, r) <= 0)
    assert (a == b) is (x == y) and (x != y or hash(a) == hash(b))
    assert a.contains_zero() is (x == zero)
    (f, c), upper = a.floor_ceil()
    assert upper == (f, c)
    assert q_cmp(x, (f, 0), r) >= 0 > q_cmp(x, (f + 1, 0), r)
    assert c == (f if q_cmp(x, (f, 0), r) == 0 else f + 1)
    # the outward rounding at any precision holds the exact value, and the
    # midpoint lies inside the one at the print precision
    with precision(prec):
        lo, hi = a.bounds()
    assert q_cmp((lo, 0), x, r) <= 0 <= q_cmp((hi, 0), x, r)
    lo, hi = a.bounds()
    assert lo <= a.mid() <= hi


def test_two_radicands_go_tracked():
    s, t = Real.sqrt2(), Real.sqrt3()
    for v in (s + t, s * t, s / t, t - s, s.pow_real(Fraction(1, 2)), s + Real.pi()):
        assert v.kind == "tracked-real"
    lo, hi = (s + t).bounds()
    for end, side in ((lo, -1), (hi, 1)):  # end - sqrt2 against sqrt3, squared
        u = Real(end) - s
        assert u.cmp(0) == 1 and (u * u).cmp(3) == side
    # the fallback encloses what the tracked path encloses
    assert (s + t).cmp(tracked_sqrt2() + tracked_sqrt3()) is None
    # different radicands are never equal, so the order always decides
    assert s.cmp(t) == -1 and t.cmp(s) == 1 and (t - 1).cmp(s / 2) == 1


# -- two radicands against mpmath ---------------------------------------------
# (a + b*sqrt2)/d and (c + e*sqrt3)/f are ordered by an exact sign; the
# oracle evaluates their difference at 20,000 bits, sharing no code with it.
# For odd n, (sqrt3 - sqrt2)**n is c*sqrt3 - d*sqrt2 with integer c and d,
# and tiny: d*sqrt2 lies below c*sqrt3 by about 2**(-1.65 n) while both are
# about 2**(1.65 n).  Refining enclosures until they part took 4,096 bits at
# n = 1201 and 8,192 at n = 1501.

def sqrt3_minus_sqrt2_power(n: int) -> tuple[int, int]:
    """(c, d) with (sqrt3 - sqrt2)**n = c*sqrt3 - d*sqrt2, n odd."""
    c, d = 1, 1
    for _ in range(n // 2):   # times (sqrt3 - sqrt2)**2 = 5 - 2*sqrt6
        c, d = 5 * c + 4 * d, 6 * c + 5 * d
    return c, d


def oracle_sign(a: int, b: int, d: int, c: int, e: int, f: int) -> int:
    with mpmath.workprec(20_000):
        v = (a + b * mpmath.sqrt(2)) / d - (c + e * mpmath.sqrt(3)) / f
    return (v > 0) - (v < 0)


# A + B*sqrt2 + E*sqrt3 is about 3.3e-81 (mpmath.pslq at tol 1e-80): parting
# the enclosures took a second round, at 512 bits
PSLQ_A = -1055040034269141520276585847796672223975
PSLQ_B = 1956228018972470043345675263354897370483
PSLQ_E = -988125841214919715488741902203264285929
C_1201, D_1201 = sqrt3_minus_sqrt2_power(1201)
C_1501, D_1501 = sqrt3_minus_sqrt2_power(1501)
nonzero = st.integers(-10**9, 10**9).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**9, 10**9), nonzero, st.integers(1, 10**4),
       st.integers(-10**9, 10**9), nonzero, st.integers(1, 10**4))
@example(PSLQ_A, PSLQ_B, 1, 0, -PSLQ_E, 1)
@example(-PSLQ_A, -PSLQ_B, 1, 0, PSLQ_E, 1)
@example(0, D_1201, 1, 0, C_1201, 1)
@example(5, D_1501, 7, 5, C_1501, 7)
@example(-3, -D_1501, 2, -3, -C_1501, 2)
def test_two_radicands_order_exactly(a, b, d, c, e, f):
    x = (Real.rational(a) + Real.rational(b) * Real.sqrt2()) / Real.rational(d)
    y = (Real.rational(c) + Real.rational(e) * Real.sqrt3()) / Real.rational(f)
    assert x.kind == y.kind == "exact-quadratic"
    want = oracle_sign(a, b, d, c, e, f)
    assert want != 0   # 1, sqrt2 and sqrt3 are Q-independent
    assert x.cmp(y) == want and y.cmp(x) == -want


# -- a quadratic against an mpf inside its enclosure --------------------------
# The 300- and 512-bit brackets of x nest inside its 256-bit enclosure, and
# so do that enclosure's own ends: mpf_cmp decides none of them, so x's
# exact sign against the dyadic value does.  |a| up to 10**100 gives mpf of
# both exponent signs.

def oracle_mpf_sign(a: int, b: int, d: int, r: int, m) -> int:
    with mpmath.workprec(20_000):
        v = (a + b * mpmath.sqrt(r)) / d - mpmath.mp.make_mpf(m)
    return (v > 0) - (v < 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(-10**100, 10**100), nonzero, st.integers(1, 10**4),
       st.sampled_from((2, 3)))
@example(0, 1, 1, 2)
@example(-10**100, 7, 3, 3)
def test_quadratic_against_an_mpf_inside_its_enclosure(a, b, d, r):
    root = Real.sqrt2() if r == 2 else Real.sqrt3()
    x = (Real.rational(a) + Real.rational(b) * root) / Real.rational(d)
    assert x.kind == "exact-quadratic"
    lo, hi = x._as_mpi(_prec())
    for m in (lo, hi, *_mpi_from_quad(x._quad, 300), *_mpi_from_quad(x._quad, 512)):
        assert mpf_cmp(lo, m) <= 0 <= mpf_cmp(hi, m)
        want = oracle_mpf_sign(a, b, d, r, m)
        y = Real(None, (m, m))
        assert want != 0 and x.cmp(y) == want and y.cmp(x) == -want


def test_sqrt2_paths_stay_exact():
    # a silent fallback to enclosures would show only as a slowdown
    inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
    ext = extend_action(direct_product_extension(inner, coset_label="t"))
    res = homomorphism_residual(ext, 8, sample_points(Interval.closed(-3, 3), 3))
    assert res.kind == "exact-rational" and res.as_fraction() == 0
    kinds = {p.value.kind for p in orbit(gallery("ex_1_2", alpha="sqrt2"), 0, 3)}
    assert kinds == {"exact-rational", "exact-quadratic"}


# -- exact rationals against Fraction's operators -----------------------------

@st.composite
def rational_pairs(draw):
    """Two rationals of up to about 20,000 bits, either sign, whose
    denominators share a factor g and each numerator a factor with the other
    denominator (h, k), so every gcd branch of the kernels is taken; or a
    pair with a zero, equal denominators, or opposite values."""
    bits = draw(st.one_of(st.integers(1, 64), st.integers(65, 4096),
                          st.integers(4097, 20_000)))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def part(n_bits: int) -> int:
        return rng.getrandbits(max(n_bits, 1)) | 1

    g, h, k = (part(bits // 4) if draw(st.booleans()) else 1 for _ in range(3))
    sa, sb = (draw(st.sampled_from([-1, 1])) for _ in range(2))
    a = Fraction(sa * h * part(bits), g * k * part(bits))
    b = Fraction(sb * k * part(bits), g * h * part(bits))
    how = draw(st.sampled_from(["shared", "shared", "zero", "equal-den", "opposite"]))
    if how == "zero":
        a, b = draw(st.permutations([Fraction(0), b]))
    elif how == "equal-den":
        n = sb * part(bits)
        while math.gcd(n, a.denominator) != 1:
            n += 1
        b = Fraction(n, a.denominator)
    elif how == "opposite":
        b = -a
    return a, b


def assert_same_fraction(got: Real, want: Fraction) -> None:
    """got is exactly want: a Fraction in lowest terms, den > 0, with want's
    integers, hash and text."""
    q = got.as_fraction()
    assert type(q) is Fraction
    assert q == want
    n, d = q.numerator, q.denominator
    assert d > 0 and math.gcd(n, d) == 1
    assert (n, d) == (want.numerator, want.denominator)
    assert hash(q) == hash(want)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a 20,000-bit numerator has 6,021 digits
    try:
        assert str(q) == str(want)
    finally:
        sys.set_int_max_str_digits(old)


@settings(max_examples=300, deadline=None)
@given(rational_pairs())
@example((Fraction(0), Fraction(0)))
@example((Fraction(-3, 4), Fraction(5, 4)))
@example((Fraction(1, 6), Fraction(1, 3)))
@example((Fraction(3, 4), Fraction(-3, 4)))
def test_rational_kernels_match_fraction_operators(ab):
    a, b = ab
    x, y = Real(a), Real(b)
    assert_same_fraction(x + y, a + b)
    assert_same_fraction(x - y, a - b)
    assert_same_fraction(y - x, b - a)
    assert_same_fraction(x * y, a * b)
    if b:
        assert_same_fraction(x / y, a / b)
    if a:
        assert_same_fraction(y / x, b / a)
    assert_same_fraction(-x, -a)
    assert_same_fraction(abs(x), abs(a))
    if a >= 0:
        assert abs(x) is x


@settings(max_examples=200, deadline=None)
@given(rational_pairs(), st.one_of(st.integers(-3, 3),
                                   st.integers(-2**70, 2**70)))
def test_shift_matches_fraction_plus_integer(ab, n):
    a, _ = ab
    assert_same_fraction(Real(a).shift(n), a + n)
    assert_same_fraction(Real(a).shift(-abs(n)), a - abs(n))


@settings(max_examples=200, deadline=None)
@given(rational_pairs(), st.sampled_from([2, 3]))
def test_quadratic_rational_exit_matches_fraction(ab, r):
    a, b = ab
    num, den = a.numerator * b.denominator, a.denominator * (b.numerator or 1)
    for n, d in ((num, den), (-num, den), (num, -den), (-num, -den)):
        assert_same_fraction(_quadratic(n, 0, d, r), Fraction(n, d))
    # (a + sqrt(r)) - (b + sqrt(r)) leaves the field through the same exit
    root = Real.sqrt2() if r == 2 else Real.sqrt3()
    assert_same_fraction((Real(a) + root) - (Real(b) + root), a - b)
    c = b or Fraction(1)
    assert_same_fraction((Real(a) * root) / (Real(c) * root), a / c)


def test_fraction_is_its_two_slots():
    # _frac fills exactly these slots; a Fraction with another layout (say a
    # cached hash) would be left half built
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    q = _frac(-10**30 - 1, 3**40)
    want = Fraction(-10**30 - 1, 3**40)
    assert_same_fraction(Real(q), want)
    assert q + 1 == want + 1 and q < 0 and float(q) == float(want)
