"""Exact rational, exact real-quadratic and tracked-precision real numbers.

Three kinds of scalar live here.  An exact rational is a
``fractions.Fraction`` in lowest terms.  Its +, -, *, / run Fraction's own
gcd-split and cross-gcd algorithms on the two integers and build the result
with ``_frac`` from a coprime numerator and a positive denominator, without
Fraction's operator dispatch or its normalising constructor.  An exact
quadratic is (a + b*sqrt(r))/d for integers a, b != 0, d > 0 with
gcd(a, b, d) = 1 and r in {2, 3}: ``sqrt2``, ``sqrt3`` and every field
operation on them and on rationals stays in Q(sqrt(r)).  A tracked real is a
rigorous enclosure ``[lo, hi]`` of an unknown real, stored as a pair of
dyadic endpoints (mpmath raw mpf values) that are always rounded outward.
Every arithmetic operation either stays exact (when the operation is closed
over the operands' field: +, -, *, / and integer powers over Q or one
Q(sqrt(r))) or degrades to a tracked enclosure whose error bound is never
dropped; two radicands, a non-integer power, pi and e go tracked.  Exact
values stay bounded by one rule for powers: an integer power stays exact up
to 8 precision ceilings of bits, and :class:`PrecisionExhausted` refuses an
integer exponent wider than the ceiling and an |e ln x| beyond 2**ceiling.
:meth:`Real.shift` adds an integer to sub-ulp tracked ends exactly up to its
own bound of 2**21 bits, keeping tiny offsets.

The certified order works on the raw endpoints: two mpf endpoints compare
with ``mpf_cmp``, an mpf endpoint and a rational by sign and binary
magnitude before at most one exact integer product, and two rationals by
numerator over a shared denominator.  An exact quadratic is its own
endpoint: against a rational or a value of its field it compares by the
exact sign of one u + v*sqrt(r), and against an mpf through its enclosure,
exactly when the mpf falls inside.  :meth:`Real.cmp` is the one three-way
order, and it reads two enclosures of one and the same point as a tie.  No
``Fraction`` is built to compare or sort a tracked value, or to print an
exact quadratic's float (:meth:`Real.mid_key`, :meth:`Real.mid_float`);
:meth:`Real.bounds` turns endpoints into fractions for reporting, oracles
and the exact path.  Equality is exact too: two tracked values are equal
only when they are one object, since equal enclosures do not prove equal
values.

Precision of tracked arithmetic is controlled by :class:`PrecisionContext`.
The default working precision is 256 bits.  An undecided comparison answers
None; :func:`retry_precision` reruns a computation at doubled precision while
it answers None, and raises :class:`PrecisionExhausted` at the 4096-bit ceiling.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Optional, Union

import mpmath.libmp as _mp
from mpmath.libmp import (
    from_int,
    fzero,
    mpf_add,
    mpf_cmp,
    mpf_nthroot,
    mpf_pos,
    mpf_sign,
    mpf_sub,
    normalize,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
    to_int,
    to_rational,
)

__all__ = [
    "PrecisionExhausted",
    "PrecisionContext",
    "precision",
    "current_precision",
    "retry_precision",
    "parse_real",
    "approx_float",
    "Real",
    "Interval",
    "RealLike",
]


class PrecisionExhausted(Exception):
    """A comparison or an enclosure needs more bits than the precision
    ceiling allows."""


# Default working precision (also the fixed precision tracked values print
# at, so output does not depend on the context) and precision ceiling.
_DEFAULT_BITS = 256
_DEFAULT_CEILING = 4096
# An exact value whose numerator or denominator has more decimal digits than
# Python's default int-to-str cap, 4300, prints as its 256-bit rounding.
_PRINT_BOUND = 10 ** 4300


class PrecisionContext:
    def __init__(self, bits: int = _DEFAULT_BITS, ceiling: int = _DEFAULT_CEILING):
        if bits < 8 or ceiling < bits:
            raise ValueError("need 8 <= bits <= ceiling")
        self.bits = bits
        self.ceiling = ceiling


_state = threading.local()


def current_precision() -> PrecisionContext:
    ctx = getattr(_state, "ctx", None)
    if ctx is None:
        ctx = PrecisionContext()
        _state.ctx = ctx
    return ctx


@contextmanager
def precision(bits: int, ceiling: Optional[int] = None):
    """Run a block at a given working precision (in bits of mantissa)."""
    old = getattr(_state, "ctx", None)
    cur_ceiling = ceiling if ceiling is not None else max(
        bits, (old.ceiling if old else _DEFAULT_CEILING)
    )
    _state.ctx = PrecisionContext(bits, cur_ceiling)
    try:
        yield _state.ctx
    finally:
        _state.ctx = old


def retry_precision(fn):
    """fn()'s answer, run again at doubled precision while it is None
    (undecided); PrecisionExhausted when it is still None at the ceiling."""
    ctx = current_precision()
    bits = ctx.bits
    while True:
        with precision(bits, ctx.ceiling):
            out = fn()
        if out is not None:
            return out
        if bits >= ctx.ceiling:
            raise PrecisionExhausted(f"undecidable at the {ctx.ceiling}-bit ceiling")
        bits = min(bits * 2, ctx.ceiling)


def _prec() -> int:
    return current_precision().bits


def _trailing_zeros(n: int) -> int:
    return (n & -n).bit_length() - 1


# A 61-bit prime (2**61 - 1) for the residue test of _iroot's candidate.
_M61 = (1 << 61) - 1


# Exact integer nth roots; returns None when no exact root exists.  The
# candidate is an mpf p-th root with 64 guard bits rounded to the nearest
# integer: a residue test modulo _M61 rejects it cheaply, one exact power
# confirms it.
def _iroot(n: int, p: int) -> Optional[int]:
    if n < 0:
        if p % 2 == 0:
            return None
        r = _iroot(-n, p)
        return None if r is None else -r
    if n in (0, 1):
        return n
    if n.bit_length() <= p:
        return None  # no integer root >= 2 can exist, and n > 1
    # Split off the power of two (ladder denominators are powers of 8): a
    # valuation p does not divide rules out a root without any root work.
    tz = _trailing_zeros(n)
    if tz % p:
        return None
    m = n >> tz
    prec = m.bit_length() // p + 64
    shift = max(m.bit_length() - prec, 0)
    top = (m >> shift) | 1  # odd, within 2**-prec of m relatively
    approx = mpf_nthroot((0, top, shift, top.bit_length()), p, prec, round_nearest)
    r = to_int(approx, round_nearest)
    if pow(r, p, _M61) != m % _M61 or r**p != m:
        return None
    return r << (tz // p)


def _fraction_root(q: Fraction, p: int) -> Optional[Fraction]:
    num = _iroot(q.numerator, p)
    if num is None:
        return None
    den = _iroot(q.denominator, p)
    if den is None:
        return None
    return Fraction(num, den)


# Size guard for the exact sums of :meth:`Real.shift`; beyond it they round.
_EXACT_POW_BIT_BUDGET = 1 << 21
# base**e stays exact while |e| * bits(base), about the bit length of the
# result, is at most this many precision ceilings; beyond, it goes tracked.
_EXACT_POW_CEILINGS = 8


def _mpf_round(num: int, den: int, prec: int, rnd):
    """num/den (den > 0) rounded to prec bits in direction rnd.

    Equals ``from_rational(num, den, prec, rnd)`` for the directed roundings
    but costs one shift and one divmod: a dyadic den keeps num as the exact
    mantissa, any other den gives a quotient of at least prec + 5 bits with
    a sticky bit for a nonzero remainder.
    """
    sign = int(num < 0)
    num = abs(num)
    if not den & (den - 1):
        return normalize(sign, num, 1 - den.bit_length(), num.bit_length(),
                         prec, rnd)
    shift = prec + 5 + den.bit_length() - num.bit_length()
    if shift >= 0:
        quot, rem = divmod(num << shift, den)
    else:
        quot, rem = divmod(num, den << -shift)
    if rem:
        quot = (quot << 1) | 1
        shift += 1
    return normalize(sign, quot, -shift, quot.bit_length(), prec, rnd)


def _mpi_from_fraction(q: Fraction, prec: int):
    num, den = q.numerator, q.denominator
    if den == 1:
        if num.bit_length() <= 64:
            v = from_int(num)
        else:  # strip the trailing zeros in one shift, not 8 bits a step
            m = abs(num)
            tz = _trailing_zeros(m)
            v = (int(num < 0), m >> tz, tz, m.bit_length() - tz)
        return (v, v)
    bc = num.bit_length()
    if not den & (den - 1) and bc <= prec:
        # a dyadic value that fits: num is odd, so this is the exact mpf
        v = (int(num < 0), abs(num), 1 - den.bit_length(), bc)
        return (v, v)
    return (_mpf_round(num, den, prec, round_floor),
            _mpf_round(num, den, prec, round_ceiling))


def _cmp_rational(a: Union[Fraction, int], b: Union[Fraction, int]) -> int:
    """-1, 0 or +1 as a <, = or > b, each a Fraction or an int (a sign test
    passes 0): one numerator difference over a shared denominator, one
    cross-multiplied difference otherwise."""
    ad, bd = a.denominator, b.denominator
    if ad == bd:
        d = a.numerator - b.numerator
    else:
        d = a.numerator * bd - b.numerator * ad
    return (d > 0) - (d < 0)


# -- exact rationals: Fraction's own algorithms on its two integers --------

_new = object.__new__


def _frac(n: int, d: int) -> Fraction:
    """n/d as a Fraction for coprime n and d > 0, with no gcd and no operator
    dispatch: CPython's Fraction is its two slots."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _rat_add(a: Fraction, b: Fraction) -> Fraction:
    """a + b by ``Fraction._add``'s gcd split: a prime of g = gcd(da, db)
    can divide the numerator only through g, so the second gcd is with g."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g = math.gcd(da, db)
    if g == 1:
        return _frac(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def _rat_sub(a: Fraction, b: Fraction) -> Fraction:
    """a - b, as :func:`_rat_add` (not a + (-b), which copies b's numerator)."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g = math.gcd(da, db)
    if g == 1:
        return _frac(na * db - da * nb, da * db)
    s = da // g
    t = na * (db // g) - nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def _rat_mul(a: Fraction, b: Fraction) -> Fraction:
    """a * b by ``Fraction._mul``'s cross gcds, each numerator against the
    other denominator."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _frac(na * nb, da * db)


# -- exact quadratics: (a, b, d, r) stands for (a + b*sqrt(r))/d ---------

# floor(sqrt(r) * 2**p): sqrt(r) lies in [R, R + 1) / 2**p.  A few (r, p)
# are live at a time: two radicands at the working and print precisions.
@lru_cache(maxsize=64)
def _sqrt_floor(r: int, p: int) -> int:
    return math.isqrt(r << 2 * p)


def _mpi_from_quad(quad, prec: int):
    """(a + b*sqrt(r))/d rounded outward to prec bits: its bracket
    (a*2**p + b*R)/(d*2**p) .. (a*2**p + b*(R + 1))/(d*2**p), R =
    _sqrt_floor(r, p), with each end rounded once."""
    a, b, d, r = quad
    lo = (a << prec) + b * _sqrt_floor(r, prec)
    hi = lo + b
    if b < 0:
        lo, hi = hi, lo
    den = d << prec
    return (_mpf_round(lo, den, prec, round_floor),
            _mpf_round(hi, den, prec, round_ceiling))


def _quad_sign(u: int, v: int, r: int) -> int:
    """The sign of u + v*sqrt(r): of u*u - r*v*v when u and v differ in sign."""
    if u >= 0 and v >= 0:
        return int(u > 0 or v > 0)
    if u <= 0 and v <= 0:
        return -1
    t = u * u - r * v * v
    s = (t > 0) - (t < 0)
    return s if u > 0 else -s


def _quadratic(a: int, b: int, d: int, r: int) -> "Real":
    """(a + b*sqrt(r))/d (d != 0) in canonical form; rational when b = 0."""
    if not b:
        if d < 0:
            a, d = -a, -d
        g = math.gcd(a, d)
        return Real(_frac(a // g, d // g))
    if d < 0:
        a, b, d = -a, -b, -d
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return Real(None, None, (a, b, d, r))


def _common(x: "Real", y: "Real"):
    """x's and y's (a, b, d, r) over one radicand, for x or y quadratic:
    None unless the other is rational (of every field) or shares it."""
    xq, yq = x._quad, y._quad
    if xq is None:
        q = x._rat
        if q is None:
            return None
        xq = (q._numerator, 0, q._denominator, yq[3])
    elif yq is None:
        q = y._rat
        if q is None:
            return None
        yq = (q._numerator, 0, q._denominator, xq[3])
    elif xq[3] != yq[3]:
        return None
    return xq, yq


def _quad_pow(a: int, b: int, d: int, r: int, n: int) -> "Real":
    """((a + b*sqrt(r))/d)**n for n >= 0, by squaring."""
    x, y, den = 1, 0, d**n
    while n:
        if n & 1:
            x, y = x * a + r * y * b, x * b + y * a
        n >>= 1
        if n:
            a, b = a * a + r * b * b, 2 * a * b
    return _quadratic(x, y, den, r)


def _quad_mid(quad) -> tuple[int, int]:
    """The exact midpoint n/m, m > 0, of the quadratic's bracket at the print
    precision, so an approximation does not depend on the working precision."""
    a, b, d, r = quad
    p = _DEFAULT_BITS
    return (a << (p + 1)) + b * (2 * _sqrt_floor(r, p) + 1), d << (p + 1)


def _quad_coords(x: "Real") -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """An exact x's coordinates over the Q-basis (1, sqrt2, sqrt3), or None
    for a tracked x.  1, sqrt2 and sqrt3 are Q-independent, so exact values
    have the same coordinates exactly when they are equal."""
    if x._rat is not None:
        return (x._rat, Fraction(0), Fraction(0))
    if x._quad is None:
        return None
    a, b, d, r = x._quad
    s = Fraction(b, d)
    return (Fraction(a, d), s, Fraction(0)) if r == 2 else (Fraction(a, d), Fraction(0), s)


# An endpoint is an exact rational's Fraction, an exact quadratic's Real
# itself, or a tracked value's raw mpf.

def _ends(x: "Real"):
    """x's lower and upper endpoint: its rational or itself twice, or its two
    mpf."""
    q = x._rat
    if q is not None:
        return (q, q)
    return x._mpi if x._quad is None else (x, x)


def _cmp_quad(x: "Real", y) -> int:
    """_cmp_end of an exact quadratic x = (a + b*sqrt(r))/d and any endpoint
    y, exactly.  An mpf outside x's enclosure decides by ``mpf_cmp``; else y
    is (c + e*sqrt(s))/f in integers (a rational n/m is (n, 0, m, r), an mpf
    its exact dyadic value), and x - y has the sign of u + v*sqrt(r) -
    w*sqrt(s), u = a*f - c*d, v = b*f, w = e*d.  For s != r (so v, w != 0)
    and P = u + v*sqrt(r), that is P's sign when w's differs, else that sign
    times the sign of P*P - s*w*w = (u*u + r*v*v - s*w*w) + 2*u*v*sqrt(r).
    """
    a, b, d, r = x._quad
    if type(y) is tuple:
        lo, hi = x._as_mpi(_prec())
        if mpf_cmp(hi, y) < 0:
            return -1
        if mpf_cmp(lo, y) > 0:
            return 1
        sign, man, exp, _ = y
        c, e, f, s = (-man if sign else man) << max(exp, 0), 0, 1 << max(-exp, 0), r
    elif type(y) is Real:
        c, e, f, s = y._quad
    else:
        c, e, f, s = y.numerator, 0, y.denominator, r
    u, v, w = a * f - c * d, b * f, e * d
    if s == r:
        return _quad_sign(u, v - w, r)
    sp = _quad_sign(u, v, r)
    if sp != (w > 0) - (w < 0):
        return sp
    return sp * _quad_sign(u * u + r * v * v - s * w * w, 2 * u * v, r)


def _cmp_end(a, b) -> int:
    """-1, 0 or +1 as endpoint a <, = or > endpoint b, exactly.

    An mpf a against a rational b is decided, as ``mpf_cmp`` decides two
    mpf, by sign and then by binary magnitude: a lies in [2**(top-1),
    2**top), top = exp + bc, and b in (2**(lb-1), 2**(lb+1)), lb =
    bitlen(num) - bitlen(den), so ranges a binade apart need no product.
    Closer, a mantissa wider than working precision (only Real.shift's exact
    sums make one) is compared above b's integer part f: a - f (one exact
    ``mpf_sub``) against (num - f*den)/den in [0, 1).  Else the answer is the
    sign of man*2**exp*den - num.  Every step is exact, so every path agrees.
    A quadratic endpoint goes to :func:`_cmp_quad`.
    """
    tb = type(b)
    if type(a) is not tuple:
        if type(a) is Real:
            return _cmp_quad(a, b)
        if tb is tuple:
            return -_cmp_end(b, a)
        return -_cmp_quad(b, a) if tb is Real else _cmp_rational(a, b)
    if tb is tuple:
        return mpf_cmp(a, b)
    if tb is Real:
        return -_cmp_quad(b, a)
    if a[3] < 0:
        if a[3] == -1:
            raise ValueError("nan endpoint")
        return -1 if a[0] else 1  # an infinity
    return _cmp_mpf_ratio(a, b.numerator, b.denominator)


def _cmp_mpf_ratio(a, num: int, den: int) -> int:
    """_cmp_end of a finite mpf a and num/den (den > 0)."""
    sign, man, exp, bc = a
    sa = (-1 if sign else 1) if man else 0
    sb = (num > 0) - (num < 0)
    if sa != sb or not sa:
        return (sa > sb) - (sa < sb)
    top, lb = exp + bc, num.bit_length() - den.bit_length()
    if top < lb:
        return -sa
    if top > lb + 1:
        return sa
    if not 0 <= num < den and bc > _prec():  # b's integer part is not 0
        f = num // den
        r = mpf_sub(a, from_int(f))
        if r[0]:
            return -1  # a - f < 0 <= b - f
        if r[2] + r[3] > 0:
            return 1  # a - f >= 1 > b - f
        return _cmp_mpf_ratio(r, num - f * den, den)
    if sign:
        man = -man
    if exp >= 0:
        d = (man << exp) * den - num
    else:
        d = man * den - (num << -exp)
    return (d > 0) - (d < 0)


_END_ORDER = cmp_to_key(_cmp_end)


def _finer(e, p: int, nbits: int) -> bool:
    """Does the mpf e = (sign, man, exp, bc), bits 2**exp up to below
    2**(exp + bc), hold bits below an nbits-bit integer's ulp at p bits?"""
    _, man, exp, bc = e
    return bool(man) and (bc > p or exp + bc <= nbits - p)


def _end_fraction(e) -> Fraction:
    return e if type(e) is not tuple else Fraction(*to_rational(e))


def _mpf_float(h) -> float:
    """The float nearest the finite mpf h."""
    if h[2] + h[3] < -1021:  # to_float rounds twice below 2**-1022
        return approx_float(_end_fraction(h))
    return to_float(h, rnd=round_nearest)


def _round_end(e, prec: int, rnd):
    """An endpoint rounded to prec bits in direction rnd, as an mpf."""
    if type(e) is tuple:
        return mpf_pos(e, prec, rnd)
    if type(e) is Real:
        return e._as_mpi(prec)[rnd is round_ceiling]
    return _mpf_round(e.numerator, e.denominator, prec, rnd)


RealLike = Union["Real", Fraction, int]


class Real:
    """A real number: exact rational, exact quadratic or outward-rounded
    tracked enclosure.

    Immutable.  Construct with :meth:`rational`, :meth:`from_fraction`,
    :meth:`sqrt2`, :meth:`sqrt3`, or arithmetic on existing values.  ``_rat``
    is an exact rational's value and ``_quad`` an exact quadratic's canonical
    (a, b, d, r); ``_mpi`` is a tracked value's enclosure, and an exact value
    keeps ``(prec, enclosure)`` there, its outward rounding at the precision
    last asked of :meth:`_as_mpi`.  Never mutate ``_rat`` or ``_quad``.
    """

    __slots__ = ("_rat", "_mpi", "_quad")

    def __init__(self, rat: Optional[Fraction], mpi=None, quad=None):
        self._rat = rat
        self._mpi = mpi
        self._quad = quad

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(num, den=1) -> "Real":
        # Fraction(num) takes no gcd for an int
        return Real(Fraction(num) if den == 1 else Fraction(num, den))

    @staticmethod
    def from_fraction(q: Fraction) -> "Real":
        return Real(q)

    @staticmethod
    def tracked_from_fraction(q: Fraction) -> "Real":
        return Real(None, _mpi_from_fraction(q, _prec()))

    @staticmethod
    def coerce(x: RealLike) -> "Real":
        if isinstance(x, Real):
            return x
        if isinstance(x, (int, Fraction)):
            return Real(Fraction(x))
        raise TypeError(f"cannot interpret {x!r} as a Real")

    @staticmethod
    def hull(a: "Real", b: "Real") -> "Real":
        """Smallest tracked enclosure containing both values (their exact
        value when both are the same point)."""
        alo, ahi = _ends(a)
        blo, bhi = _ends(b)
        lo = blo if _cmp_end(blo, alo) < 0 else alo
        hi = bhi if _cmp_end(bhi, ahi) > 0 else ahi
        if lo == hi:  # equal ends come from one operand, so are of one kind
            return lo if type(lo) is Real else Real(_end_fraction(lo))
        p = _prec()
        return Real(None, (_round_end(lo, p, round_floor),
                           _round_end(hi, p, round_ceiling)))

    @staticmethod
    def sqrt2() -> "Real":
        return Real(None, None, (0, 1, 1, 2))

    @staticmethod
    def sqrt3() -> "Real":
        return Real(None, None, (0, 1, 1, 3))

    @staticmethod
    def pi() -> "Real":
        p = _prec()
        return Real(None, (_mp.mpf_pi(p, round_floor), _mp.mpf_pi(p, round_ceiling)))

    @staticmethod
    def e() -> "Real":
        p = _prec()
        return Real(None, (_mp.mpf_e(p, round_floor), _mp.mpf_e(p, round_ceiling)))

    # -- inspection ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._rat is not None

    @property
    def kind(self) -> str:
        if self._rat is not None:
            return "exact-rational"
        return "tracked-real" if self._quad is None else "exact-quadratic"

    def as_fraction(self) -> Fraction:
        if self._rat is None:
            raise ValueError(f"{self.kind} value has no exact fraction value")
        return self._rat

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Certified enclosure as exact (dyadic) fractions, lo <= x <= hi.

        For reporting and the exact path; comparisons use the endpoints.
        """
        if self._rat is not None:
            return (self._rat, self._rat)
        lo, hi = self._mpi if self._quad is None else self._as_mpi(_prec())
        if lo[3] < 0 or hi[3] < 0:
            raise ValueError("enclosure has a non-finite endpoint")
        return (Fraction(*to_rational(lo)), Fraction(*to_rational(hi)))

    def floor_ceil(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(floor, ceil) of the lower and of the upper endpoint."""
        q = self._rat
        if q is not None:
            f = q.numerator // q.denominator
            fc = (f, f if q.denominator == 1 else f + 1)
            return (fc, fc)
        if self._quad is not None:
            # floor(a + b*sqrt(r)) is a + s or a - s - 1, s = isqrt(r*b*b)
            # (never a square), and floor(x/d) = floor(floor(x)/d)
            a, b, d, r = self._quad
            s = math.isqrt(r * b * b)
            f = (a + s if b > 0 else a - s - 1) // d
            return ((f, f + 1), (f, f + 1))
        lo, hi = self._mpi
        return ((to_int(lo, round_floor), to_int(lo, round_ceiling)),
                (to_int(hi, round_floor), to_int(hi, round_ceiling)))

    def mid(self) -> Fraction:
        if self._rat is not None:
            return self._rat
        if self._quad is not None:
            return Fraction(*_quad_mid(self._quad))
        return _end_fraction(self._half_sum())

    def mid_float(self) -> float:
        """``approx_float(self.mid())`` from the value's own data: the float
        nearest the exact midpoint, or +-inf beyond float range."""
        q = self._rat
        if q is not None:
            return approx_float(q)
        if self._quad is not None:
            n, m = _quad_mid(self._quad)
            try:
                return n / m  # int true division rounds once, as float(Fraction(n, m))
            except OverflowError:
                return math.inf if n > 0 else -math.inf
        return _mpf_float(self._half_sum())

    def _half_sum(self):
        """A tracked value's exact midpoint: its ends' exact sum, halved."""
        lo, hi = self._mpi
        if lo[3] < 0 or hi[3] < 0:
            raise ValueError("enclosure has a non-finite endpoint")
        sign, man, exp, bc = mpf_add(lo, hi)
        # fzero with a lowered exponent would be no mpf (to_float reads NaN)
        return (sign, man, exp - 1, bc) if man else fzero

    def mid_key(self):
        """Sorts values as their exact midpoints, building no Fraction: the
        midpoint's nearest float, then the midpoint as an exact endpoint."""
        q = self._rat
        if q is None and self._quad is None:
            h = self._half_sum()
            return (_mpf_float(h), _END_ORDER(h))
        return (self.mid_float(), _END_ORDER(self if q is None else q))

    def _as_mpi(self, prec: int):
        q = self._rat
        if q is None and self._quad is None:
            return self._mpi
        cached = self._mpi
        if cached is not None and cached[0] == prec:
            return cached[1]
        if q is not None:
            v = _mpi_from_fraction(q, prec)
        else:
            v = _mpi_from_quad(self._quad, prec)
        self._mpi = (prec, v)
        return v

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: RealLike) -> "Real":
        if type(other) is not Real:
            other = Real.coerce(other)
        if self._rat is not None and other._rat is not None:
            return Real(_rat_add(self._rat, other._rat))
        if self._quad is not None or other._quad is not None:
            qs = _common(self, other)
            if qs is not None:
                (a, b, d, r), (c, e, f, _) = qs
                if d == f:
                    return _quadratic(a + c, b + e, d, r)
                return _quadratic(a * f + c * d, b * f + e * d, d * f, r)
        p = _prec()
        return Real(None, _mp.mpi_add(self._as_mpi(p), other._as_mpi(p), p))

    __radd__ = __add__

    def shift(self, n: int) -> "Real":
        """self + n for an integer n.  A tracked value's ends are summed at
        working precision p, as by ``self + n``, unless an end carries bits
        below n's p-bit ulp (a mantissa wider than p, or a magnitude under
        it): then both are summed exactly while the sums fit the exact
        budget, so a cell offset far below 1 survives its move to cell n."""
        q = self._rat
        if q is not None:  # gcd(num + n*den, den) = gcd(num, den) = 1
            return Real(_frac(q._numerator + n * q._denominator, q._denominator))
        if self._quad is not None:  # gcd(a + n*d, b, d) = gcd(a, b, d) = 1
            a, b, d, r = self._quad
            return Real(None, None, (a + n * d, b, d, r))
        p, nbits, nf = _prec(), n.bit_length(), from_int(n)
        lo, hi = ends = self._mpi
        if (_finer(lo, p, nbits) or _finer(hi, p, nbits)) and all(
                max(nbits, exp + bc) - min(exp, 0) <= _EXACT_POW_BIT_BUDGET
                for _, _, exp, bc in ends):
            return Real(None, (mpf_add(lo, nf), mpf_add(hi, nf)))
        return Real(None, _mp.mpi_add(ends, (nf, nf), p))

    def __sub__(self, other: RealLike) -> "Real":
        if type(other) is not Real:
            other = Real.coerce(other)
        if self._rat is not None and other._rat is not None:
            return Real(_rat_sub(self._rat, other._rat))
        if self._quad is not None or other._quad is not None:
            qs = _common(self, other)
            if qs is not None:
                (a, b, d, r), (c, e, f, _) = qs
                if d == f:
                    return _quadratic(a - c, b - e, d, r)
                return _quadratic(a * f - c * d, b * f - e * d, d * f, r)
        p = _prec()
        return Real(None, _mp.mpi_sub(self._as_mpi(p), other._as_mpi(p), p))

    def __rsub__(self, other: RealLike) -> "Real":
        return Real.coerce(other) - self

    def __mul__(self, other: RealLike) -> "Real":
        if type(other) is not Real:
            other = Real.coerce(other)
        if self._rat is not None and other._rat is not None:
            return Real(_rat_mul(self._rat, other._rat))
        if self._quad is not None or other._quad is not None:
            qs = _common(self, other)
            if qs is not None:
                (a, b, d, r), (c, e, f, _) = qs
                return _quadratic(a * c + r * b * e, a * e + b * c, d * f, r)
        p = _prec()
        return Real(None, _mp.mpi_mul(self._as_mpi(p), other._as_mpi(p), p))

    __rmul__ = __mul__

    def __truediv__(self, other: RealLike) -> "Real":
        if type(other) is not Real:
            other = Real.coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError("division by a value that may be zero")
        if self._rat is not None and other._rat is not None:
            # times the reciprocal, its sign moved to the numerator: the
            # cross gcds of Fraction._div
            n, d = other._rat._numerator, other._rat._denominator
            return Real(_rat_mul(self._rat, _frac(d, n) if n > 0 else _frac(-d, -n)))
        if self._quad is not None or other._quad is not None:
            qs = _common(self, other)
            if qs is not None:
                # times f*(c - e*sqrt(r)) over d*(c*c - r*e*e), nonzero
                (a, b, d, r), (c, e, f, _) = qs
                return _quadratic(f * (a * c - r * b * e), f * (b * c - a * e),
                                  d * (c * c - r * e * e), r)
        p = _prec()
        return Real(None, _mp.mpi_div(self._as_mpi(p), other._as_mpi(p), p))

    def __rtruediv__(self, other: RealLike) -> "Real":
        return Real.coerce(other) / self

    def __neg__(self) -> "Real":
        q = self._rat
        if q is not None:
            return Real(_frac(-q._numerator, q._denominator))
        if self._quad is not None:
            a, b, d, r = self._quad
            return Real(None, None, (-a, -b, d, r))
        return Real(None, _mp.mpi_neg(self._mpi, _prec()))

    def __abs__(self) -> "Real":
        q = self._rat
        if q is not None:
            n = q._numerator
            return self if n >= 0 else Real(_frac(-n, q._denominator))
        if self._quad is not None:
            a, b, _, r = self._quad
            return -self if _quad_sign(a, b, r) < 0 else self
        return Real(None, _mp.mpi_abs(self._mpi, _prec()))

    def pow_int(self, e: int) -> "Real":
        if e < 0 and self.contains_zero():
            raise ZeroDivisionError("negative power of a value that may be zero")
        ceiling = current_precision().ceiling
        budget = _EXACT_POW_CEILINGS * ceiling
        if self._rat is not None:
            cost = abs(e) * max(
                self._rat.numerator.bit_length(),
                self._rat.denominator.bit_length(),
            )
            if cost <= budget:
                return Real(self._rat**e)
        elif self._quad is not None:
            a, b, d, r = (self if e >= 0 else _ONE / self)._quad
            cost = abs(e) * max(a.bit_length(), b.bit_length(), d.bit_length())
            if cost <= budget:
                return _quad_pow(a, b, d, r, abs(e))
        # squaring costs one step per bit of e, so, as pow_real's bound on
        # |e ln x|, an exponent wider than the ceiling is refused
        if e.bit_length() > ceiling:
            raise PrecisionExhausted(f"x ** e with e beyond 2**{ceiling}")
        p = _prec()
        return Real(None, _mp.mpi_pow_int(self._as_mpi(p), e, p))

    def pow_real(self, e: RealLike) -> "Real":
        """``self ** e``: :meth:`pow_int` for an integer e; an exact root of
        a rational base for a rational e; else exp and log, for a base >= 0."""
        if type(e) is not Real:
            e = Real.coerce(e)
        q = e._rat
        if q is not None:
            if q.denominator == 1:
                return self.pow_int(q.numerator)
            if self._rat is not None:
                r = _fraction_root(self._rat, q.denominator)
                if r is not None:
                    return Real(r).pow_int(q.numerator)
        lo, hi = _ends(self)
        lo_sign = _cmp_end(lo, 0)
        if lo_sign < 0:
            raise ValueError("fractional power needs a nonnegative base")
        if lo_sign == 0:
            # the value is 0 or an enclosure touches zero: x**e is increasing
            # for e > 0, so the image is [0, hi**e]
            if e.cmp(_ZERO) != 1:
                raise ZeroDivisionError("0 ** e with e <= 0")
            if _cmp_end(hi, 0) == 0:
                return _ZERO
            top = Real.from_fraction(_end_fraction(hi)).pow_real(e)
            return Real.hull(_ZERO, top)
        p = _prec()
        t = _mp.mpi_mul(_mp.mpi_log(self._as_mpi(p), p), e._as_mpi(p), p)
        # exp's cost grows with its argument's magnitude (about 20 s at
        # 2**(2**20)), so an argument beyond 2**ceiling is refused
        ceiling = current_precision().ceiling
        if any(end[2] + end[3] > ceiling for end in t):
            raise PrecisionExhausted(f"x ** e with |e ln x| beyond 2**{ceiling}")
        return Real(None, _mp.mpi_exp(t, p))

    def double_log(self) -> Optional["Real"]:
        """tau(u) = log2(-log2 u), outward rounded, for u certainly inside
        (0, 1), else None: tau(u**(2**t)) = tau(u) + t."""
        p = _prec()
        u = self._as_mpi(p)
        if mpf_sign(u[0]) <= 0 or mpf_cmp(u[1], _mp.fone) >= 0:
            return None
        ln2 = (_mp.mpf_ln2(p, round_floor), _mp.mpf_ln2(p, round_ceiling))
        minus_log2 = _mp.mpi_div(_mp.mpi_neg(_mp.mpi_log(u, p)), ln2, p)
        return Real(None, _mp.mpi_div(_mp.mpi_log(minus_log2, p), ln2, p))

    # -- comparisons --------------------------------------------------

    def contains_zero(self) -> bool:
        if self._rat is not None:
            return not self._rat
        if self._quad is not None:
            return False
        lo, hi = self._mpi
        return mpf_sign(lo) <= 0 <= mpf_sign(hi)

    def cmp(self, other: RealLike) -> Optional[int]:
        """-1 or +1 when the enclosures certainly do not meet, 0 when both
        are one and the same point (exact or zero-width tracked), and None
        when they overlap undecidably."""
        if type(other) is not Real:
            other = Real.coerce(other)
        if self._rat is not None and other._rat is not None:
            return _cmp_rational(self._rat, other._rat)
        slo, shi = _ends(self)
        olo, ohi = _ends(other)
        c = _cmp_end(shi, olo)
        if c < 0:
            return -1
        d = _cmp_end(slo, ohi)
        if d > 0:
            return 1
        # shi = olo and slo = ohi squeeze all four ends onto one point
        return 0 if c == 0 and d == 0 else None

    def cmp_upper(self, other: "Real") -> int:
        """-1, 0 or +1 as self's upper endpoint is below, at or above other's."""
        return _cmp_end(_ends(self)[1], _ends(other)[1])

    # -- structural equality (used by simplify) -----------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Real):
            if isinstance(other, (int, Fraction)):
                other = Real.coerce(other)
            else:
                return NotImplemented
        if self._rat is not None and other._rat is not None:
            return self._rat == other._rat
        if self._quad is not None or other._quad is not None:
            return self._quad == other._quad
        # two enclosures prove no equality, however alike: equal only as
        # one object
        return self is other

    def __hash__(self):
        if self._rat is not None:
            return hash(self._rat)
        if self._quad is not None:
            return hash(self._quad)
        return hash(self._mpi)

    # -- formatting ----------------------------------------------------

    def __str__(self) -> str:
        q, quad = self._rat, self._quad
        if q is not None and max(abs(q.numerator), q.denominator) < _PRINT_BOUND:
            return str(q)
        if quad is not None and max(abs(quad[0]), abs(quad[1]), quad[2]) < _PRINT_BOUND:
            return _quad_text(*quad)
        # 40 significant digits: 256 bits hold about 77
        if q is not None:
            v = _mpi_from_fraction(q, _DEFAULT_BITS)
        else:
            v = self._mpi if quad is None else _mpi_from_quad(quad, _DEFAULT_BITS)
        mid = _mp.mpi_mid(v, _DEFAULT_BITS)
        delta = _mp.mpi_delta(v, _DEFAULT_BITS)
        text = "%s±%s" % (_mp.to_str(mid, 40), _mp.to_str(delta, 3))
        if q is not None:
            return "%s [exact p/q: %d/%d bits]" % (
                text, q.numerator.bit_length(), q.denominator.bit_length())
        if quad is not None:
            return "%s [exact (a+b*sqrt%d)/d: %d/%d/%d bits]" % (
                text, quad[3], quad[0].bit_length(), quad[1].bit_length(),
                quad[2].bit_length())
        return text

    def __repr__(self) -> str:
        return f"Real({self})"


# the zero that sign tests compare against, and the one quadratics are
# inverted from, built once
_ZERO = Real(Fraction(0))
_ONE = Real(Fraction(1))


def _quad_text(a: int, b: int, d: int, r: int) -> str:
    """(a + b*sqrt(r))/d as p+q*sqrtr with p = a/d and q = b/d, e.g.
    ``1/7+3*sqrt2``, ``1-sqrt3`` or ``-1/2*sqrt2``; p = 0 and |q| = 1 are
    left out."""
    p, q = Fraction(a, d), Fraction(b, d)
    root = f"sqrt{r}" if abs(q) == 1 else f"{abs(q)}*sqrt{r}"
    if not p:
        return root if q > 0 else "-" + root
    return f"{p}{'+' if q > 0 else '-'}{root}"


def approx_float(q: Fraction) -> float:
    """The float nearest q, or +-inf beyond float range.

    Rounding to float is monotone, so the order of the results never
    contradicts the order of the rationals.
    """
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


_CONSTANTS = {
    "sqrt2": Real.sqrt2,
    "sqrt3": Real.sqrt3,
    "pi": Real.pi,
    "e": Real.e,
}


def parse_real(text: str) -> Real:
    """Parse a scalar literal: a named constant (``sqrt2`` and ``sqrt3``
    exact, ``pi`` and ``e`` tracked), or a rational as ``Fraction`` reads it
    (integer, ``p/q``, exact decimal, exponent notation), with an optional
    sign.

    Raises ValueError on anything else.
    """
    t = text.strip().lower()
    name = t.removeprefix("-")
    if name in _CONSTANTS:
        x = _CONSTANTS[name]()
        return x if name == t else -x
    try:
        # Python reads at most 4300 digits into an int; no exponent gets
        # round that bound
        exponent = t.partition("e")[2]
        if exponent and abs(int(exponent)) > 4300:
            raise ValueError
        q = Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad numeric literal {text!r}") from None
    return Real.from_fraction(q)


class Interval:
    """A nonempty bounded interval of the line with per-endpoint openness.

    Both endpoints are :class:`Real` values; the constructor refuses a
    missing one, since the dichotomy only ever needs nonempty bounded
    intervals (a nonempty open set contains one).  There is no empty
    interval: :meth:`intersection_hull` gives None for a certainly empty
    intersection.  Rigor convention: predicates with "certainly" in the
    name return True only when the answer is provable from the endpoint
    enclosures; they never guess.
    """

    __slots__ = ("lo", "hi", "open_lo", "open_hi")

    def __init__(self, lo: Real, hi: Real,
                 open_lo: bool = True, open_hi: bool = True):
        self.lo = lo
        self.hi = hi
        self.open_lo = open_lo
        self.open_hi = open_hi
        if lo is None or hi is None:
            raise ValueError("interval endpoints must be finite")
        c = lo.cmp(hi)
        if c == 1 or (c == 0 and (open_lo or open_hi)):
            raise ValueError(f"degenerate interval endpoints: {lo} .. {hi}")

    @staticmethod
    def open(lo: RealLike, hi: RealLike) -> "Interval":
        return Interval(Real.coerce(lo), Real.coerce(hi), True, True)

    @staticmethod
    def closed(lo: RealLike, hi: RealLike) -> "Interval":
        return Interval(Real.coerce(lo), Real.coerce(hi), False, False)

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi, False, False)

    def diameter(self) -> Real:
        return self.hi - self.lo

    def midpoint(self) -> Real:
        return (self.lo + self.hi) / Real.rational(2)

    # Every endpoint comparison below compares raw endpoints (_cmp_end),
    # through Real.cmp, _precedes or directly: a tie of an upper end with a
    # lower end settles a question only with an open end on either side.

    def certainly_disjoint(self, other: "Interval") -> bool:
        return any(_precedes(a.hi, b.lo, a.open_hi or b.open_lo)
                   for a, b in ((self, other), (other, self)))

    def certainly_intersects(self, other: "Interval") -> bool:
        """Certainly nonempty open-overlap (interiors meet)."""
        return all(a.lo.cmp(b.hi) == -1 for a in (self, other) for b in (self, other))

    def certainly_subset_of(self, other: "Interval") -> bool:
        return (_precedes(other.lo, self.lo, self.open_lo or not other.open_lo)
                and _precedes(self.hi, other.hi, self.open_hi or not other.open_hi))

    def intersection_hull(self, other: "Interval") -> Optional["Interval"]:
        """Outer enclosure of the set intersection (closed hull semantics),
        or None when the intersection is certainly empty."""
        lo = other.lo if _cmp_end(_ends(other.lo)[0], _ends(self.lo)[0]) > 0 else self.lo
        hi = other.hi if _cmp_end(_ends(other.hi)[1], _ends(self.hi)[1]) < 0 else self.hi
        if hi.cmp(lo) == -1:
            return None
        return Interval(lo, hi, False, False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (
            self.open_lo == other.open_lo
            and self.open_hi == other.open_hi
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.open_lo, self.open_hi))

    def __str__(self) -> str:
        lb = "(" if self.open_lo else "["
        rb = ")" if self.open_hi else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"

    __repr__ = __str__


def _precedes(a: Real, b: Real, tie_ok: bool) -> bool:
    """Whether a < b certainly, or, when tie_ok, a <= b certainly: a's upper
    endpoint against b's lower one."""
    c = _cmp_end(_ends(a)[1], _ends(b)[0])
    return c < 0 or (tie_ok and c == 0)
