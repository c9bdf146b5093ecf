"""Expression trees for orientation-preserving homeomorphisms of the line.

An expression denotes a strictly increasing bijection of the reals, built
from a handful of primitive nodes plus composition and inversion.  A
composite is one flat :class:`Compose` node over its factors, built by
:func:`compose`, which splices nested composites in and drops identities;
it evaluates by one loop over its factors, last factor first.  Points
evaluate through :func:`evaluate`; bounded intervals map through
:func:`eval_interval` using monotonicity (endpoint images).  Inverses are
structural: every node type knows its own inverse expression (a composite
inverts by reversing its factors), so no numeric root-finding is ever
needed.

Exactness policy: an evaluation path stays in exact rationals whenever each
node is rational-closed at the input (affine maps, integer powers, perfect
roots); anything else returns a tracked enclosure with a rigorous outward
error bound.  An exact point inside one extension cell whose cell map is
exact piecewise projective (identities, exact affine maps, bounded conjugates
and composites of one radicand) takes one integer Moebius step on its piece
of the compiled map, which gives the tree's canonical value; tracked points,
enclosures across cells and every other cell map walk the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Optional, Union

from .reals import (
    _ONE,
    _ZERO,
    _quad_sign,
    _quadratic,
    Interval,
    PrecisionExhausted,
    Real,
    RealLike,
    current_precision,
    retry_precision,
)
from .words import GroupElement, multiply

__all__ = [
    "HomeoExpr",
    "Identity",
    "Affine",
    "OddPower",
    "UnitPowerLadder",
    "BoundedConjugate",
    "ExtensionCell",
    "Compose",
    "Inverse",
    "HorizonExceeded",
    "evaluate",
    "eval_interval",
    "inverse",
    "compose",
    "power",
    "simplify",
    "FixReport",
    "fixed_points",
    "to_text",
]


class HorizonExceeded(ValueError):
    """Evaluation requested in a cell beyond the configured horizon."""


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Affine:
    """x -> a*x + b with a > 0."""

    a: Real
    b: Real
    # d when the map is the integer translation T_d: x -> x + d, else None
    translation: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", Real.coerce(self.a))
        object.__setattr__(self, "b", Real.coerce(self.b))
        if self.a.cmp(_ZERO) != 1:
            raise ValueError("affine coefficient a must be certainly positive")
        d = self.b.as_fraction() if self.a == 1 and self.b.is_rational else None
        object.__setattr__(self, "translation",
                           d.numerator if d is not None and d.denominator == 1 else None)


@dataclass(frozen=True)
class OddPower:
    """x -> x**p (forward) or the sign-preserving real p-th root."""

    p: int
    root: bool = False

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError("exponent must be an odd integer >= 3")


@dataclass(frozen=True)
class UnitPowerLadder:
    """Cellwise power map: on [n, n+1), x -> (x-n)**(2**(s*(-1)^n*k^-n)) + n.

    k = 1 alternates squaring and square root across cells, which keeps
    rational inputs exact on even cells.  s = +-1 is a generator or its
    inverse; any nonzero rational s is the s-th power of the s = 1 map.
    """

    k: int
    s: Union[int, Fraction] = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("ladder base k must be a positive integer")
        if not isinstance(self.s, (int, Fraction)) or self.s == 0:
            raise ValueError("ladder factor s must be a nonzero rational")

    def cell_exponent(self, n: int) -> Fraction:
        sign = -1 if n % 2 else 1
        return Fraction(self.s * sign) * (Fraction(self.k) ** (-n))


@dataclass(frozen=True)
class BoundedConjugate:
    """psi o inner o psi^-1 on (-1,1), identity outside, psi(x)=x/(1+|x|)."""

    inner: "HomeoExpr"


@dataclass(frozen=True)
class ExtensionCell:
    """Cellwise map from an extension spec: on [j, j+1], conjugated inner word.

    ``spec`` is an ``actions.ExtensionSpec``, which compares by identity; its
    ``horizon`` bounds the cells, ``cell_expr(j, word)`` is cell j's map and
    ``cell_map(j, word)`` that map with its pieces (``_cell_pieces``).
    """

    spec: object
    word: GroupElement


@dataclass(frozen=True, init=False)
class Compose:
    """maps[0] o maps[1] o ... o maps[-1]: the last map acts first."""

    maps: tuple["HomeoExpr", ...]

    def __init__(self, *maps: "HomeoExpr"):
        object.__setattr__(self, "maps", maps)


@dataclass(frozen=True)
class Inverse:
    child: "HomeoExpr"


HomeoExpr = Union[
    Identity, Affine, OddPower, UnitPowerLadder, BoundedConjugate,
    ExtensionCell, Compose, Inverse,
]


# ---------------------------------------------------------------------------
# evaluation


def _piecewise_eval(x: Real, branch_of: Callable[[int, int], int],
                    eval_branch: Callable[[int, Real], Real]) -> Real:
    """Evaluate an increasing, continuous, piecewise-defined map.

    ``branch_of(floor, ceil)`` names the branch of a point, so a tracked
    point is placed from its mpf endpoints; the endpoints become fractions
    only when the enclosure of x straddles branch boundaries.  Then each
    endpoint is routed through its own branch and the results hulled;
    continuity makes the hull a valid enclosure.
    """
    lo, hi = x.floor_ceil()
    blo, bhi = branch_of(*lo), branch_of(*hi)
    if blo == bhi:
        return eval_branch(blo, x)
    if bhi - blo > 64:
        raise PrecisionExhausted("enclosure spans too many cells")
    xlo, xhi = x.bounds()
    lo_v = eval_branch(blo, Real.from_fraction(xlo))
    hi_v = eval_branch(bhi, Real.from_fraction(xhi))
    return Real.hull(lo_v, hi_v)


def _psi(x: Real) -> Real:
    return x / (_ONE + abs(x))


def _psi_inv(y: Real) -> Real:
    return y / (_ONE - abs(y))


# The branch functions: cell index for the ladder and extension cells, the
# side of 0 for odd roots, and (-inf,-1], (-1,1), [1,inf) for the conjugate.

def _cell_branch(floor: int, ceil: int) -> int:
    return floor


def _sign_branch(floor: int, ceil: int) -> int:
    return 0 if floor >= 0 else -1


def _conjugate_branch(floor: int, ceil: int) -> int:
    if ceil <= -1:
        return -1
    if floor >= 1:
        return 1
    return 0


# Ladder cells whose constants stay cached, over all ladders and precisions;
# bounded, as a far cell's exact power can have 8 precision ceilings of bits.
_LADDER_CELL_CACHE = 1024


@lru_cache(maxsize=_LADDER_CELL_CACHE)
def _ladder_cell(node: UnitPowerLadder, n: int, bits: int,
                 ceiling: int) -> tuple[Real, Real, bool]:
    """Cell n's offset n, power e = 2**t for t = cell_exponent(n) under the
    precision (bits, ceiling), and whether t < 0 (a contracting root)."""
    t = node.cell_exponent(n)
    return Real.rational(n), Real.rational(2).pow_real(t), t < 0


def _eval_ladder(node: UnitPowerLadder, x: Real) -> Real:
    def in_cell(n: int, v: Real) -> Real:
        if v.is_rational and v.as_fraction() == n:
            # the cell edge is fixed, even where cell n's power is refused
            return v
        ctx = current_precision()
        rn, e, contracting = _ladder_cell(node, n, ctx.bits, ctx.ceiling)
        u = v - rn
        if contracting and not u.is_rational and u.cmp(_ZERO) != 1:
            # a tracked enclosure touching the cell edge cannot support a
            # contracting-root exponent: the image enclosure would span the
            # whole cell no matter the precision
            raise PrecisionExhausted(
                f"enclosure touches cell {n} edge under a fractional exponent"
            )
        return u.pow_real(e).shift(n)

    return _piecewise_eval(x, _cell_branch, in_cell)


def _eval_bounded_conjugate(node: BoundedConjugate, x: Real) -> Real:
    def in_branch(b: int, v: Real) -> Real:
        if b != 0:
            return v
        return _psi(evaluate(node.inner, _psi_inv(v)))

    return _piecewise_eval(x, _conjugate_branch, in_branch)


def _eval_extension_cell(node: ExtensionCell, x: Real) -> Real:
    spec = node.spec

    def branch(floor: int, ceil: int) -> int:
        if abs(floor) > spec.horizon:
            raise HorizonExceeded(
                f"cell {floor} beyond the configured horizon {spec.horizon}"
            )
        return floor

    def in_cell(j: int, v: Real) -> Real:
        inner, pieces = spec.cell_map(j, node.word)
        if v is x and pieces is not None:  # a point within one cell
            y = _eval_pieces(pieces, x, j)
            if y is not None:
                return y
        return evaluate(inner, v - Real.rational(j)).shift(j)

    return _piecewise_eval(x, branch, in_cell)


def _eval_affine(h: Affine, x: Real) -> Real:
    d = h.translation
    return h.a * x + h.b if d is None else x.shift(d)


def _eval_odd_power(node: OddPower, x: Real) -> Real:
    if not node.root:
        return x.pow_int(node.p)

    def in_branch(b: int, v: Real) -> Real:
        if b == -1:
            return -((-v).pow_real(Fraction(1, node.p)))
        return v.pow_real(Fraction(1, node.p))

    return _piecewise_eval(x, _sign_branch, in_branch)


# Recursion goes through the module name ``evaluate``, so a wrapper bound to
# that name sees every node.

def _eval_compose(h: Compose, x: Real) -> Real:
    for m in reversed(h.maps):
        x = evaluate(m, x)
    return x


def _eval_inverse(h: Inverse, x: Real) -> Real:
    return evaluate(inverse(h.child), x)


_EVALUATORS = {
    Identity: lambda h, x: x,
    Affine: _eval_affine,
    OddPower: _eval_odd_power,
    UnitPowerLadder: _eval_ladder,
    BoundedConjugate: _eval_bounded_conjugate,
    ExtensionCell: _eval_extension_cell,
    Compose: _eval_compose,
    Inverse: _eval_inverse,
}


def evaluate(h: HomeoExpr, x: RealLike) -> Real:
    """Apply the denoted homeomorphism to a finite point."""
    if type(x) is not Real:
        x = Real.coerce(x)
    ev = _EVALUATORS.get(type(h))
    if ev is None:
        raise TypeError(f"not a homeomorphism expression: {h!r}")
    return ev(h, x)


def eval_interval(h: HomeoExpr, iv: Interval) -> Interval:
    """Image of a bounded interval: the interval between the endpoint images."""
    return Interval(evaluate(h, iv.lo), evaluate(h, iv.hi), iv.open_lo, iv.open_hi)


# ---------------------------------------------------------------------------
# exact cell maps as projective pieces
#
# psi and exact affine maps are projective on each side of 0 (N. Monod, PNAS
# 110(12), 2013).  A piece (lo, hi, (a, b, c, d)) is x -> (a*x + b)/(c*x + d)
# on (lo, hi), an end None when infinite; neighbours agree on a shared end.

_UNIT = (_ONE, _ZERO, _ZERO, _ONE)
_PSI = [(None, _ZERO, (_ONE, _ZERO, -_ONE, _ONE)), (_ZERO, None, (_ONE, _ZERO, _ONE, _ONE))]
_PSI_INV = [(-_ONE, _ZERO, (_ONE, _ZERO, _ONE, _ONE)),
            (_ZERO, _ONE, (_ONE, _ZERO, -_ONE, _ONE))]


def _after(f: list, g: list) -> list:
    """The pieces of f o g (g's image in f's domain): g's pieces cut where
    they meet f's breaks (none at a pole), each taking f's piece there."""
    out = []
    for lo, hi, (a, b, c, d) in g:
        ends = [lo]
        for _, y, _ in f[:-1]:
            den = a - c * y
            x = (d * y - b) / den if den != _ZERO else None
            if x is not None and (lo is None or lo.cmp(x) < 0) and (hi is None or x.cmp(hi) < 0):
                ends.append(x)
        ends.append(hi)
        for l, h in zip(ends, ends[1:]):
            t = (h - _ONE if h is not None else _ZERO) if l is None else \
                (l + _ONE if h is None else (l + h) / 2)
            y = (a * t + b) / (c * t + d)
            fa, fb, fc, fd = next(m for _, top, m in f if top is None or y.cmp(top) < 0)
            out.append((l, h, (fa * a + fb * c, fa * b + fb * d,
                               fc * a + fd * c, fc * b + fd * d)))
    return out


def _projective(h: HomeoExpr, radicands: set) -> Optional[list]:
    """h's pieces over the line; None for another node, a tracked
    coefficient or a second radicand (seen at a leaf, before any product)."""
    if isinstance(h, Identity):
        return [(None, None, _UNIT)]
    if isinstance(h, Affine):
        radicands.update(v._quad[3] for v in (h.a, h.b) if v._quad is not None)
        exact = all(v._rat is not None or v._quad is not None for v in (h.a, h.b))
        return [(None, None, (h.a, h.b, _ZERO, _ONE))] if exact and len(radicands) < 2 else None
    if isinstance(h, BoundedConjugate):
        f = _projective(h.inner, radicands)
        return None if f is None else [(None, -_ONE, _UNIT), *_after(
            _PSI, _after(f, _PSI_INV)), (_ONE, None, _UNIT)]
    if isinstance(h, Compose):
        parts = [_projective(m, radicands) for m in h.maps]
        return None if None in parts else reduce(_after, parts)
    return None


def _coords(v: Real) -> tuple[int, int, int]:
    q = v._rat
    return (q._numerator, 0, q._denominator) if q is not None else v._quad[:3]


def _cell_pieces(h: HomeoExpr) -> Optional[tuple]:
    """Cell map h on [0, 1) in integers, or None: (r, breaks, matrices), r = 0
    for rational pieces, a break (p, q, s) for (p + q*sqrt r)/s, a piece's
    (a, b, c, d) as pairs (u, v) for u + v*sqrt r, denominators cleared."""
    radicands: set = set()
    pieces = _projective(h, radicands)
    if pieces is None:
        return None
    kept = [(lo, m) for lo, hi, m in pieces
            if (hi is None or hi.cmp(_ZERO) > 0) and (lo is None or lo.cmp(_ONE) < 0)]
    mats = []
    for _, m in kept:
        cs = [_coords(v) for v in m]
        den = math.lcm(*(d for _, _, d in cs))
        ints = [k * (den // d) for u, v, d in cs for k in (u, v)]
        g = math.gcd(*ints)
        mats.append(tuple(k // g for k in ints))
    return (radicands.pop() if radicands else 0, [_coords(lo) for lo, _ in kept[1:]], mats)


def _eval_pieces(pieces: tuple, x: Real, j: int) -> Optional[Real]:
    """Cell j's map at an exact x in the cell by one integer Moebius step, the
    tree's value (one canonical form); None for a tracked x or another r."""
    r, breaks, mats = pieces
    q, quad = x._rat, x._quad
    if q is not None:
        a, b, d = q._numerator, 0, q._denominator
    elif quad is not None and quad[3] == (r or quad[3]):
        a, b, d, r = quad
    else:
        return None
    a -= j * d  # the cell-local coordinate
    m = mats[-1]
    for i, (p, e, f) in enumerate(breaks):
        if _quad_sign(a * f - p * d, b * f - e * d, r) < 0:
            m = mats[i]
            break
    a0, a1, b0, b1, c0, c1, d0, d1 = m
    n0, n1 = a0 * a + r * a1 * b + b0 * d, a0 * b + a1 * a + b1 * d
    m0, m1 = c0 * a + r * c1 * b + d0 * d, c0 * b + c1 * a + d1 * d
    if m1:  # times the conjugate m0 - m1*sqrt r
        n0, n1, m0 = n0 * m0 - r * n1 * m1, n1 * m0 - n0 * m1, m0 * m0 - r * m1 * m1
    return _quadratic(n0 + j * m0, n1, m0, r)


# ---------------------------------------------------------------------------
# structure


def inverse(h: HomeoExpr) -> HomeoExpr:
    if isinstance(h, Identity):
        return h
    if isinstance(h, Affine):
        return Affine(_ONE / h.a, -h.b / h.a)
    if isinstance(h, OddPower):
        return OddPower(h.p, not h.root)
    if isinstance(h, UnitPowerLadder):
        return UnitPowerLadder(h.k, -h.s)
    if isinstance(h, BoundedConjugate):
        return BoundedConjugate(inverse(h.inner))
    if isinstance(h, ExtensionCell):
        return ExtensionCell(h.spec, h.word.inverse())
    if isinstance(h, Compose):
        return Compose(*[inverse(m) for m in reversed(h.maps)])
    if isinstance(h, Inverse):
        return h.child
    raise TypeError(f"not a homeomorphism expression: {h!r}")


def _factors(h: HomeoExpr) -> list[HomeoExpr]:
    if isinstance(h, Compose):
        return [f for m in h.maps for f in _factors(m)]
    if isinstance(h, Inverse):
        return _factors(inverse(h.child))
    return [] if isinstance(h, Identity) else [h]


def compose(*hs: HomeoExpr) -> HomeoExpr:
    """hs[0] o hs[1] o ... (the last acts first), as one flat node.

    Composites are spliced in, inverse nodes made structural and identities
    dropped; no factor left gives the identity, one gives that factor.
    """
    maps = [f for h in hs for f in _factors(h)]
    if not maps:
        return Identity()
    return maps[0] if len(maps) == 1 else Compose(*maps)


def power(h: HomeoExpr, n: int) -> HomeoExpr:
    return compose(*[h if n >= 0 else inverse(h)] * abs(n))


def _cell_maps(h: ExtensionCell) -> list[HomeoExpr]:
    """h's maps of cells -horizon .. horizon; evaluation refuses the rest."""
    n = h.spec.horizon
    return [h.spec.cell_expr(j, h.word) for j in range(-n, n + 1)]


def _simplify_leaf(h: HomeoExpr) -> HomeoExpr:
    if isinstance(h, BoundedConjugate):
        inner = simplify(h.inner)
        if isinstance(inner, Identity):
            return Identity()
        return BoundedConjugate(inner)
    if isinstance(h, ExtensionCell) and all(m == Identity() for m in _cell_maps(h)):
        return Identity()
    if isinstance(h, Affine) and h.a == _ONE and h.b == _ZERO:
        return Identity()
    return h


def _rewrite_pair(cur: HomeoExpr, nxt: HomeoExpr) -> Optional[list[HomeoExpr]]:
    """The factors cur o nxt rewrite to, or None when no rule applies."""
    if isinstance(cur, Affine) and isinstance(nxt, Affine):
        return [_simplify_leaf(Affine(cur.a * nxt.a, cur.a * nxt.b + cur.b))]
    if isinstance(cur, BoundedConjugate) and isinstance(nxt, BoundedConjugate):
        return [_simplify_leaf(BoundedConjugate(compose(cur.inner, nxt.inner)))]
    if isinstance(cur, ExtensionCell) and isinstance(nxt, ExtensionCell) \
            and cur.spec is nxt.spec:
        return [_simplify_leaf(ExtensionCell(cur.spec, multiply(cur.word, nxt.word)))]
    d = cur.translation if isinstance(cur, Affine) else None  # cur is T_d
    if isinstance(nxt, UnitPowerLadder):
        if d is not None:
            return [UnitPowerLadder(nxt.k, nxt.s * Fraction(-nxt.k) ** d), cur]
        if isinstance(cur, UnitPowerLadder) and cur.k == nxt.k:
            s = cur.s + nxt.s
            return [UnitPowerLadder(cur.k, s)] if s else []
    if isinstance(nxt, ExtensionCell) and d is not None:
        maps = _cell_maps(nxt)  # one pair of cells j, j + |d| at least, or vacuous
        if maps[abs(d):] and all(f == g for f, g in zip(maps, maps[abs(d):])):
            return [nxt, cur]
    return [] if nxt == inverse(cur) else None


def simplify(h: HomeoExpr) -> HomeoExpr:
    """Extensionally equal expression with the obvious algebra applied.

    Affine chains merge, double inverses vanish, and structurally detectable
    h o h^-1 pairs cancel.  The cell exponent t of a ladder L of base k obeys
    t(n - d) = (-k)^d t(n), so T_d o L^c = L^(c (-k)^d) o T_d for the integer
    translation T_d: translations move right past ladders and ladders of one
    base merge, L^a o L^b = L^(a+b), which takes any run of both to L^C o T_D,
    the identity exactly when C = D = 0.  BC(f) o BC(g) = BC(f o g), and a cell
    is the identity when each of its cell maps within the horizon simplifies
    to it.  T_d o Cell(w) = Cell(w) o T_d when w's maps of cells j and j + d
    agree within the horizon.  Where both evaluate, input and result agree.

    One stack pass: when the output's top and the next factor rewrite, the
    top is popped and the rewritten factors are read next, so no adjacent
    pair of the result rewrites and simplify is idempotent.
    """
    todo = [_simplify_leaf(x) for x in reversed(_factors(h))]
    out: list[HomeoExpr] = []
    while todo:
        x = todo.pop()
        if isinstance(x, Identity):
            continue
        rewritten = _rewrite_pair(out[-1], x) if out else None
        if rewritten is None:
            out.append(x)
        else:  # the rewritten factors meet the new top
            out.pop()
            todo += reversed(rewritten)
    return compose(*out)


# ---------------------------------------------------------------------------
# fixed points


@dataclass
class FixReport:
    """Fixed-point structure of a map on a finite window.

    ``fixed_points`` are, left to right, exact rationals or enclosures: for
    a ladder node whose window holds at most as many integers as the grid
    has points, those integers, read from the node; else the grid points h
    fixes exactly and one point per sign change of h(x) - x between
    neighbours (an exact rational h fixes, or an enclosure).
    ``complement_intervals`` are the open gaps between consecutive ones and
    the window's ends.  A gap between two adjacent fixed grid points may
    itself be fixed pointwise.
    """

    fixed_points: list[Real]
    complement_intervals: list[Interval]


def fixed_points(h: HomeoExpr, window: Interval, grid_n: int) -> FixReport:
    """Locate Fix(h) inside a window, exactly.

    The grid runs between the window's ends, or their inner dyadic bounds
    when they are tracked, so its points are exact rationals.  A ladder
    node fixes exactly the integers (on a cell, u**(2**t) = u for u in
    (0, 1) only at t = 0, and no cell exponent is 0); when the grid's
    closed range holds at most ``grid_n`` of them, the report lists them
    without evaluating h.  Any other h, and a ladder over more integers, is
    scanned on ``grid_n`` points plus bisection: a grid point is fixed when
    h(x) - x is exactly 0, and only h can leave a sign uncertain; then the
    scan retries at higher precision.  A window that may be a single point,
    and a ``grid_n`` under 2, raise ValueError.
    """
    if window.diameter().cmp(_ZERO) != 1:
        raise ValueError("window may be a single point")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if isinstance(h, UnitPowerLadder):
        lo = math.ceil(window.lo.bounds()[1])
        hi = math.floor(window.hi.bounds()[0])
        if hi - lo < grid_n:
            fixed = [Real.rational(n) for n in range(lo, hi + 1)]
            return FixReport(fixed, _complement(window, fixed))
    return retry_precision(lambda: _fixed_points_pass(h, window, grid_n))


def _residual_sign(h: HomeoExpr, x: Fraction) -> Optional[int]:
    """Sign of h(x) - x, or None when its enclosure straddles 0."""
    q = Real.from_fraction(x)
    return (evaluate(h, q) - q).cmp(_ZERO)


def _fixed_points_pass(h, window, grid_n) -> Optional[FixReport]:
    lo, hi = window.lo.bounds()[1], window.hi.bounds()[0]
    xs = [lo + (hi - lo) * Fraction(j, grid_n - 1) for j in range(grid_n)]
    signs = [_residual_sign(h, x) for x in xs]
    if None in signs:
        return None

    fixed: list[Real] = []
    for j, s in enumerate(signs):
        if s == 0:
            fixed.append(Real.from_fraction(xs[j]))
        elif j + 1 < grid_n and signs[j + 1] == -s:
            fixed.append(_crossing(h, xs[j], xs[j + 1], s))
    return FixReport(fixed, _complement(window, fixed))


def _complement(window: Interval, fixed: list[Real]) -> list[Interval]:
    """The open gaps between consecutive fixed points and the window's ends."""
    ends = [(window.lo, window.open_lo), *((p, True) for p in fixed),
            (window.hi, window.open_hi)]
    return [Interval(a, b, open_a, open_b)
            for (a, open_a), (b, open_b) in zip(ends, ends[1:])
            if a.cmp(b) == -1]


def _crossing(h, a: Fraction, b: Fraction, sign_a: int) -> Real:
    """The fixed point of h in (a, b), where h(x) - x has the certain sign
    sign_a at a and the opposite one at b.

    The simplest rational of the bracket, when h fixes it exactly; else the
    bracket halved on certain signs, at most once per bit of working
    precision and up to the first midpoint whose sign is uncertain, then its
    simplest rational once more, and failing that the bracket's hull.
    """
    q = _simplest_between(a, b)
    if _residual_sign(h, q) == 0:
        return Real.from_fraction(q)
    for _ in range(current_precision().bits):
        m = (a + b) / 2
        s = _residual_sign(h, m)
        if s is None:
            break
        if s == 0:
            return Real.from_fraction(m)
        if s == sign_a:
            a = m
        else:
            b = m
    q = _simplest_between(a, b)
    if _residual_sign(h, q) == 0:
        return Real.from_fraction(q)
    return Real.hull(Real.from_fraction(a), Real.from_fraction(b))


def _simplest_between(x: Fraction, y: Fraction) -> Fraction:
    """The rational of least denominator in the open interval (x, y), x < y,
    and of the integers there the one nearest 0: x and y share continued
    fraction terms up to the first that differs (Graham, Knuth and
    Patashnik, *Concrete Mathematics*, section 4.5)."""
    if x < 0 < y:
        return Fraction(0)
    if y <= 0:
        return -_simplest_between(-y, -x)
    # value = (p0 t + p1) / (q0 t + q1) for t in the current (x, y); y None
    # stands for +infinity
    p0, p1, q0, q1 = 1, 0, 0, 1
    while True:
        n = math.floor(x)
        if y is None or n + 1 < y:
            n += 1
            return Fraction(p0 * n + p1, q0 * n + q1)
        p0, p1, q0, q1 = p0 * n + p1, p0, q0 * n + q1, q0
        x, y = 1 / (y - n), (None if x == n else 1 / (x - n))


# ---------------------------------------------------------------------------
# canonical text form


def to_text(h: HomeoExpr) -> str:
    """Canonical prefix notation, e.g. compose(affine(1,1), oddpower(3,fwd))."""
    if isinstance(h, Identity):
        return "identity"
    if isinstance(h, Affine):
        return f"affine({h.a},{h.b})"
    if isinstance(h, OddPower):
        return f"oddpower({h.p},{'root' if h.root else 'fwd'})"
    if isinstance(h, UnitPowerLadder):
        return f"unitpowerladder({h.k},{'+' if h.s > 0 else ''}{h.s})"
    if isinstance(h, BoundedConjugate):
        return f"boundedconjugate({to_text(h.inner)})"
    if isinstance(h, ExtensionCell):
        return f"extensioncell({h.word})"
    if isinstance(h, Compose):
        return f"compose({','.join(to_text(m) for m in h.maps)})"
    if isinstance(h, Inverse):
        return f"inverse({to_text(h.child)})"
    raise TypeError(f"not a homeomorphism expression: {h!r}")
