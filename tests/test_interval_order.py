"""The Interval predicates against a copy of their Fraction-bound
implementations (the reference), over exact, tracked and hull endpoints."""

from fractions import Fraction
from typing import Optional

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lineact.reals import Interval, Real

from helpers import tracked_sqrt2


class ReferenceInterval(Interval):
    """The predicates as they read Fraction bounds before they were built on
    Real.cmp and the touching-ends rule reals._precedes, kept as the
    reference: no interval is empty, the empty
    intersection is None, and a tie of enclosure bounds counts whether or
    not the endpoints are exact."""

    _empty = False

    # Outer bounds as Fractions, for rigorous geometry. None = infinite.
    def _lo_fr(self) -> Optional[Fraction]:
        return None if self.lo is None else self.lo.bounds()[0]

    def _lo_fr_hi(self) -> Optional[Fraction]:
        return None if self.lo is None else self.lo.bounds()[1]

    def _hi_fr(self) -> Optional[Fraction]:
        return None if self.hi is None else self.hi.bounds()[1]

    def _hi_fr_lo(self) -> Optional[Fraction]:
        return None if self.hi is None else self.hi.bounds()[0]

    def certainly_disjoint(self, other: "Interval") -> bool:
        if self._empty or other._empty:
            return True
        # self entirely left of other?
        if self.hi is not None and other.lo is not None:
            shi_hi = self.hi.bounds()[1]
            olo_lo = other.lo.bounds()[0]
            if shi_hi < olo_lo:
                return True
            if shi_hi == olo_lo and (self.open_hi or other.open_lo):
                return True
        if other.hi is not None and self.lo is not None:
            ohi_hi = other.hi.bounds()[1]
            slo_lo = self.lo.bounds()[0]
            if ohi_hi < slo_lo:
                return True
            if ohi_hi == slo_lo and (other.open_hi or self.open_lo):
                return True
        return False

    def certainly_intersects(self, other: "Interval") -> bool:
        """Certainly nonempty open-overlap (interiors meet)."""
        if self._empty or other._empty:
            return False

        def lt(a: Optional[Fraction], b: Optional[Fraction]) -> bool:
            # a < b with None meaning the favorable infinity
            if a is None or b is None:
                return True
            return a < b

        # need sup(lo bounds) < inf(hi bounds), certified
        a1 = self._lo_fr_hi()
        a2 = other._lo_fr_hi()
        b1 = self._hi_fr_lo()
        b2 = other._hi_fr_lo()
        lo_cand = [v for v in (a1, a2) if v is not None]
        hi_cand = [v for v in (b1, b2) if v is not None]
        if not lo_cand and not hi_cand:
            return True
        if not lo_cand:
            return True
        if not hi_cand:
            return True
        return max(lo_cand) < min(hi_cand)

    def certainly_subset_of(self, other: "Interval") -> bool:
        if self._empty:
            return True
        if other._empty:
            return False
        if other.lo is not None:
            if self.lo is None:
                return False
            slo = self.lo.bounds()[0]
            olo = other.lo.bounds()[1]
            if slo < olo:
                return False
            if slo == olo:
                if other.open_lo and not self.open_lo:
                    return False
        if other.hi is not None:
            if self.hi is None:
                return False
            shi = self.hi.bounds()[1]
            ohi = other.hi.bounds()[0]
            if shi > ohi:
                return False
            if shi == ohi:
                if other.open_hi and not self.open_hi:
                    return False
        return True

    def intersection_hull(self, other: "Interval") -> "Interval":
        """Outer enclosure of the set intersection (closed hull semantics)."""
        if self._empty or other._empty:
            return None
        lo_parts = [iv.lo for iv in (self, other) if iv.lo is not None]
        hi_parts = [iv.hi for iv in (self, other) if iv.hi is not None]
        lo = None
        for cand in lo_parts:
            if lo is None or cand.bounds()[0] > lo.bounds()[0]:
                lo = cand
        hi = None
        for cand in hi_parts:
            if hi is None or cand.bounds()[1] < hi.bounds()[1]:
                hi = cand
        if lo is not None and hi is not None:
            if lo.bounds()[0] > hi.bounds()[1]:
                return None
            if lo.bounds()[0] == hi.bounds()[1] and lo.is_rational and hi.is_rational:
                if lo.as_fraction() == hi.as_fraction():
                    return Interval(lo, hi, False, False)
            try:
                return Interval(lo, hi, False, False)
            except ValueError:
                return None
        return Interval(lo, hi, False, False)


def reference(iv: Interval) -> Interval:
    return ReferenceInterval(iv.lo, iv.hi, iv.open_lo, iv.open_hi)


# A small grid of rationals, so that endpoints tie often: exactly, with the
# dyadic bounds of a hull, or with a zero-width tracked enclosure.
GRID = sorted({Fraction(n, d) for d in (1, 2, 4, 3) for n in range(-2 * d, 2 * d + 1)})
fractions = st.sampled_from(GRID)
exact = fractions.map(Real.from_fraction)
tracked_point = fractions.map(Real.tracked_from_fraction)
sqrt2_tracked = st.builds(lambda q, r: Real.from_fraction(q) + tracked_sqrt2() * r,
                          fractions, st.sampled_from([Fraction(0), Fraction(1, 2),
                                                      Fraction(-1), Fraction(1)]))
hulls = st.builds(lambda a, b: Real.hull(Real.from_fraction(a), Real.from_fraction(b)),
                  fractions, fractions)
reals = st.one_of(exact, tracked_point, sqrt2_tracked, hulls)


@st.composite
def intervals(draw):
    lo = draw(reals)
    # an enclosure can be both ends of an interval it cannot order
    hi = lo if draw(st.integers(0, 4)) == 0 else draw(reals)
    try:
        return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    except ValueError:
        assume(False)


@given(intervals(), intervals())
@settings(max_examples=600, deadline=None)
def test_predicates_match_reference(a, b):
    ra, rb = reference(a), reference(b)
    assert a.certainly_disjoint(b) == ra.certainly_disjoint(rb)
    assert a.certainly_intersects(b) == ra.certainly_intersects(rb)
    assert a.certainly_subset_of(b) == ra.certainly_subset_of(rb)
    assert a.intersection_hull(b) == ra.intersection_hull(rb)


def test_hull_endpoint_ties_with_rationals():
    h = Real.hull(Real.rational(1, 2), Real.rational(3, 4))
    assert h.bounds() == (Fraction(1, 2), Fraction(3, 4))
    a, b = Interval.open(0, h), Interval.open(Fraction(3, 4), 1)
    # a's upper end is at most 3/4, b's lower end is 3/4, and b is open there
    assert a.certainly_disjoint(b)
    assert reference(a).certainly_disjoint(reference(b))
    assert a.certainly_subset_of(Interval.closed(0, 1))
