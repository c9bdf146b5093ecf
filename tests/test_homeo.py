import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import mpf_cmp

from lineact import homeo
from lineact.homeo import (
    _cell_branch,
    _piecewise_eval,
    Affine,
    BoundedConjugate,
    Compose,
    Identity,
    Inverse,
    OddPower,
    UnitPowerLadder,
    compose,
    eval_interval,
    evaluate,
    fixed_points,
    inverse,
    power,
    simplify,
    to_text,
)
from lineact.reals import (
    Interval, PrecisionExhausted, Real, current_precision, precision, retry_precision,
)

from helpers import radius, tracked_sqrt2

R = Real.rational


def affine(a, b):
    return Affine(R(*a) if isinstance(a, tuple) else R(a),
                  R(*b) if isinstance(b, tuple) else R(b))


def upper(v):
    return float(abs(v).bounds()[1])


class TestEvaluate:
    def test_unit_translation(self):
        assert evaluate(affine(1, 1), R(0)).as_fraction() == 1

    def test_int_and_fraction_points(self):
        # a point may be any RealLike: 2x + 1 at 3 and at -1/4
        assert evaluate(affine(2, 1), 3) == R(7)
        assert evaluate(affine(2, 1), Fraction(-1, 4)) == R(1, 2)

    def test_ladder_even_cell_exact(self):
        # cell 0 of the k=2 ladder squares its argument
        v = evaluate(UnitPowerLadder(2, 1), R(1, 2))
        assert v.kind == "exact-rational"
        assert v.as_fraction() == Fraction(1, 4)

    @mpmath.workdps(60)
    def test_ladder_odd_cell_oracle(self):
        # independent oracle: (1/2)^(2^(-1/2)) + 1 at 60 digits
        oracle = mpmath.mpf(1) / 2
        oracle = oracle ** (2 ** (-mpmath.mpf(1) / 2)) + 1
        v = evaluate(UnitPowerLadder(2, 1), R(3, 2))
        lo, hi = v.bounds()
        assert float(lo) <= float(oracle) <= float(hi)
        assert str(v).startswith("1.61254732653606592463166821374567317")

    def test_ladder_cell_endpoints_fixed(self):
        for n in (-3, -1, 0, 2, 5):
            assert evaluate(UnitPowerLadder(2, 1), R(n)).as_fraction() == n

    def test_ladder_k1_even_cells_stay_exact(self):
        v = evaluate(UnitPowerLadder(1, 1), R(9, 4))
        assert v.kind == "exact-rational"
        assert v.as_fraction() == Fraction(1, 16) + 2

    def test_odd_power_both_directions(self):
        assert evaluate(OddPower(3), R(-2)).as_fraction() == -8
        assert evaluate(OddPower(3, root=True), R(-8)).as_fraction() == -2
        assert evaluate(OddPower(3, root=True), R(0)).as_fraction() == 0

    def test_bounded_conjugate_identity_outside(self):
        h = BoundedConjugate(affine(1, 1))
        assert evaluate(h, R(2)).as_fraction() == 2
        assert evaluate(h, R(-1)).as_fraction() == -1

    def test_bounded_conjugate_inside_rational_exact(self):
        # psi(psi^-1(x) + 1) for x = 0: psi(1) = 1/2
        h = BoundedConjugate(affine(1, 1))
        assert evaluate(h, R(0)).as_fraction() == Fraction(1, 2)

    def test_affine_requires_positive_slope(self):
        with pytest.raises(ValueError):
            Affine(R(0), R(1))
        with pytest.raises(ValueError):
            Affine(R(-2), R(1))


def reference_eval_ladder(node: UnitPowerLadder, x: Real, fine=None) -> Real:
    """The ladder evaluator as it was before its cell constants were cached,
    and before ``+ n`` kept sub-ulp offsets exact.  Each cell n whose image
    offset has an end finer than n's ulp is appended to ``fine``."""
    def in_cell(n: int, v: Real) -> Real:
        rn = Real.rational(n)
        u = v - rn
        if u.is_rational and u.as_fraction() == 0:
            return rn
        e = R(2).pow_real(node.cell_exponent(n))
        if not u.is_rational and u.cmp(R(0)) != 1 and e.cmp(R(1)) == -1:
            # a tracked enclosure touching the cell edge cannot support a
            # contracting-root exponent: the image enclosure would span the
            # whole cell no matter the precision
            raise PrecisionExhausted(
                f"enclosure touches cell {n} edge under a fractional exponent"
            )
        y = u.pow_real(e)
        if fine is not None and finer_than_ulp(y, n):
            fine.append(n)
        return y + rn

    return _piecewise_eval(x, _cell_branch, in_cell)


def finer_than_ulp(y: Real, n: int) -> bool:
    """Does a tracked y have an end with bits below n's ulp at working
    precision p: a mantissa wider than p, or a magnitude under that ulp?"""
    if y.is_rational or n == 0:
        return False
    p = current_precision().bits
    # an mpf (sign, man, exp, bc) has magnitude in [2**(exp+bc-1), 2**(exp+bc))
    ulp_exp = n.bit_length() - p
    return any(man and (bc > p or exp + bc <= ulp_exp) for _, man, exp, bc in y._mpi)


def ladder_outcome(fn, node, x):
    """The exact value or tracked enclosure of fn(node, x), or its error."""
    try:
        r = fn(node, x)
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc))
    # an exact value's _mpi only caches its rounding
    return ("exact", r._rat) if r.is_rational else ("tracked", r._mpi)


class TestLadderCellCache:
    def points(self, n):
        return [R(n), R(4 * n + 1, 4), R(2 * n + 1, 2), R(8 * n + 7, 8),
                Real.tracked_from_fraction(Fraction(n)),
                R(n) + tracked_sqrt2() / R(3),
                Real.hull(R(n) - tracked_sqrt2() / R(10**30), R(n) + R(1, 10**30))]

    def test_matches_reference_across_precisions(self):
        # bit for bit where no image offset is finer than its cell's ulp;
        # elsewhere the exact shift gives an enclosure inside the reference's
        raised = finer = 0
        for bits in (64, 256, 64):
            with precision(bits):
                for k in (2, 3):
                    for s in (1, -1):
                        node = UnitPowerLadder(k, s)
                        for n in range(-3, 4):
                            for x in self.points(n):
                                fine = []
                                want = ladder_outcome(
                                    lambda h, v: reference_eval_ladder(h, v, fine), node, x)
                                raised += want[0] == "PrecisionExhausted"
                                got = ladder_outcome(evaluate, node, x)
                                where = (bits, k, s, n, x)
                                if not fine:
                                    assert got == want, where
                                    continue
                                finer += 1
                                assert want[0] == got[0] == "tracked", where
                                (lo, hi), (glo, ghi) = want[1], got[1]
                                assert mpf_cmp(lo, glo) <= 0 <= mpf_cmp(hi, ghi), where
        assert raised > 0 and finer > 0

    def test_cell_power_follows_the_ceiling(self):
        # cell -14's power 2**16384 is exact within 8 ceilings of 4096 bits,
        # which pow_int refuses to raise to, and tracked past 8 of 1024,
        # which exp refuses; a cell evaluated under one ceiling is not
        # reused under the other
        node, x = UnitPowerLadder(2, 1), R(-55, 4)
        assert ladder_outcome(evaluate, node, x) == (
            "PrecisionExhausted", "x ** e with e beyond 2**4096")
        with precision(256, 1024):
            assert ladder_outcome(evaluate, node, x) == (
                "PrecisionExhausted", "x ** e with |e ln x| beyond 2**1024")

    def test_exact_edge_ahead_of_out_of_range_cell(self):
        # cell -25 takes the 2**(2**25)-th root, which rounds to the cell's
        # right end; cell -26's power 2**(2**26) is refused, but its left
        # edge is a fixed point
        node = UnitPowerLadder(2, 1)
        y = evaluate(node, R(-25))
        assert y.is_rational and y.as_fraction() == -25
        lo, hi = evaluate(node, R(-49, 2)).bounds()
        assert -25 < lo <= hi <= -24
        y = evaluate(node, R(-26))
        assert y.is_rational and y.as_fraction() == -26
        with pytest.raises(PrecisionExhausted, match="beyond 2\\*\\*4096"):
            evaluate(node, R(-51, 2))


def test_far_offset_survives_integer_shifts():
    # g^3's cell -2 image is -2 + about 1e-733; a 256-bit sum rounded it onto
    # the cell edge, and the contracting root then refused the enclosure
    h = compose(UnitPowerLadder(1, -1), UnitPowerLadder(3, 1), affine(1, -2),
                affine(1, -2), UnitPowerLadder(2, 1), affine(1, 1), affine(1, 1))
    y = retry_precision(lambda: evaluate(h, R(1, 16)))
    with precision(4096):
        z = evaluate(h, R(1, 16))
    lo, hi = y.bounds()
    zlo, zhi = z.bounds()
    assert lo <= zlo <= zhi <= hi and hi - lo < Fraction(1, 10**400)


class TestEvalInterval:
    def test_linear_image(self):
        img = eval_interval(affine(2, 0), Interval.open(0, 1))
        assert img.lo.as_fraction() == 0 and img.hi.as_fraction() == 2
        assert img.open_lo and img.open_hi

    def test_cube_endpoints(self):
        img = eval_interval(OddPower(3), Interval.open(1, 2))
        assert img.lo.as_fraction() == 1 and img.hi.as_fraction() == 8

    def test_ladder_cell0(self):
        img = eval_interval(
            UnitPowerLadder(2, 1),
            Interval.open(Fraction(1, 5), Fraction(3, 10)),
        )
        assert img.lo.as_fraction() == Fraction(1, 25)
        assert img.hi.as_fraction() == Fraction(9, 100)

    def test_missing_endpoint_refused(self):
        with pytest.raises(ValueError):
            Interval(None, R(2))
        with pytest.raises(ValueError):
            Interval(R(0), None)


class TestInverse:
    def test_affine(self):
        inv = inverse(affine(2, 1))
        assert evaluate(inv, R(3)).as_fraction() == 1

    def test_ladder(self):
        inv = inverse(UnitPowerLadder(2, 1))
        assert inv == UnitPowerLadder(2, -1)
        assert evaluate(inv, R(1, 4)).as_fraction() == Fraction(1, 2)

    def test_ladder_deeper_bases_round_trip(self):
        # tracked-path inverses at shallow cells for bases 2 and 3
        for k in (2, 3):
            h = UnitPowerLadder(k, 1)
            hi = inverse(h)
            for num in (-27, -13, 3, 17, 23, 37):
                x = R(num, 10)
                back = evaluate(hi, evaluate(h, x))
                assert upper(back - x) <= 1e-40

    def test_anti_homomorphism(self):
        f, g = affine(2, 0), affine(1, 3)
        lhs = inverse(Compose(f, g))
        rhs = Compose(inverse(g), inverse(f))
        for x in (R(0), R(5, 7), R(-3)):
            assert evaluate(lhs, x).as_fraction() == evaluate(rhs, x).as_fraction()

    def test_double_inverse(self):
        h = OddPower(3)
        assert inverse(inverse(h)) == h


class TestCompose:
    def test_translation_sum(self):
        h = compose(affine(1, 1), affine(1, 2))
        for x in (R(0), R(10), R(-7, 3)):
            assert evaluate(h, x).as_fraction() == x.as_fraction() + 3

    def test_conjugated_translation(self):
        S, T = affine(2, 0), affine(1, 1)
        h = compose(inverse(S), T, S)
        assert evaluate(h, R(0)).as_fraction() == Fraction(1, 2)
        h3 = compose(power(inverse(S), 3), T, power(S, 3))
        assert evaluate(h3, R(0)).as_fraction() == Fraction(1, 8)

    def test_flattens_and_drops_identities(self):
        f, g, h = affine(1, 1), OddPower(3), affine(2, 0)
        nested = Compose(f, Compose(Identity(), g))
        assert compose(nested, Identity(), h) == Compose(f, g, h)
        assert compose(Identity(), f, Identity()) == f
        assert compose() == compose(Identity(), Compose()) == Identity()
        assert power(g, 3) == Compose(g, g, g)
        assert power(g, -2) == Compose(inverse(g), inverse(g))

    def test_inverse_nodes_become_structural(self):
        f, g, h = affine(1, 1), OddPower(3), affine(2, 0)
        assert compose(f, Inverse(Compose(g, h))) == Compose(f, inverse(h), inverse(g))
        assert compose(Inverse(Inverse(g))) == g


class TestSimplify:
    def test_affine_merge(self):
        out = simplify(Compose(affine(2, 0), affine(3, 1)))
        assert out == affine(6, 2)

    def test_double_inverse_collapse(self):
        out = simplify(Inverse(Inverse(OddPower(3))))
        assert out == OddPower(3)

    def test_cancellation(self):
        h = affine(5, 2)
        assert simplify(Compose(h, Inverse(h))) == Identity()
        assert simplify(Compose(Inverse(h), h)) == Identity()

    def test_ladder_inverse_pair(self):
        out = simplify(Compose(UnitPowerLadder(2, 1), UnitPowerLadder(2, -1)))
        assert out == Identity()

    def test_soundness_on_samples(self):
        rng = random.Random(7)
        for _ in range(50):
            h = _random_tree(rng, 4)
            hs = simplify(h)
            for _ in range(4):
                x = R(rng.randint(-800, 800), 100)
                d = evaluate(h, x) - evaluate(hs, x)
                assert upper(d) <= 1e-60

    def test_identity_affine(self):
        assert simplify(affine(1, 0)) == Identity()

    def test_bounded_conjugates_merge(self):
        # psi^-1 o psi cancels on (-1, 1), and both sides fix the rest
        f, g = affine(2, (1, 3)), affine((1, 2), -1)
        assert simplify(Compose(BoundedConjugate(f), BoundedConjugate(g))) \
            == BoundedConjugate(affine(1, (-5, 3)))
        assert simplify(Compose(BoundedConjugate(f), BoundedConjugate(inverse(f)))) \
            == Identity()

    @pytest.mark.parametrize("f, g", [
        (affine(2, (1, 3)), affine((1, 2), -1)),
        (OddPower(3), affine(1, (1, 2))),
        (affine(3, 0), OddPower(5)),
    ])
    def test_merged_and_unmerged_conjugates_agree_exactly(self, f, g):
        unmerged = Compose(BoundedConjugate(f), BoundedConjugate(g))
        merged = simplify(unmerged)
        assert isinstance(merged, BoundedConjugate)
        for n in range(-15, 16):
            x = R(n, 7)
            a, b = evaluate(unmerged, x), evaluate(merged, x)
            assert a.is_rational and b.is_rational and a.as_fraction() == b.as_fraction()


# 45 rational windows (every pair of ten ends inside (-4.5, 4.5)), an exact
# quadratic end and two tracked ends
_ENDS = [Fraction(-22, 5), -4, Fraction(-7, 2), -2, Fraction(-1, 3), 0,
         Fraction(1, 2), 1, 3, Fraction(22, 5)]
_WINDOWS = [(a, b) for i, a in enumerate(_ENDS) for b in _ENDS[i + 1:]] \
    + [(Real.sqrt2(), 5), (-Real.pi(), Real.e())]


class TestFixedPoints:
    def test_translation_has_none(self):
        # a translation by 10^-13 moves every point, however little
        for h, window in ((affine(1, 1), Interval.closed(-10, 10)),
                          (affine(1, (1, 10**13)), Interval.open(-1, 1))):
            rep = fixed_points(h, window, 64)
            assert rep.fixed_points == []
            assert rep.complement_intervals == [window]

    def test_cube_roots_of_identity(self):
        rep = fixed_points(OddPower(3), Interval.closed(-2, 2), 101)
        # exact rationals, found where the grid brackets each sign change
        assert rep.fixed_points == [R(-1), R(0), R(1)]
        assert all(p.is_rational for p in rep.fixed_points)

    def test_ladder_cell_endpoints(self):
        rep = fixed_points(
            UnitPowerLadder(2, 1),
            Interval.closed(Fraction(-5, 2), Fraction(5, 2)),
            301,
        )
        assert rep.fixed_points == [R(n) for n in range(-2, 3)]
        assert all(p.is_rational for p in rep.fixed_points)
        # complements are ordered and pairwise disjoint
        comps = rep.complement_intervals
        for a, b in zip(comps, comps[1:]):
            assert a.hi.mid() <= b.lo.mid()

    def test_irrational_fixed_point_is_a_certain_bracket(self):
        # x^3 + 1/2 = x has one real root, about -1.1915, and it is irrational
        h = compose(affine(1, (1, 2)), OddPower(3))
        rep = fixed_points(h, Interval.open(-3, 3), 64)
        assert len(rep.fixed_points) == 1
        p = rep.fixed_points[0]
        assert not p.is_rational
        signs = [(evaluate(h, R(x)) - R(x)).cmp(R(0)) for x in p.bounds()]
        assert signs == [-1, 1]
        assert [str(c) for c in rep.complement_intervals] == [f"(-3, {p})", f"({p}, 3)"]

    def test_undecided_midpoint_ends_the_bisection(self):
        # x pi/3 + 1/7 = x at (1/7)/(1 - pi/3), about -3.0268: bisecting
        # toward it reaches midpoints whose residual sign the tracked slope
        # leaves undecided, and the bracket there is the report's enclosure
        rep = fixed_points(Affine(Real.pi() / 3, Fraction(1, 7)), Interval.open(-4, 0), 4)
        [p] = rep.fixed_points
        with mpmath.workdps(100):
            x = mpmath.mpf(1) / 7 / (1 - mpmath.pi / 3)
            lo, hi = (mpmath.mpf(e.numerator) / e.denominator for e in p.bounds())
            assert lo <= x <= hi

    def test_degenerate_window(self):
        with pytest.raises(ValueError, match="single point"):
            fixed_points(affine(1, 1), Interval.closed(1, 1), 16)

    @pytest.mark.parametrize("b, fixed", [((-1, 4), Fraction(1, 4)),
                                          ((-1, 3), Fraction(1, 3))])
    def test_off_grid_fixed_point_is_exact(self, b, fixed):
        # 2x + b fixes -b alone, between the grid points 0 and 1: 1/4 is a
        # bisection midpoint, 1/3 none, but the simplest rational of the
        # last bracket
        rep = fixed_points(affine(2, b), Interval.open(0, 1), 2)
        assert [(p.is_rational, p.as_fraction()) for p in rep.fixed_points] \
            == [(True, fixed)]

    def test_undecided_sign_escalates(self, monkeypatch):
        # the cube root of 1 + 2**-300 lies below it by about 2**-300 * 2/3,
        # which 256 bits cannot resolve: that pass answers None, and the
        # 512-bit pass finds the exact fixed point 1 between the grid points
        tried = []
        one_pass = homeo._fixed_points_pass

        def spy(*args):
            out = one_pass(*args)
            tried.append((current_precision().bits, out is None))
            return out

        monkeypatch.setattr(homeo, "_fixed_points_pass", spy)
        window = Interval.open(Fraction(1, 2), 1 + Fraction(1, 2**300))
        rep = fixed_points(OddPower(3, root=True), window, 2)
        assert tried == [(256, True), (512, False)]
        assert [(p.is_rational, p.as_fraction()) for p in rep.fixed_points] == [(True, 1)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, -1, Fraction(1, 2)])
    def test_ladder_report_is_the_grid_report(self, k, s):
        # wherever the grid spacing is under 1, the grid brackets each
        # integer alone, and its report is the one read from the node
        h = UnitPowerLadder(k, s)
        for lo, hi in _WINDOWS:
            window = Interval.open(lo, hi)
            for grid_n in (256, 512):
                assert fixed_points(h, window, grid_n) \
                    == homeo._fixed_points_pass(h, window, grid_n), (lo, hi, grid_n)

    @pytest.fixture
    def scanned(self, monkeypatch):
        """The maps handed to the grid pass, in call order."""
        maps = []
        one_pass = homeo._fixed_points_pass

        def spy(h, window, grid_n):
            maps.append(h)
            return one_pass(h, window, grid_n)

        monkeypatch.setattr(homeo, "_fixed_points_pass", spy)
        return maps

    def test_ladder_node_is_not_scanned(self, scanned):
        window = Interval.open(-3, Real.pi())
        for h in (UnitPowerLadder(1, 1), UnitPowerLadder(3, Fraction(-2, 3))):
            assert fixed_points(h, window, 512).fixed_points == [R(n) for n in range(-3, 4)]
        assert scanned == []
        fixed_points(OddPower(3), window, 16)
        assert scanned == [OddPower(3)]

    def test_ladder_over_more_integers_than_grid_points_is_scanned(self, scanned):
        # the report stays within the grid's size: (-4, 4) holds 9 integers,
        # read from the node on 9 grid points and scanned on 8
        h = UnitPowerLadder(1, 1)
        assert len(fixed_points(h, Interval.open(-4, 4), 9).fixed_points) == 9
        assert scanned == []
        assert len(fixed_points(h, Interval.open(-4, 4), 8).fixed_points) < 9
        assert scanned == [h]
        # two billion integers cost no more than the grid
        rep = fixed_points(h, Interval.open(-10**9, 10**9), 512)
        assert scanned == [h, h]
        assert len(rep.fixed_points) < 512

    def test_tracked_window_ends_holding_integers(self):
        # the range runs between the inner bounds of the window's ends, so
        # an integer inside an end's enclosure is not listed
        window = Interval.open(Real.hull(R(-1, 100), R(1, 100)),
                               Real.hull(R(299, 100), R(301, 100)))
        h = UnitPowerLadder(2, 1)
        rep = fixed_points(h, window, 64)
        assert rep.fixed_points == [R(1), R(2)]
        assert rep == homeo._fixed_points_pass(h, window, 64)

    def test_coarse_grid_misses_no_integer(self):
        # four integers on the four grid points -1/10, 29/30, 61/30 and
        # 31/10: 1 and 2 lie between two neighbours in cells of one sign,
        # so a scan on that grid lists 0 and 3 alone
        h = UnitPowerLadder(1, 1)
        window = Interval.open(Fraction(-1, 10), Fraction(31, 10))
        assert homeo._fixed_points_pass(h, window, 4).fixed_points == [R(0), R(3)]
        rep = fixed_points(h, window, 4)
        assert rep.fixed_points == [R(n) for n in range(4)]
        assert [str(c) for c in rep.complement_intervals] \
            == ["(-1/10, 0)", "(0, 1)", "(1, 2)", "(2, 3)", "(3, 31/10)"]

    def test_far_cells_need_no_power(self):
        # the cells below -24 of base 2 have exponents 2**t with t > 2**24,
        # out of the range a grid point there would need evaluated
        rep = fixed_points(UnitPowerLadder(2, 1), Interval.open(-30, -20), 64)
        assert rep.fixed_points == [R(n) for n in range(-30, -19)]
        assert len(rep.complement_intervals) == 10


class TestIsIdentityOn:
    """A word fixes an interval pointwise only when simplify proves it the
    identity: the proof is global, so no interval enters it."""

    def test_identity(self):
        assert simplify(Identity()) == Identity()

    def test_squaring_cell_is_not(self):
        assert simplify(UnitPowerLadder(1, 1)) != Identity()

    def test_structural_shortcut(self):
        h = Compose(affine(2, 1), Inverse(affine(2, 1)))
        assert simplify(h) == Identity()

    def test_overlapping_translation_is_not(self):
        # translation by 1 moves (0, 2) onto an overlapping interval
        assert simplify(affine(1, 1)) != Identity()

    def test_tiny_translation_is_not(self):
        # within 1e-12 of the identity everywhere, and still not the identity
        tiny = Affine(R(1), R(1, 10**13))
        assert simplify(tiny) != Identity()


class TestText:
    def test_canonical_forms(self):
        assert to_text(Identity()) == "identity"
        assert to_text(affine(1, 1)) == "affine(1,1)"
        assert to_text(OddPower(3)) == "oddpower(3,fwd)"
        assert to_text(OddPower(5, True)) == "oddpower(5,root)"
        assert to_text(UnitPowerLadder(2, 1)) == "unitpowerladder(2,+1)"
        got = to_text(Compose(affine(1, 1), OddPower(3)))
        assert got == "compose(affine(1,1),oddpower(3,fwd))"


# ---------------------------------------------------------------------------
# randomized structure properties (small here; the full-size sweeps live in
# the acceptance suite)

from helpers import random_tree as _random_tree  # noqa: E402


def test_round_trip_sample():
    rng = random.Random(2024)
    done = skipped = 0
    while done < 150:
        h = _random_tree(rng, 5)
        x = R(rng.randint(-8000, 8000), 1000)
        try:
            y = evaluate(h, x)
            back = evaluate(inverse(h), y)
        except Exception:
            skipped += 1
            assert skipped < 80, "too many pathological trees"
            continue
        done += 1
        assert upper(back - x) <= 1e-25

def test_monotonicity_sample():
    rng = random.Random(99)
    done = 0
    while done < 60:
        h = _random_tree(rng, 4)
        a = Fraction(rng.randint(-7000, 6000), 1000)
        b = a + Fraction(rng.randint(100, 2000), 1000)
        try:
            va = evaluate(h, Real.from_fraction(a))
            vb = evaluate(h, Real.from_fraction(b))
        except Exception:
            continue
        done += 1
        assert va.cmp(vb) == -1, f"not increasing on {to_text(h)}"


def test_image_consistency_sample():
    rng = random.Random(5)
    for _ in range(30):
        h = _random_tree(rng, 4)
        lo = Fraction(rng.randint(-500, 400), 100)
        hi = lo + Fraction(rng.randint(10, 300), 100)
        iv = Interval.open(lo, hi)
        try:
            img = eval_interval(h, iv)
        except Exception:
            continue
        for _ in range(10):
            x = lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)
            v = evaluate(h, Real.from_fraction(x))
            assert img.lo.mid() <= v.mid() <= img.hi.mid()


def test_all_affine_rational_pipeline_is_exact():
    rng = random.Random(13)
    for _ in range(100):
        factors = []
        for _ in range(rng.randint(1, 6)):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 7))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            f = Affine(Real.from_fraction(a), Real.from_fraction(b))
            factors.append(f if rng.random() < 0.7 else Inverse(f))
        h = compose(*factors)
        x = R(rng.randint(-100, 100), rng.randint(1, 20))
        v = evaluate(h, x)
        assert v.kind == "exact-rational"
        assert radius(v) == 0
