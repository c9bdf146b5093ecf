import math
import random
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

from lineact import dynamics
from lineact.actions import (
    Action,
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    realize,
    relations_proved,
)
from lineact.dynamics import (
    ConstructionFailed,
    LadderParams,
    cantor_ladder,
    check_ladder,
    classify_orbit_closure,
    coverage_gap,
    find_wandering_interval,
    orbit,
    transitivity_search,
    wandering_certificate,
)
from lineact.homeo import (
    Affine,
    HorizonExceeded,
    Identity,
    UnitPowerLadder,
    eval_interval,
    evaluate,
    inverse,
)
from lineact.parse import parse_action_file
from lineact.reals import Interval, Real, current_precision
from lineact.words import Presentation, bs_pair, key_rule, parse_word, walk

R = Real.rational


# -- exact arithmetic in Z[sqrt(2)], the oracle ring for density tests ------


def _sqrt2_sign(p: int, q: int) -> int:
    """Sign of p + q*sqrt(2), exactly."""
    if q == 0:
        return (p > 0) - (p < 0)
    if q > 0:
        if p >= 0:
            return 1
        return 1 if p * p < 2 * q * q else (-1 if p * p > 2 * q * q else 0)
    if p <= 0:
        return -1
    return 1 if p * p > 2 * q * q else (-1 if p * p < 2 * q * q else 0)


def _sqrt2_leq(x, y) -> bool:
    return _sqrt2_sign(y[0] - x[0], y[1] - x[1]) >= 0


def exact_gap_of_pairs(pairs, lo=(0, 0), hi=(1, 0)):
    """Largest gap in [lo, hi] for points a+b*sqrt(2), exact arithmetic."""
    import functools

    pts = [p for p in pairs
           if _sqrt2_leq(lo, p) and _sqrt2_leq(p, hi)]
    pts.sort(key=functools.cmp_to_key(
        lambda u, v: _sqrt2_sign(u[0] - v[0], u[1] - v[1])))
    best = (0, 0)
    prev = lo
    for p in pts + [hi]:
        gap = (p[0] - prev[0], p[1] - prev[1])
        if _sqrt2_sign(gap[0] - best[0], gap[1] - best[1]) > 0:
            best = gap
        prev = p
    return best


class TestOrbit:
    def test_integer_translates(self):
        pts = orbit(gallery("ex_1_1"), R(1, 2), 3)
        assert [float(p.value.mid()) for p in pts] == [
            -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5
        ]

    def test_lattice_image(self):
        pts = orbit(gallery("ex_1_2", alpha="sqrt2"), 0, 2)
        assert len(pts) == 13

    def test_dyadic_translates_present(self):
        pts = orbit(gallery("ex_1_3", n=2), 0, 6)
        vals = {p.value.as_fraction() for p in pts if p.value.is_rational}
        assert {Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)} <= vals

    def test_sorted_and_deduplicated(self):
        pts = orbit(gallery("klein_bottle"), R(1, 3), 4)
        mids = [p.value.mid() for p in pts]
        assert mids == sorted(mids)
        assert len(set(mids)) == len(mids)


class TestCoverageGap:
    def test_simple(self):
        g = coverage_gap([R(0), R(1, 2), R(1)], Interval.closed(0, 1))
        assert g.as_fraction() == Fraction(1, 2)

    def test_empty(self):
        g = coverage_gap([], Interval.closed(0, 1))
        assert g.as_fraction() == 1

    def test_exponent_box_oracle_value(self):
        # the box enumeration |m|,|n| <= 5 leaves a largest gap of 3-2*sqrt(2)
        pairs = [(m, n) for m in range(-5, 6) for n in range(-5, 6)]
        gap = exact_gap_of_pairs(pairs)
        assert gap == (3, -2)
        assert abs((3 - 2 * math.sqrt(2)) - 0.172) < 5e-4

    def test_orbit_gap_matches_exact_oracle_same_index_set(self):
        # word-length ball of radius 5 reaches |m|+|n| <= 5
        act = gallery("ex_1_2", alpha="sqrt2")
        pts = orbit(act, 0, 5)
        got = coverage_gap(pts, Interval.closed(0, 1))
        pairs = [(m, n) for m in range(-5, 6) for n in range(-5, 6)
                 if abs(m) + abs(n) <= 5]
        a, b = exact_gap_of_pairs(pairs)
        want = a + b * math.sqrt(2)
        assert abs(float(got.mid()) - want) <= 1e-9

    def test_antitone_in_radius(self):
        act = gallery("ex_1_2", alpha="sqrt2")
        window = Interval.closed(0, 1)
        gaps = []
        for L in (4, 6, 8, 10, 14):
            g = coverage_gap(orbit(act, 0, L), window)
            gaps.append(float(g.mid()))
        assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))


class TestTransitivitySearch:
    def test_translation_lattice_witness(self):
        act = gallery("ex_1_2", alpha="sqrt2")
        w = transitivity_search(
            act,
            Interval.open(0, Fraction(1, 10)),
            Interval.open(Fraction(2, 5), Fraction(9, 20)),
            2,
        )
        assert w is not None
        assert str(w) == "a^-1 b"  # translation by sqrt(2) - 1

    def test_unit_translates_never_reach(self):
        act = gallery("ex_1_1")
        w = transitivity_search(
            act,
            Interval.open(0, Fraction(3, 10)),
            Interval.open(Fraction(1, 2), Fraction(4, 5)),
            12,
        )
        assert w is None

    def test_free_action_reaches_far_target(self):
        act = gallery("free_transitive")
        w = transitivity_search(
            act,
            Interval.open(Fraction(1, 10), Fraction(1, 5)),
            Interval.open(Fraction(21, 2), Fraction(53, 5)),
            12,
        )
        assert w is not None and w.length() <= 12

    def test_identity_witness_when_overlapping(self):
        act = gallery("ex_1_1")
        w = transitivity_search(
            act, Interval.open(0, 1), Interval.open(Fraction(1, 2), 2), 3
        )
        assert w is not None and w.is_identity_word


class TestWanderingCertificate:
    def test_unit_translation_certifies(self):
        cert = wandering_certificate(
            gallery("ex_1_1"), Interval.open(0, Fraction(1, 2)), 10
        )
        assert cert.certified
        assert cert.counts() == {"disjoint": 20}

    def test_radius_below_1_refused(self):
        # no word swept means nothing certified: translation by 1 moves (0, 2)
        # onto an overlapping interval
        for radius in (0, -2):
            with pytest.raises(ValueError, match="radius must be at least 1"):
                wandering_certificate(gallery("ex_1_1"), Interval.open(0, 2), radius)
        assert not wandering_certificate(gallery("ex_1_1"), Interval.open(0, 2), 1).certified

    def test_klein_certifies_with_identity_words_fixed(self):
        act = gallery("klein_bottle")
        cert = wandering_certificate(
            act, Interval.open(Fraction(7, 16), Fraction(9, 16)), 6
        )
        assert cert.certified
        counts = cert.counts()
        assert counts["pointwise-fixed"] > 0 and "violation" not in counts
        # verdicts split exactly along normal forms
        for v in cert.verdicts:
            is_id = bs_pair(v.word) == (0, Fraction(0))
            assert (v.verdict == "pointwise-fixed") == is_id

    def test_transitive_ladder_refuted(self):
        act = gallery("ex_1_4", k=2)
        cert = wandering_certificate(
            act, Interval.open(Fraction(1, 5), Fraction(3, 10)), 6
        )
        assert not cert.certified
        assert cert.witness is not None

    def test_certificate_soundness_cross_check(self):
        # no search witness may exist between disjoint subintervals of a
        # certified wandering interval, at the same radius
        act = gallery("klein_bottle")
        J = Interval.open(Fraction(7, 16), Fraction(9, 16))
        cert = wandering_certificate(act, J, 6)
        assert cert.certified
        rng = random.Random(4)
        for _ in range(5):
            a = Fraction(7, 16) + Fraction(rng.randint(1, 20), 1000)
            b = a + Fraction(rng.randint(5, 15), 1000)
            c = b + Fraction(rng.randint(5, 15), 1000)
            d = c + Fraction(rng.randint(5, 15), 1000)
            assert d < Fraction(9, 16)
            w = transitivity_search(
                act, Interval.open(a, b), Interval.open(c, d), 6
            )
            assert w is None

    def test_horizon_stops_a_word_not_the_sweep(self):
        # the free word a t^3 reaches cell 3, beyond a horizon of 2: it is a
        # violation that names the horizon, and both sweeps finish; with pi,
        # a b = b a is unproved, so every word is judged as its own
        act = extend_action(direct_product_extension(
            conjugate_into_unit(gallery("ex_1_2", alpha="pi")), "t", horizon=2))
        assert not relations_proved(act)
        J = Interval.open(Fraction(1, 10), Fraction(2, 10))
        cert = wandering_certificate(act, J, 4)
        stopped = {str(v.word): v for v in cert.verdicts if "horizon" in v.reason}
        assert stopped["a t^3"].verdict == "violation"
        assert stopped["a t^3"].reason == "cell 3 beyond the configured horizon 2"
        assert not cert.certified
        assert transitivity_search(act, J, Interval.open(5, 6), 4) is None


class TestFindWanderingInterval:
    def test_klein_bottle_construction(self):
        act = gallery("klein_bottle")
        # on a 9-point grid (spacing 1) every grid point is fixed, and the
        # gaps between them are the complement
        for grid_n in (512, 9):
            rep = find_wandering_interval(act, Interval.open(-4, 4), grid_n)
            J = rep.interval
            assert rep.pivot_label == "g"
            assert J.certainly_subset_of(Interval.open(0, 1))
            assert all(c.passed for c in rep.claims)
            cert = wandering_certificate(act, J, 6)
            assert cert.certified

    def test_klein_bottle_drawable_windows(self):
        # all 16 x 16 windows (lo in -4.5 .. -3.0, hi in 3.0 .. 4.5, steps of
        # 0.1) that the cli benchmark draws, each J certified once
        act = gallery("klein_bottle")
        windows = [(Fraction(lo, 10), Fraction(hi, 10))
                   for lo in range(-45, -29) for hi in range(30, 46)]
        certified = {}
        for lo, hi in windows:
            rep = find_wandering_interval(act, Interval.open(lo, hi))
            assert all(c.passed for c in rep.claims), (lo, hi)
            J = rep.interval
            if J not in certified:
                certified[J] = wandering_certificate(act, J, 4).certified
            assert certified[J], (lo, hi, J)

    def test_trivial_action_returns_window(self):
        p = Presentation.ladder((-1,), labels=("f0", "f1"))
        act = Action(p, {"f0": Identity(), "f1": Identity()})
        rep = find_wandering_interval(act, Interval.open(-2, 2))
        assert rep.trivial_action
        assert float(rep.interval.lo.mid()) == -2.0

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match=r"^wandering construction supports "
                           r"B\(1,-1\) and all-\(-1\) ladder actions$"):
            find_wandering_interval(gallery("ex_1_4", k=2),
                                    Interval.open(-4, 4))

    def test_three_step_ladder_quotient(self):
        p = Presentation.ladder((-1, -1), labels=("f0", "f1", "f2"))
        act = Action(p, {
            "f0": Affine(R(1), R(1)),
            "f1": UnitPowerLadder(1, 1),
            "f2": Identity(),
        })
        rep = find_wandering_interval(act, Interval.open(-4, 4))
        assert rep.pivot_label == "f1"
        assert all(c.passed for c in rep.claims)
        cert = wandering_certificate(act, rep.interval, 4)
        assert cert.certified


class TestCantorLadder:
    def test_wandering_seed_has_no_moving_pair(self):
        with pytest.raises(ConstructionFailed, match="no word of length <= 5") as exc:
            cantor_ladder(gallery("ex_1_1"), 2, 5,
                          Interval.open(0, Fraction(1, 2)))
        assert exc.value.partial is None

    def test_equal_gaps_take_the_first(self):
        # with no orbit words the level's sample is the grid alone: 1/7, 2/7
        # and 3/7 lie in V, and of the two equal gaps the first is U_1
        lad = cantor_ladder(gallery("ex_1_4", k=2), 1, 3,
                            Interval.open(Fraction(1, 10), Fraction(9, 10)),
                            LadderParams(orbit_depth=0))
        (lvl,) = lad.levels
        V = lvl.v_interval
        assert lvl.grid_size == 7
        assert [j for j in range(8) if V.lo.cmp(R(j, 7)) == -1 and R(j, 7).cmp(V.hi) == -1] \
            == [1, 2, 3]
        assert (lvl.u_interval.lo, lvl.u_interval.hi) == (R(1, 7), R(2, 7))

    def test_depth_two_at_small_radius(self):
        act = gallery("ex_1_4", k=2)
        lad = cantor_ladder(act, 2, 5, params=LadderParams(orbit_depth=1))
        assert len(lad.levels) == 2
        checks = check_ladder(act, lad)
        assert all(c.passed for c in checks), [
            (c.condition, c.level, c.detail) for c in checks if not c.passed
        ]
        assert len(lad.element_sets[-1]) == 4
        # nesting of the level intervals
        u1, u2 = (lvl.u_interval for lvl in lad.levels)
        assert u2.certainly_subset_of(u1)

    def test_grid_orbit_skips_words_whose_preimage_passes_the_horizon(self):
        # t^-1 a, t^-1 a^-1, t^-1 b and t^-1 b^-1 pull V = (2.3, 2.7) back
        # through t into cell 3, past the horizon 2: those words are skipped,
        # and the sample is what a forward scan of every word gives (no
        # forward image of the grid leaves the horizon)
        ext = extend_action(direct_product_extension(
            conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2")), coset_label="t",
            horizon=2))
        V = Interval.open(Fraction(23, 10), Fraction(27, 10))
        grid = dynamics._grid_fractions(4)
        hits, skipped = [], []
        for w, _ in islice(walk(ext.presentation, 2, key_rule(ext.presentation)), 1, None):
            hw = realize(ext, w)
            try:
                eval_interval(inverse(hw), V.closure())
            except HorizonExceeded:
                skipped.append(str(w))
            images = [evaluate(hw, R(g)) for g in grid]
            hits += [v for v in images if Fraction(23, 10) <= v.mid() <= Fraction(27, 10)]
        assert skipped == ["t^-1 a", "t^-1 a^-1", "t^-1 b", "t^-1 b^-1"]
        got = dynamics._grid_orbit_in(ext, grid, V, 2)
        assert got == dynamics._merge_overlapping(hits) == [R(5, 2)]

    def test_depth_below_1_refused(self):
        # no level built means every ladder check would pass vacuously
        for depth in (0, -1):
            with pytest.raises(ValueError, match="depth must be at least 1"):
                cantor_ladder(gallery("ex_1_4", k=2), depth, 3)

    def test_partial_ladder_on_failure(self):
        act = gallery("ex_1_4", k=2)
        try:
            cantor_ladder(act, 3, 5)
        except ConstructionFailed as exc:
            assert exc.partial is not None
            assert 1 <= len(exc.partial.levels) < 3
        else:
            pytest.fail("expected the radius-5 depth-3 run to get stuck")


class TestClassifier:
    def test_radius_below_2_refused(self):
        # below 2 the half-radius sample is no smaller than the full one
        for radius in (0, 1):
            with pytest.raises(ValueError, match="radius must be at least 2"):
                classify_orbit_closure(gallery("ex_1_2", alpha="sqrt2"), 0, radius,
                                       Interval.closed(0, 1))

    def test_fixed_point(self):
        p = Presentation.free_abelian(1, labels=("a",))
        act = Action(p, {"a": Identity()})
        cls = classify_orbit_closure(act, 0, 8, Interval.closed(-5, 5))
        assert cls.kind == "fixed-point"

    def test_discrete_sequence(self):
        # the translations x + n: Q-rank 1, decided with no sample drawn
        cls = classify_orbit_closure(gallery("ex_1_1"), 0, 10,
                                     Interval.closed(-5, 5))
        assert cls.kind == "discrete-sequence"
        assert cls.basis == "every translation length is a rational multiple of 1"
        assert cls.evidence is None

    def test_dense(self):
        # Kronecker: 1 and sqrt2 are Q-independent, so Z + Z sqrt2 is dense
        cls = classify_orbit_closure(gallery("ex_1_2", alpha="sqrt2"), 0, 60,
                                     Interval.closed(0, 1))
        assert cls.kind == "dense"
        assert cls.basis == "translation lengths 1 and sqrt2 are Q-independent"
        assert cls.evidence is None

    def test_residual_class_for_edge_accumulating_orbit(self):
        # power-map orbits pile up at the cell edges: neither dense nor
        # evenly spaced, and no sample decides the class
        cls = classify_orbit_closure(gallery("klein_bottle"), R(1, 3), 8,
                                     Interval.closed(0, 1))
        assert cls.kind == "undecided" and cls.basis is None
        assert cls.evidence["min_gap"] < 0.2 * cls.evidence["median_gap"]
        assert cls.evidence["coverage_gap"] > 0.05

    @pytest.mark.parametrize("radius", [4, 5])
    @pytest.mark.parametrize("act, x, window", [
        (gallery("ex_1_2", alpha="pi"), R(0), Interval.closed(0, 1)),
        (gallery("klein_bottle"), R(1, 3), Interval.closed(0, 1)),
        (gallery("ex_1_4", k=2), R(7, 8), Interval.closed(-2, 2)),
    ], ids=["ex_1_2", "klein_bottle", "ex_1_4_k2"])
    def test_one_walk_counts_as_two_orbits(self, act, x, window, radius):
        # both samples come from one walk; each count must equal the count
        # of a separate orbit at its radius (ex_1_2 at alpha = pi: a tracked
        # length, so the class is still read off the sample)
        lo, hi = window.lo.mid(), window.hi.mid()

        def inside(pts):
            return sum(lo <= p.value.mid() <= hi for p in pts)

        ev = classify_orbit_closure(act, x, radius, window).evidence
        assert ev["count"] == inside(orbit(act, x, radius))
        assert ev["count_half_radius"] == inside(orbit(act, x, radius // 2))
        assert ev["count_half_radius"] < ev["count"]


def test_certificate_decides_disjointness_at_doubled_precision(monkeypatch):
    # the cube root sends J = (c, 2) to (c**(1/3), 2**(1/3)), missing J by
    # under 2**-300, c being 2**(1/3) rounded up at 300 bits: 256 bits leave
    # it undecided, 512 bits decide it
    with mpmath.workprec(2000):
        c = Fraction(int(mpmath.ceil(mpmath.cbrt(2) * 2**300)), 2**300)
    act = parse_action_file("group free 1\ngen a = oddpower(3, root)\n")
    tried = []
    one_pass = dynamics._certainly_disjoint

    def spy(h, J):
        out = one_pass(h, J)
        tried.append((current_precision().bits, out))
        return out

    monkeypatch.setattr(dynamics, "_certainly_disjoint", spy)
    cert = wandering_certificate(act, Interval.open(c, 2), 1)
    assert cert.certified
    assert [(str(v.word), v.verdict) for v in cert.verdicts] \
        == [("a", "disjoint"), ("a^-1", "disjoint")]
    assert tried == [(256, None), (512, True)]


NON_COMMUTING = "group free_abelian 2\ngen a = affine(2, 0)\ngen b = affine(1, 1)\n"
U_NC, V_NC = Interval.open(0, R(1, 10)), Interval.open(R(23, 20), R(119, 100))


def test_b_a_carries_u_onto_v():
    act = parse_action_file(NON_COMMUTING)
    img = eval_interval(realize(act, parse_word(act.presentation, "b a")), U_NC)
    assert img == Interval.open(1, R(6, 5)) and img.certainly_intersects(V_NC)


@pytest.mark.xfail(strict=True, reason=(
    "dedup walks trust unproved relations: the free_abelian walk keeps a b "
    "for b a, though a b != b a in this action"))
def test_transitivity_search_trusts_no_unproved_relation():
    act = parse_action_file(NON_COMMUTING)
    assert transitivity_search(act, U_NC, V_NC, 2) is not None
