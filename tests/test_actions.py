import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from lineact.actions import (
    Action,
    ExtensionSpec,
    check_relations,
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    gallery_entries,
    homomorphism_residual,
    realize,
    relations_proved,
    sample_points,
)
from lineact.dynamics import wandering_certificate
from lineact.homeo import (
    Affine,
    Compose,
    ExtensionCell,
    HorizonExceeded,
    Identity,
    UnitPowerLadder,
    compose,
    eval_interval,
    evaluate,
    inverse,
    simplify,
    to_text,
)
from lineact.parse import parse_action_file
from lineact.reals import Interval, Real
from lineact.words import Presentation, free_reduced_words, multiply, parse_word

R = Real.rational


def upper(v):
    return float(abs(v).bounds()[1])


class TestRealize:
    def test_conjugated_translation_dyadic(self):
        act = gallery("ex_1_3", n=2)
        w = parse_word(act.presentation, "b^-3 a b^3")
        v = evaluate(realize(act, w), R(0))
        assert v.as_fraction() == Fraction(1, 8)

    def test_empty_word(self):
        act = gallery("ex_1_1")
        h = realize(act, act.presentation.identity())
        assert h == Identity()

    def test_ladder_at_half(self):
        act = gallery("ex_1_4", k=2)
        w = parse_word(act.presentation, "g")
        assert evaluate(realize(act, w), R(1, 2)).as_fraction() == Fraction(1, 4)

    def test_left_action_order(self):
        # leftmost letter acts last: (f g)(x) = f(g(x))
        act = gallery("free_transitive")
        w = parse_word(act.presentation, "f g")
        v = evaluate(realize(act, w), R(2))
        assert v.as_fraction() == 9  # f(g(2)) = 2^3 + 1

    def test_one_flat_compose_of_letter_maps(self):
        act = gallery("ex_1_4", k=2)
        w = parse_word(act.presentation, "g^2 f^-1 g^-3")
        h = realize(act, w)
        assert isinstance(h, Compose)
        assert h.maps == tuple(act.letter_maps[l] for l in w.letters())
        assert len(h.maps) == 6
        assert not any(isinstance(m, (Compose, Identity)) for m in h.maps)


class TestCheckRelations:
    def test_dilation_exact(self):
        act = gallery("ex_1_3", n=2)
        rep = check_relations(act, sample_points(Interval.closed(-5, 5), 100))
        assert rep.passed and relations_proved(act)
        assert rep.worst_residual.as_fraction() == 0

    def test_ladder_residual(self):
        act = gallery("ex_1_4", k=2)
        pts = sample_points(Interval.closed(-4, 5), 200)
        rep = check_relations(act, pts)
        assert rep.passed
        assert upper(rep.worst_residual) <= 1e-25

    def test_corrupted_action_fails(self):
        # base-2 ladder images bound to the base-3 presentation
        p3 = Presentation.baumslag_solitar(-3, labels=("g", "f"))
        bad = Action(p3, {"g": UnitPowerLadder(2, 1),
                          "f": Affine(R(1), R(1))})
        rep = check_relations(bad, [R(1, 2)])
        assert not rep.passed
        assert float(rep.worst_residual.bounds()[0]) > 1e-3


class TestGallery:
    def test_entries_listed(self):
        ids = [k for k, _ in gallery_entries()]
        assert ids == ["ex_1_1", "ex_1_2", "ex_1_3", "ex_1_4",
                       "klein_bottle", "free_transitive"]

    def test_aliases(self):
        a = gallery("two_translations", alpha="sqrt2")
        b = gallery("ex_1_2", alpha="sqrt2")
        assert a.presentation == b.presentation

    def test_two_translations_commute_structurally(self):
        act = gallery("ex_1_2", alpha="sqrt2")
        rep = check_relations(act, sample_points(Interval.closed(-5, 5), 10))
        assert rep.passed and relations_proved(act)
        assert rep.worst_residual.as_fraction() == 0

    def test_klein_bottle_relation(self):
        act = gallery("klein_bottle")
        rep = check_relations(act, sample_points(Interval.closed(-4, 5), 100))
        assert rep.passed
        # f g f^-1 g acts as the identity
        w = parse_word(act.presentation, "f g f^-1 g")
        assert simplify(realize(act, w)) == Identity()

    def test_free_transitive_no_short_relations(self):
        act = gallery("free_transitive")
        probes = [R(3, 10), R(17, 10), R(-11, 5)]
        for w in free_reduced_words(act.presentation, 6):
            h = realize(act, w)
            moved = any(
                evaluate(h, x).cmp(x) in (-1, 1) for x in probes
            )
            assert moved, f"word {w} fixes all probes"

    def test_unknown_and_bad_params(self):
        with pytest.raises(ValueError, match=r"^no catalog action named 'nope'$"):
            gallery("nope")
        with pytest.raises(ValueError,
                           match=r"^the alternating ladder catalog entry needs k >= 2$"):
            gallery("ex_1_4", k=0)
        with pytest.raises(ValueError, match=r"^the dilation catalog entry needs n >= 2$"):
            gallery("ex_1_3", n=1)

    def test_alpha_literals_and_values(self):
        def shift(alpha):
            return gallery("ex_1_2", alpha=alpha).image("b").b

        assert shift("3/8") == shift(Fraction(3, 8)) == shift(R(3, 8))
        assert shift("0.375").as_fraction() == Fraction(3, 8)
        assert shift(2).as_fraction() == 2
        assert shift("SQRT2").bounds() == shift("sqrt2").bounds()
        assert shift("3.75e-1").as_fraction() == Fraction(3, 8)
        for bad in ("1/0", "1.-5", "two", 1.5, None):
            message = re.escape(f"cannot parse alpha {bad!r}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                gallery("ex_1_2", alpha=bad)


class TestLadderOrbitFormula:
    @mpmath.workdps(60)
    def test_closed_form(self):
        # w = f^m g^l f^n sends 1/2 to (1/2)^(2^((-1)^n k^-n l)) + n + m
        k = 2
        act = gallery("ex_1_4", k=k)
        half = mpmath.mpf(1) / 2
        for m in range(-2, 3):
            for l in range(-2, 3):
                for n in range(-2, 3):
                    w = multiply(
                        multiply(
                            act.presentation.generator(1, m) if m else act.presentation.identity(),
                            act.presentation.generator(0, l) if l else act.presentation.identity(),
                        ),
                        act.presentation.generator(1, n) if n else act.presentation.identity(),
                    )
                    got = evaluate(realize(act, w), R(1, 2))
                    expo = mpmath.mpf(2) ** (mpmath.mpf((-1) ** n) * mpmath.mpf(k) ** (-n) * l)
                    want = half ** expo + n + m
                    lo, hi = got.bounds()
                    assert float(lo) - 1e-30 <= float(want) <= float(hi) + 1e-30


class TestExtension:
    def build(self, alpha="sqrt2"):
        inner = conjugate_into_unit(gallery("ex_1_2", alpha=alpha))
        spec = direct_product_extension(inner, coset_label="t")
        return inner, spec, extend_action(spec)

    def test_cell_zero_reproduces_inner(self):
        inner, spec, act = self.build()
        for num in (1, 3, 7):
            x = R(num, 8)
            got = evaluate(act.images["a"], x)
            want = evaluate(inner.images["a"], x)
            assert upper(got - want) == 0.0

    def test_unit_translation_equivariance(self):
        _, _, act = self.build()
        w = parse_word(act.presentation, "b")
        h = realize(act, w)
        for num in (-13, 2, 9):
            x = R(num, 16)
            assert upper(evaluate(h, x + R(1)) - (evaluate(h, x) + R(1))) <= 1e-60

    def test_cell_permutation_exact(self):
        # t^v b maps [j, j+1] onto [j+v, j+v+1] with exact endpoints
        _, _, act = self.build()
        for v in (-2, 1, 3):
            for j in (-1, 0, 2):
                w = multiply(act.presentation.generator(0, v),
                             act.presentation.generator(1, 1))
                img = eval_interval(realize(act, w), Interval.closed(j, j + 1))
                assert img.lo.as_fraction() == j + v
                assert img.hi.as_fraction() == j + v + 1

    def test_product_residual_is_rounding_only(self):
        _, _, act = self.build()
        pts = sample_points(Interval.closed(-3, 3), 10)
        res = homomorphism_residual(act, 40, pts, 6, seed=11)
        assert upper(res) <= 1e-20

    def test_horizon(self):
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        spec = direct_product_extension(inner, coset_label="t", horizon=4)
        act = extend_action(spec)
        with pytest.raises(HorizonExceeded):
            evaluate(act.images["a"], R(11, 2))

    def test_relations_of_extended_group(self):
        _, _, act = self.build()
        rep = check_relations(act, sample_points(Interval.closed(-2, 2), 12))
        # t moves past a cell whose maps agree on every cell, and a b a^-1
        # b^-1 is one cell whose maps simplify to the identity
        assert rep.passed and relations_proved(act)


class TestExtensionCell:
    def spec(self):
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        return direct_product_extension(inner, coset_label="t")

    def test_cells_of_two_specs_differ(self):
        s1, s2 = self.spec(), self.spec()
        a1 = ExtensionCell(s1, parse_word(s1.group, "a"))
        a2 = ExtensionCell(s2, parse_word(s2.group, "a"))
        assert a1 != a2 and s1 != s2

    def test_one_spec_equal_words_equal_cells(self):
        spec = self.spec()
        c1 = ExtensionCell(spec, parse_word(spec.group, "a b^-1"))
        c2 = ExtensionCell(spec, parse_word(spec.group, "a b^-1"))
        assert c1 == c2 and hash(c1) == hash(c2)
        assert {c1: "cell"}[c2] == "cell"
        assert c1 != ExtensionCell(spec, parse_word(spec.group, "a"))

    def test_inverse_and_text(self):
        spec = self.spec()
        cell = ExtensionCell(spec, parse_word(spec.group, "a b^-2"))
        assert inverse(cell) == ExtensionCell(spec, parse_word(spec.group, "b^2 a^-1"))
        assert to_text(cell) == "extensioncell(a b^-2)"
        assert to_text(inverse(cell)) == "extensioncell(b^2 a^-1)"

    def test_commutator_simplifies_to_identity(self):
        act = extend_action(self.spec())
        h = realize(act, parse_word(act.presentation, "a b a^-1 b^-1"))
        assert isinstance(h, Compose) and len(h.maps) == 4
        assert simplify(h) == Identity()

    def test_cell_cache_is_not_a_parameter(self):
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        G = Presentation.free_abelian(3, labels=("t", "a", "b"))
        with pytest.raises(TypeError):
            ExtensionSpec(inner, G, "t", None, 64, _cell_cache={})


NON_COMMUTING = "group free_abelian 2\ngen a = affine(2, 0)\ngen b = affine(1, 1)\n"


class TestCellProvedFromItsMaps:
    """A cell is the identity when simplify proves each of its cell maps
    within the horizon the identity; the inner presentation's normal form
    proves nothing about the inner action."""

    def test_unproved_inner_relation_proves_no_cell(self):
        # a b != b a in the inner action, though free_abelian says it is
        inner = conjugate_into_unit(parse_action_file(NON_COMMUTING))
        ext = extend_action(direct_product_extension(inner, coset_label="t"))
        h = realize(ext, parse_word(ext.presentation, "a b a^-1 b^-1"))
        assert simplify(h) != Identity()
        assert evaluate(h, R(1, 3)).as_fraction() == Fraction(2, 3)
        assert evaluate(h, R(5, 2)).as_fraction() == Fraction(11, 4)
        cert = wandering_certificate(ext, Interval.open(R(1, 10), R(1, 5)), 4)
        verdicts = {str(v.word): v.verdict for v in cert.verdicts}
        assert verdicts["a b a^-1 b^-1"] == "violation"
        # t is central, whatever the inner action: only t-commutator
        # spellings are proved, and each fixes every sample point exactly
        fixed = [v.word for v in cert.verdicts if v.verdict == "pointwise-fixed"]
        assert len(fixed) == 16 and all("t" in str(w) for w in fixed)
        for w in fixed:
            hw = realize(ext, w)
            for x in (R(-7, 3), R(1, 3), R(5, 2), R(41, 8)):
                assert evaluate(hw, x).as_fraction() == x.as_fraction(), str(w)

    def test_sign_flipping_rule_proves_its_commutator_on_every_cell(self):
        # demo 08's rule over ex_1_2: odd cells act by the inverse word
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        spec = ExtensionSpec(inner, Presentation.free(3, labels=("t", "a", "b")), "t",
                             lambda j, w: w if j % 2 == 0 else w.inverse())
        ext = extend_action(spec)
        assert simplify(realize(ext, parse_word(ext.presentation, "a b a^-1 b^-1"))) \
            == Identity()
        w = parse_word(inner.presentation, "a b a^-1 b^-1")
        n = spec.horizon
        assert all(spec.cell_expr(j, w) == Identity() for j in range(-n, n + 1))

    def test_negative_horizon_is_refused(self):
        # no cell would evaluate, so each cell would vacuously be the identity
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        with pytest.raises(ValueError, match=r"^horizon must be nonnegative, got -1$"):
            direct_product_extension(inner, coset_label="t", horizon=-1)

    def test_conjugated_inner_relations_are_proved(self):
        assert relations_proved(conjugate_into_unit(gallery("ex_1_2")))
        assert relations_proved(conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2")))

    def test_direct_product_cells_share_one_entry(self):
        # a cell map depends on the conjugated word alone
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        spec = direct_product_extension(inner, coset_label="t")
        w = parse_word(inner.presentation, "a b^-1")
        exprs = {id(spec.cell_expr(j, w)) for j in range(-spec.horizon, spec.horizon + 1)}
        assert len(exprs) == 1 and len(spec._cell_cache) == 1


def _sign_flipping_spec() -> ExtensionSpec:
    # demo 08's rule: odd cells act by the inverse word
    H = Presentation.free_abelian(1, labels=("s",))
    inner = Action(H, {"s": UnitPowerLadder(1, 1)})  # restriction to [0,1] is x^2
    return ExtensionSpec(inner, Presentation.baumslag_solitar(-1, labels=("s", "t")),
                         "t", lambda j, w: w if j % 2 == 0 else w.inverse(), horizon=32)


class TestTranslationsCommuteWithPeriodicCells:
    """T_d o Cell(w) simplifies to Cell(w) o T_d when w's maps of cells j and
    j + d agree for every such pair within the horizon, and one pair at
    least exists; each proved commutation agrees with exact evaluation."""

    @staticmethod
    def commutes(d, cell):
        t = Affine(R(1), R(d))
        return simplify(compose(t, cell)) == compose(cell, t)

    @staticmethod
    def assert_agree_exactly(d, cell, xs):
        t = Affine(R(1), R(d))
        for x in xs:
            lhs, rhs = evaluate(compose(t, cell), x), evaluate(compose(cell, t), x)
            assert lhs.is_rational and lhs.as_fraction() == rhs.as_fraction(), (d, x)

    def test_sign_flipping_rule_has_period_two(self):
        spec = _sign_flipping_spec()
        s = ExtensionCell(spec, parse_word(spec.inner_action.presentation, "s"))
        assert all(self.commutes(d, s) for d in (2, -2, 6, -64))
        assert not any(self.commutes(d, s) for d in (1, -1, 3, 63))
        # x^2 on even cells, its root on odd ones: fourth-power offsets stay
        # exact both ways, in even and odd cells on either side of 0
        xs = [R(j + q) for j in (-7, -4, -1, 0, 3, 10)
              for q in (Fraction(1, 16), Fraction(81, 256))]
        self.assert_agree_exactly(2, s, xs)
        self.assert_agree_exactly(-2, s, xs)
        # T_1 o s and s o T_1 are two maps: at 1/4 they give 17/16 and 3/2
        t1 = Affine(R(1), R(1))
        assert evaluate(compose(t1, s), R(1, 4)).as_fraction() == Fraction(17, 16)
        assert evaluate(compose(s, t1), R(1, 4)).as_fraction() == Fraction(3, 2)

    def test_direct_product_cells_commute_with_every_shift_in_range(self):
        inner = conjugate_into_unit(parse_action_file(NON_COMMUTING))
        spec = direct_product_extension(inner, coset_label="t", horizon=3)
        for word in ("a", "a b^-1", "b^2 a"):
            cell = ExtensionCell(spec, parse_word(spec.inner_action.presentation, word))
            for d in (1, -2, 4, -6):
                assert self.commutes(d, cell), (word, d)
                cells = range(max(-3, -3 - d), min(3, 3 - d) + 1)
                xs = [R(j + q) for j in cells for q in (Fraction(1, 3), Fraction(5, 7))]
                self.assert_agree_exactly(d, cell, xs)

    def test_shift_beyond_twice_the_horizon_is_not_rewritten(self):
        # at |d| = 2 horizon the cells -2 and 2 are the one pair; beyond it
        # no pair of cells is inside the horizon, so nothing is proved
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        spec = direct_product_extension(inner, coset_label="t", horizon=2)
        a = ExtensionCell(spec, parse_word(spec.inner_action.presentation, "a"))
        assert self.commutes(4, a) and self.commutes(-4, a)
        assert not self.commutes(5, a) and not self.commutes(-5, a)


class TestExtensionReproducesAlternatingLadder:
    """The cyclic-extension operator applied to the squaring map on [0,1]
    with the sign-flipping conjugation rule rebuilds the base-1 cellwise
    power map, pointwise."""

    def test_pointwise_match(self):
        act = extend_action(_sign_flipping_spec())
        ladder = UnitPowerLadder(1, 1)
        img = act.images["s"]
        for num in (-25, -11, -3, 1, 5, 13, 27):
            x = R(num, 8)
            # even cells agree exactly; odd cells via tracked square roots
            assert upper(evaluate(img, x) - evaluate(ladder, x)) <= 1e-60

    def test_relation_of_rebuilt_action(self):
        act = extend_action(_sign_flipping_spec())
        # t s t^-1 = s^-1 needs t to move past s as s^-1, which the
        # periodic-cell rule does not do: not proved; the odd cells run
        # through tracked square roots, so the residual is a tiny enclosure
        rep = check_relations(act, sample_points(Interval.closed(-3, 3), 30))
        assert not rep.passed and not relations_proved(act)
        assert upper(rep.worst_residual) <= 1e-60


def test_product_residual_is_rounding_only_across_gallery():
    # free reduction makes (uv)(x) and u(v(x)) one map, so this bounds the
    # rounding of cancelled letters; the relations are checked elsewhere
    rng = random.Random(3)
    pts_window = Interval.closed(-3, 3)
    for name, params in (("ex_1_1", {}), ("ex_1_2", {"alpha": "sqrt2"}),
                         ("ex_1_3", {"n": 2}), ("ex_1_4", {"k": 2}),
                         ("klein_bottle", {}), ("free_transitive", {})):
        act = gallery(name, **params)
        pts = sample_points(pts_window, 5)
        res = homomorphism_residual(act, 25, pts, 5, seed=rng.randint(0, 999))
        assert upper(res) <= 1e-20, name


def test_sample_points_needs_a_point():
    window = Interval.closed(-1, 1)
    for count in (0, -2):
        with pytest.raises(ValueError, match="need at least one sample point"):
            sample_points(window, count)
    assert [p.as_fraction() for p in sample_points(window, 1)] == [0]


def test_residual_needs_pairs_letters_and_points():
    act = gallery("ex_1_1")
    pts = sample_points(Interval.closed(-1, 1), 2)
    for n_pairs, max_len, points in ((0, 6, pts), (-1, 6, pts), (3, 0, pts), (3, 6, [])):
        with pytest.raises(ValueError, match="need n_pairs >= 1, max_len >= 1"):
            homomorphism_residual(act, n_pairs, points, max_len)
    assert upper(homomorphism_residual(act, 1, pts, 1)) == 0.0


def test_residual_is_blind_to_relations():
    # multiply only cancels u's tail against v's head, so uv and u o v are
    # one map in every action: a b != b a here, and the residual is still 0
    act = parse_action_file(
        "group free_abelian 2\ngen a = affine(2, 0)\ngen b = affine(1, 1)\n")
    pts = sample_points(Interval.open(-3, 3), 5)
    res = homomorphism_residual(act, 200, pts, 6)
    assert res.kind == "exact-rational" and res.as_fraction() == 0
    rep = check_relations(act, pts)
    assert not rep.passed and rep.worst_residual.as_fraction() == 1


def test_check_relations_needs_a_point():
    with pytest.raises(ValueError, match="need at least one sample point"):
        check_relations(gallery("klein_bottle"), [])
