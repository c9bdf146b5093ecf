from fractions import Fraction

import pytest

from lineact.homeo import UnitPowerLadder, evaluate, to_text
from lineact.parse import ParseError, parse_action_file, parse_expr, parse_real
from lineact.reals import Real
from lineact.words import parse_word


class TestParseReal:
    def test_rational(self):
        assert parse_real("3/4").as_fraction() == Fraction(3, 4)
        assert parse_real("-7/2").as_fraction() == Fraction(-7, 2)

    def test_decimal_is_exact(self):
        assert parse_real("0.25").as_fraction() == Fraction(1, 4)
        assert parse_real("-1.5").as_fraction() == Fraction(-3, 2)

    def test_integer(self):
        assert parse_real("12").as_fraction() == 12

    def test_constants(self):
        v = parse_real("sqrt2")
        lo, hi = v.bounds()
        assert float(lo) <= 2**0.5 <= float(hi)
        assert parse_real("pi").kind == "tracked-real"

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            parse_real("zz", 3, 9)


class TestParseExpr:
    def test_round_trips(self):
        cases = [
            "identity",
            "affine(1,1)",
            "affine(3/2,-7/2)",
            "oddpower(3,fwd)",
            "oddpower(5,root)",
            "unitpowerladder(2,+1)",
            "unitpowerladder(1,-1)",
            "boundedconjugate(affine(1,1))",
            "inverse(oddpower(3,fwd))",
            "compose(affine(1,1),oddpower(3,fwd))",
            "compose(affine(1,1),affine(1,2),affine(1,3))",
        ]
        for text in cases:
            expr = parse_expr(text)
            assert to_text(expr) == text

    def test_nary_compose(self):
        expr = parse_expr("compose(affine(1,1), affine(1,2), affine(1,3))")
        assert evaluate(expr, Real.rational(0)).as_fraction() == 6

    def test_whitespace_tolerant(self):
        expr = parse_expr(" compose( affine( 1 , 1 ) , identity ) ")
        assert evaluate(expr, Real.rational(1)).as_fraction() == 2

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("compose(affine(1,1), wrong(2))")
        assert err.value.line == 1
        assert err.value.column == 22

    def test_multiline_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("compose(\naffine(1,1),\n  nonsense(3))")
        assert err.value.line == 3
        assert err.value.column == 3

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("identity identity")

    def test_rejects_bad_slope(self):
        with pytest.raises(ParseError):
            parse_expr("affine(0,1)")

    def test_rejects_single_factor_compose(self):
        with pytest.raises(ParseError):
            parse_expr("compose(identity)")


SPEC = """
# an alternating-ladder binding
group bs 1 -2
gen g = unitpowerladder(2, +1)
gen f = affine(1, 1)
"""


class TestActionFile:
    def test_parses(self):
        act = parse_action_file(SPEC)
        assert act.presentation.kind == "bs" and act.presentation.n == -2
        assert act.presentation.labels == ("g", "f")
        assert act.images["g"] == UnitPowerLadder(2, 1)

    def test_word_parse_and_realize(self):
        act = parse_action_file(SPEC)
        w = parse_word(act.presentation, "f g f^-1")
        assert w.word == ((1, 1), (0, 1), (1, -1))

    def test_ladder_header(self):
        act = parse_action_file(
            "group ladder -1\ngen f0 = affine(1,1)\ngen f1 = unitpowerladder(1,+1)\n"
        )
        assert act.presentation.kind == "ladder"
        assert act.presentation.name == (-1,)

    def test_free_header(self):
        act = parse_action_file(
            "group free 2\ngen f = affine(1,1)\ngen g = oddpower(3,fwd)\n"
        )
        assert act.presentation.kind == "free"

    def test_rank_mismatch_reports_position(self):
        with pytest.raises(ParseError):
            parse_action_file("group free 2\ngen a = identity\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_action_file("gen a = identity\n")

    def test_bad_gen_line_position(self):
        with pytest.raises(ParseError) as err:
            parse_action_file("group free 1\ngen a affine(1,1)\n")
        assert err.value.line == 2

    def test_ladder_too_deep_rejected(self):
        with pytest.raises(ParseError):
            parse_action_file(
                "group ladder -1 -1 -1\n"
                + "".join(f"gen f{i} = identity\n" for i in range(4))
            )
