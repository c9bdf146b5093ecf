import random
from fractions import Fraction

import pytest

from lineact.homeo import UnitPowerLadder, evaluate, to_text
from lineact.parse import ParseError, _tokenize, parse_action_file, parse_expr, parse_real
from lineact.reals import Real
from lineact.words import parse_word

from helpers import upper


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
        # the sign comes off before the constant is looked up
        lo, hi = parse_real("-sqrt2").bounds()
        assert float(lo) <= -2**0.5 <= float(hi)

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            parse_real("zz", 3, 9)

    def test_exponent_notation_is_exact(self):
        assert parse_real("1e-3").as_fraction() == Fraction(1, 1000)
        assert parse_real("-2.5E2").as_fraction() == -250

    @pytest.mark.parametrize("text", ["1.-5", "1. 5", ".", "--3", "1/-2", "1 / 2",
                                      "-", "1e", "1e5000"])
    def test_refuses_what_is_not_one_literal(self, text):
        # digits only: no sign inside a decimal or a denominator, no inner
        # space, and no exponent beyond what Python reads as 4300 digits
        with pytest.raises(ParseError, match="bad numeric literal"):
            parse_real(text)

    def test_spec_literal_refused_at_its_position(self):
        with pytest.raises(ParseError) as err:
            parse_action_file("group free_abelian 1\ngen a = affine(1, 1.-5)\n")
        assert (err.value.line, err.value.column) == (2, 19)


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
        expr = parse_expr("compose(affine(1,sqrt2), affine(1,-sqrt2), affine(1,3))")
        assert upper(evaluate(expr, Real.rational(0)) - 3) <= 1e-70

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


# One bad expression per head and per kind of error, with the exact message
# and the (line, column) it is reported at.
BAD_EXPRS = [
    ('identity(', "unexpected trailing token '('", 1, 9),
    ('affine', "expected '(', found end of input", 1, 1),
    ('affine 1', "expected '(', found '1'", 1, 8),
    ('affine(', 'expected a number, found end of input', 1, 7),
    ('affine(1', "expected ',', found end of input", 1, 8),
    ('affine(1 2)', "expected ',', found '2'", 1, 10),
    ('affine(1,', 'expected a number, found end of input', 1, 9),
    ('affine(1,2', "expected ')', found end of input", 1, 10),
    ('affine(1,2,3)', "expected ')', found ','", 1, 11),
    ('affine(x,1)', "bad numeric literal 'x'", 1, 8),
    ('affine(0,1)', 'affine coefficient a must be certainly positive', 1, 1),
    ('affine(1,2))', "unexpected trailing token ')'", 1, 12),
    ('oddpower(3)', "expected ',', found ')'", 1, 11),
    ('oddpower(3,up)', 'direction must be fwd or root', 1, 12),
    ('oddpower(x,fwd)', "expected an integer, found 'x'", 1, 10),
    ('oddpower(4,fwd)', 'exponent must be an odd integer >= 3', 1, 1),
    ('oddpower(3,fwd', "expected ')', found end of input", 1, 12),
    ('oddpower(', 'expected an integer, found end of input', 1, 9),
    ('oddpower(3,', "expected 'fwd' or 'root', found end of input", 1, 11),
    ('unitpowerladder(0,+1)', 'ladder base k must be a positive integer', 1, 1),
    ('unitpowerladder(1,2)', 'ladder direction s must be +1 or -1', 1, 1),
    ('unitpowerladder(1,+x)', "expected an integer, found '+x'", 1, 19),
    ('unitpowerladder(2,+-1)', "expected an integer, found '+-1'", 1, 19),
    ('unitpowerladder(2,++1)', "expected an integer, found '++1'", 1, 19),
    ('unitpowerladder(1 +1)', "expected ',', found '+1'", 1, 19),
    ('unitpowerladder(+,1)', "expected an integer, found '+'", 1, 17),
    ('unitpowerladder(1,-1', "expected ')', found end of input", 1, 19),
    ('boundedconjugate', "expected '(', found end of input", 1, 1),
    ('boundedconjugate(', 'expected an expression, found end of input', 1, 17),
    ('boundedconjugate()', "unknown expression head ')'", 1, 18),
    ('boundedconjugate(identity', "expected ')', found end of input", 1, 18),
    ('boundedconjugate(identity,identity)', "expected ')', found ','", 1, 26),
    ('boundedconjugate(affine(0,1))', 'affine coefficient a must be certainly positive', 1, 18),
    ('inverse(', 'expected an expression, found end of input', 1, 8),
    ('inverse(identity', "expected ')', found end of input", 1, 9),
    ('inverse(wrong)', "unknown expression head 'wrong'", 1, 9),
    ('inverse identity', "expected '(', found 'identity'", 1, 9),
    ('compose(identity)', 'compose needs at least two factors', 1, 1),
    ('compose(identity identity)', "expected ',' or ')', found 'identity'", 1, 18),
    ('compose(', 'expected an expression, found end of input', 1, 8),
    ('compose(identity,', 'expected an expression, found end of input', 1, 17),
    ('compose', "expected '(', found end of input", 1, 1),
    ('compose()', "unknown expression head ')'", 1, 9),
    ('wrong(1)', "unknown expression head 'wrong'", 1, 1),
    ('', 'expected an expression, found end of input', 1, 1),
    ('   ', 'expected an expression, found end of input', 1, 1),
    (')', "unknown expression head ')'", 1, 1),
    ('compose(\naffine(1,1),\n  nonsense(3))', "unknown expression head 'nonsense'", 3, 3),
    ('affine(1,\n  1/0)', "bad numeric literal '1/0'", 2, 3),
    ('\n\n  oddpower(3,\n\tfwd', "expected ')', found end of input", 4, 2),
    ('compose(affine(1,1), wrong(2))', "unknown expression head 'wrong'", 1, 22),
]


@pytest.mark.parametrize("text,message,line,column", BAD_EXPRS)
def test_bad_expression_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


BAD_SPECS = [
    ('gen a = identity\n', 'missing group header', 1, 1),
    ('group free 2\ngen a = identity\n', 'group of rank 2 declared but 1 gen lines found', 1, 1),
    ('group free 1\ngen a affine(1,1)\n', "gen line must read 'gen <name> = <expr>'", 2, 1),
    ('group free 1\ngen a\n', "gen line must read 'gen <name> = <expr>'", 2, 1),
    ('group free 1\ngen a = affine(1,1) identity\n', "unexpected trailing token 'identity'", 2, 21),
    ('group free 1\ngen a = affine(1,\n', 'expected a number, found end of input', 2, 17),
    ('group free 1\n  gen a = oddpower(3,up)\n', 'direction must be fwd or root', 2, 22),
    ('group free 1\ngroup free 1\ngen a = identity\n', 'duplicate group header', 2, 1),
    ('group\ngen a = identity\n', 'group header needs a family name', 1, 1),
    ('group free x\ngen a = identity\n', "bad group parameter 'x'", 1, 12),
    ('group free\ngen a = identity\n', 'missing group parameter', 1, 1),
    ('group bs 2 2\ngen a = identity\ngen b = identity\n', 'only B(1,n) is supported', 1, 10),
    ('group bs 1 0\ngen a = identity\ngen b = identity\n', 'B(1,0) is not a valid twist', 1, 1),
    ('group cyclic 1\ngen a = identity\n', "unknown group family 'cyclic'", 1, 7),
    ('group ladder -1 -1 -1\ngen f0 = identity\ngen f1 = identity\ngen f2 = identity\ngen f3 = identity\n', 'ladder presentations beyond three generators are not determined by their name; refusing to guess', 1, 1),
    ('group ladder 2\ngen a = identity\ngen b = identity\n', 'ladder name entries must be +-1', 1, 1),
    ('group free 2\ngen a = identity\ngen a = identity\n', 'duplicate generator names', 1, 1),
    ('# c\n\ngroup free 1\nlet a = identity\n', "unknown directive 'let'", 4, 1),
    ('group free 1\r\ngen a = wrong(1)\r\n', "unknown expression head 'wrong'", 2, 9),
    # only "\n" ends a line: "\r" and "\x0c" are whitespace inside the header
    ('group free 1\rgen a = wrong(1)\r', 'group of rank 1 declared but 0 gen lines found', 1, 1),
    ('group free 1\x0cgen a = wrong(1)\n', 'group of rank 1 declared but 0 gen lines found', 1, 1),
]


@pytest.mark.parametrize("text,message,line,column", BAD_SPECS)
def test_bad_spec_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_action_file(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_gen_line_without_expression_points_at_gen():
    with pytest.raises(ParseError) as err:
        parse_action_file("group abelian 1\ngen a =\n")
    assert str(err.value) == ("gen line must read 'gen <name> = <expr>' "
                              "(line 2, column 1)")


def _reference_tokenize(text, start_line=1):
    """The character-by-character scanner the regex scanner replaced."""
    tokens = []
    line, col = start_line, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "(),":
            tokens.append((ch, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "(),":
            j += 1
        tokens.append((text[i:j], line, col))
        col += j - i
        i = j
    return tokens


def test_tokenize_matches_reference_scanner():
    rng = random.Random(9)
    alphabet = "(),\n \t\r\x0b\x0c\x1c\x85\xa0 ab1+-/.="
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        got = [(t.text, t.line, t.column) for t in _tokenize(text)]
        assert got == _reference_tokenize(text), repr(text)
