import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineact.words import (
    GroupElement,
    Presentation,
    ball,
    bs_pair,
    free_reduced_words,
    multiply,
    normal_form_key,
    parse_word,
    reduce_letters,
    walk,
)

F2 = Presentation.free(2)
FA2 = Presentation.free_abelian(2)


class TestReduce:
    def test_cancellation(self):
        w = reduce_letters(F2, [(0, 1), (0, -1)])
        assert w.is_identity_word

    def test_inner_cancellation(self):
        w = reduce_letters(F2, [(0, 1), (1, 1), (1, -1), (0, 1)])
        assert w.word == ((0, 2),)

    def test_no_relations_applied(self):
        bs = Presentation.baumslag_solitar(2)
        w = reduce_letters(bs, [(1, 1), (0, 1)])
        assert w.word == ((1, 1), (0, 1))  # 'b a' untouched by free reduction

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match=r"^generator index 5 out of range$"):
            reduce_letters(F2, [(5, 1)])


class TestNormalForms:
    def test_bs_relation_agreement(self):
        bs2 = Presentation.baumslag_solitar(2)
        assert bs_pair(parse_word(bs2, "b a")) == (1, Fraction(2))
        assert bs_pair(parse_word(bs2, "a^2 b")) == (1, Fraction(2))

    def test_bs_conjugated_translation(self):
        bs2 = Presentation.baumslag_solitar(2)
        assert bs_pair(parse_word(bs2, "b^-1 a b")) == (0, Fraction(1, 2))

    def test_identity_pair(self):
        bs2 = Presentation.baumslag_solitar(2)
        assert bs_pair(bs2.identity()) == (0, Fraction(0))

    def test_b_squared_central_in_klein(self):
        bsm1 = Presentation.baumslag_solitar(-1)
        u = parse_word(bsm1, "b^2 a")
        v = parse_word(bsm1, "a b^2")
        assert bs_pair(u) == bs_pair(v) == (2, Fraction(1))

    def test_free_abelian_vector(self):
        w = parse_word(FA2, "a b a^-1")
        assert normal_form_key(FA2, w) == ("fa", (0, 1))

    def test_round_trip_through_word(self):
        bs = Presentation.baumslag_solitar(-2)
        for text in ("a b a^-1 b", "b^-2 a b^2", "a^3 b^-1 a b"):
            w = parse_word(bs, text)
            again = reduce_letters(bs, w.word)
            assert normal_form_key(bs, w) == normal_form_key(bs, again)


from helpers import rewriting_classes  # noqa: E402


@pytest.mark.parametrize("n", [2, 3, -1, -2])
def test_bs_normal_form_matches_rewriting_oracle(n):
    p = Presentation.baumslag_solitar(n)
    index, words = rewriting_classes(p, 4, 6)
    for u in words:
        for v in words:
            same_pair = bs_pair(u) == bs_pair(v)
            if index.get(u.word) == index.get(v.word):
                # rewriting-connected words must share the affine pair
                assert same_pair, (u, v)
    # and distinct pairs never collapse to the same rewriting class
    by_class: dict[int, set] = {}
    for w in words:
        by_class.setdefault(index[w.word], set()).add(bs_pair(w))
    for pairs in by_class.values():
        assert len(pairs) == 1


@pytest.mark.parametrize("name", [(-1,), (1,), (-1, -1), (1, -1), (-1, 1)])
def test_ladder_normal_form_matches_rewriting_oracle(name):
    p = Presentation.ladder(name)
    index, words = rewriting_classes(p, 3, 5)
    by_class: dict[int, set] = {}
    for w in words:
        by_class.setdefault(index[w.word], set()).add(normal_form_key(p, w))
    for keys in by_class.values():
        assert len(keys) == 1


def _reference_ladder_fold(p, w):
    """The ladder normal form as first written: one product per rank."""
    k = p.rank
    n0 = p.name[0] if k >= 2 else 1
    n1 = p.name[1] if k >= 3 else 1

    def mul(x, y):
        if k == 1:
            return (x[0] + y[0],)
        if k == 2:
            a1, b1 = x
            a2, b2 = y
            tw = n0 if a2 % 2 else 1
            return (a1 + a2, b1 * tw + b2)
        a1, b1, c1 = x
        a2, b2, c2 = y
        tw0 = n0 if a2 % 2 else 1
        tw1 = n1 if b2 % 2 else 1
        return (a1 + a2, b1 * tw0 + b2, c1 * tw1 + c2)

    acc = tuple([0] * k)
    for g, e in w.word:
        letter = tuple(e if i == g else 0 for i in range(k))
        acc = mul(acc, letter)
    return acc


@pytest.mark.parametrize("name", [(), (1,), (-1,), (1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_ladder_normal_form_matches_reference_fold(name):
    p = Presentation.ladder(name)
    rng = random.Random(repr(name))
    for _ in range(2000):
        letters = [(rng.randrange(p.rank), rng.choice((-3, -2, -1, 1, 2, 3)))
                   for _ in range(rng.randint(0, 12))]
        w = reduce_letters(p, letters)
        assert normal_form_key(p, w) == ("ladder", _reference_ladder_fold(p, w)), w


def test_klein_sign_sum():
    # words whose affine pair has zero twist component have zero b-exponent sum
    p = Presentation.baumslag_solitar(-1)
    for w in free_reduced_words(p, 5, include_identity=True):
        m, _ = bs_pair(w)
        bsum = w.exponent_sum(1)
        assert m == bsum
        if m == 0:
            assert bsum == 0


class TestBall:
    def test_free_counts(self):
        assert len(ball(F2, 0)) == 1
        assert len(ball(F2, 1)) == 5
        assert len(ball(F2, 2)) == 17

    def test_abelian_lattice_count(self):
        b = ball(FA2, 2)
        assert len(b) == 13
        keys = {normal_form_key(FA2, w) for w in b}
        assert keys == {("fa", (i, j))
                        for i in range(-2, 3) for j in range(-2, 3)
                        if abs(i) + abs(j) <= 2}

    def test_monotone_and_identity(self):
        small = {normal_form_key(FA2, w) for w in ball(FA2, 2)}
        big = {normal_form_key(FA2, w) for w in ball(FA2, 3)}
        assert small <= big
        assert ball(FA2, 0) == [FA2.identity()]

    def test_returns_list(self):
        b = ball(F2, 1)
        assert type(b) is list
        assert [str(w) for w in b] == ["1", "a", "a^-1", "b", "b^-1"]

    def test_negative_radius_refused(self):
        for sweep in (lambda: ball(F2, -1), lambda: list(walk(F2, -1, None)),
                      lambda: list(free_reduced_words(F2, -2))):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                sweep()

    def test_distinct_normal_forms(self):
        p = Presentation.baumslag_solitar(-2)
        b = ball(p, 5)
        keys = [normal_form_key(p, w) for w in b]
        assert len(keys) == len(set(keys))

    def test_shortlex_determinism(self):
        a = [str(w) for w in ball(FA2, 3)]
        b = [str(w) for w in ball(FA2, 3)]
        assert a == b
        assert a[:5] == ["1", "a", "a^-1", "b", "b^-1"]

    def test_representatives_are_geodesic_shortlex(self):
        # each representative is the shortlex-least word for its element
        p = Presentation.baumslag_solitar(-1)
        b = ball(p, 4)
        best: dict = {}
        for w in free_reduced_words(p, 4, include_identity=True):
            key = normal_form_key(p, w)
            lw = _shortlex_key(w)
            if key not in best or lw < best[key]:
                best[key] = lw
        for w in b:
            assert _shortlex_key(w) == best[normal_form_key(p, w)]


def _shortlex_key(w: GroupElement):
    letters = list(w.letters())
    return (len(letters), [(g, 0 if e > 0 else 1) for g, e in letters])


class TestPresentation:
    def test_relations_shape(self):
        bs = Presentation.baumslag_solitar(3)
        (lhs, rhs), = bs.relations()
        assert str(lhs) == "b a" and str(rhs) == "a^3 b"

    def test_ladder_guard(self):
        with pytest.raises(ValueError, match=r"^ladder presentations beyond three generators "
                           r"are not determined by their name; refusing to guess$"):
            Presentation.ladder((-1, -1, -1))
        with pytest.raises(ValueError, match=r"^ladder name entries must be \+-1$"):
            Presentation.ladder((2,))
        with pytest.raises(ValueError, match=r"^B\(1,0\) is not a valid twist$"):
            Presentation.baumslag_solitar(0)

    def test_labels(self):
        p = Presentation.baumslag_solitar(-2, labels=("g", "f"))
        assert p.generator_index("f") == 1
        with pytest.raises(ValueError, match=r"^no generator named 'z'$"):
            p.generator_index("z")

    def test_default_labels_past_eight_generators(self):
        assert Presentation.free(8).labels == tuple("abcdefgh")
        p = Presentation.free(9)
        assert p.labels == tuple(f"x{i}" for i in range(9))
        assert parse_word(p, "x8^2 x0").word == ((8, 2), (0, 1))


class TestParseWord:
    def test_printed_words_parse_back(self):
        for text in ("1", "a b^-1", "b^3 a^-2 b"):
            w = parse_word(F2, text)
            assert str(w) == text and parse_word(F2, str(w)) == w
        assert parse_word(F2, "1").word == () == parse_word(F2, "").word

    def test_a_generator_named_e_is_a_letter(self):
        p = Presentation.free(2, labels=("e", "f"))
        assert parse_word(p, "e f^-1").word == ((0, 1), (1, -1))

    def test_repr_is_the_word(self):
        assert repr(parse_word(F2, "a b^-1")) == "<a b^-1>"
        assert repr(F2.identity()) == "<1>"


letters_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.sampled_from([-2, -1, 1, 2])),
    max_size=12,
)


@given(letters_strategy)
@settings(max_examples=200, deadline=None)
def test_reduce_idempotent(letters):
    w = reduce_letters(F2, letters)
    assert reduce_letters(F2, w.word).word == w.word


@given(letters_strategy)
@settings(max_examples=200, deadline=None)
def test_inverse_involution_and_identity(letters):
    w = reduce_letters(F2, letters)
    assert w.inverse().inverse().word == w.word
    assert multiply(w, w.inverse()).is_identity_word


@given(letters_strategy, letters_strategy, letters_strategy)
@settings(max_examples=100, deadline=None)
def test_multiply_associative(l1, l2, l3):
    p = Presentation.baumslag_solitar(-2)
    u, v, w = (reduce_letters(p, ls) for ls in (l1, l2, l3))
    left = multiply(multiply(u, v), w)
    right = multiply(u, multiply(v, w))
    assert left.word == right.word
    assert normal_form_key(p, left) == normal_form_key(p, right)
