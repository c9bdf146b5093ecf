"""The shortlex ball walker and the images it carries.

Every sweep in ``lineact.dynamics`` folds a point value or an interval image
through :func:`lineact.words.walk` one letter at a time instead of rebuilding
each word's homeomorphism.  These tests rebuild it anyway: each carried
value must match ``realize`` followed by a fresh evaluation, bound for bound.
"""

from fractions import Fraction
from itertools import product

import pytest

from lineact.actions import (
    Action,
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    realize,
)
from lineact.dynamics import _ball_images, _image_or_none, _letter_step
from lineact.homeo import Affine, UnitPowerLadder, eval_interval, evaluate
from lineact.reals import Interval, PrecisionExhausted, Real
from lineact.words import Presentation, key_rule, normal_form_key, reduce_letters, walk

RADIUS = 4


def _sqrt2_extension():
    inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
    return extend_action(direct_product_extension(inner, coset_label="t"))


# name -> (action, interval, point)
ACTIONS = {
    "ex_1_2": (lambda: gallery("ex_1_2"), (Fraction(1, 10), Fraction(3, 10)),
               Fraction(1, 3)),
    "ex_1_4": (lambda: gallery("ex_1_4", k=2), (Fraction(1, 4), Fraction(3, 8)),
               Fraction(1, 3)),
    "klein_bottle": (lambda: gallery("klein_bottle"),
                     (Fraction(7, 16), Fraction(9, 16)), Fraction(3, 8)),
    "free_transitive": (lambda: gallery("free_transitive"),
                        (Fraction(1, 10), Fraction(1, 5)), Fraction(1, 2)),
    "sqrt2_extension": (_sqrt2_extension, (Fraction(1, 5), Fraction(2, 5)),
                        Fraction(1, 3)),
}


def _images(act, iv, radius, dedup):
    """``_ball_images``, or the same walk over every reduced word."""
    if dedup:
        return _ball_images(act, iv, radius)
    return walk(act.presentation, radius, None, iv, _letter_step(act, _image_or_none))


def _shortlex_reduced_words(p, radius):
    """Every freely reduced word of length <= radius, in shortlex order,
    built from letter sequences without the walker."""
    order = [(i, s) for i in range(p.rank) for s in (1, -1)]
    out = []
    for n in range(radius + 1):
        for seq in product(order, repeat=n):
            if all(a[0] != b[0] or a[1] == b[1] for a, b in zip(seq, seq[1:])):
                out.append(reduce_letters(p, seq))
    return out


@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_carried_images_match_rebuilt_images(name, dedup):
    build, (lo, hi), x0 = ACTIONS[name]
    act = build()
    iv = Interval.open(lo, hi)
    x = Real.from_fraction(x0)
    evaluable = 0
    for w, img in _images(act, iv, RADIUS, dedup):
        h = realize(act, w)
        if img is None:
            with pytest.raises(PrecisionExhausted):
                eval_interval(h, iv)
            continue
        evaluable += 1
        ref = eval_interval(h, iv)
        assert img.lo.bounds() == ref.lo.bounds(), str(w)
        assert img.hi.bounds() == ref.hi.bounds(), str(w)
        assert (img.open_lo, img.open_hi) == (ref.open_lo, ref.open_hi)
    assert evaluable > 1
    p = act.presentation
    for w, v in walk(p, RADIUS, key_rule(p) if dedup else None, x,
                     _letter_step(act, evaluate)):
        assert v.bounds() == evaluate(realize(act, w), x).bounds(), str(w)


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_walk_lists_shortlex_words(name):
    p = ACTIONS[name][0]().presentation
    words = _shortlex_reduced_words(p, RADIUS)
    assert [w for w, _ in walk(p, RADIUS, None)] == words

    first_per_element = {}
    for w in words:
        first_per_element.setdefault(normal_form_key(p, w), w)
    assert [w for w, _ in walk(p, RADIUS, key_rule(p))] == list(first_per_element.values())


@pytest.mark.parametrize("dedup", [True, False])
def test_unevaluable_image_stays_none_on_extensions(dedup):
    # with k = 2^25 every ladder cell left of 0 has an out-of-range exponent,
    # so g is unevaluable wherever f^-1 has moved the interval
    p = Presentation.free(2, labels=("g", "f"))
    act = Action(p, {"g": UnitPowerLadder(2**25, 1),
                     "f": Affine(Real.rational(1), Real.rational(1))})
    iv = Interval.open(Fraction(1, 4), Fraction(3, 8))
    walked = list(_images(act, iv, 3, dedup))
    images = {w.word: img for w, img in walked}
    assert any(img is None for _, img in walked)
    for w, img in walked:
        letters = list(w.letters())
        suffixes = [reduce_letters(p, letters[k:]).word for k in range(1, len(letters))]
        if any(images.get(s, 0) is None for s in suffixes):
            assert img is None, str(w)
        if img is None:
            with pytest.raises(PrecisionExhausted):
                eval_interval(realize(act, w), iv)
