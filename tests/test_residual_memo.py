"""homomorphism_residual's suffix memo against evaluating realized words.

``reference_residual`` is the residual sweep as it was before the memo:
each pair realizes uv, u and v and evaluates them afresh at every
point.  The memoized sweep must give the same enclosure, bit for bit, and
raise where the reference raises.
"""

import random

import pytest

import lineact.actions as actions_mod
from lineact.actions import (
    _largest,
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    homomorphism_residual,
    random_element,
    realize,
    sample_points,
)
from lineact.homeo import evaluate
from lineact.reals import Interval, PrecisionExhausted, Real
from lineact.words import multiply

from helpers import tracked_sqrt2

R = Real.rational


def reference_residual(act, n_pairs, points, max_len=6, seed=0):
    """Worst |(uv)(x) - u(v(x))| over random word pairs and sample points."""
    rng = random.Random(seed)

    def residuals():
        for _ in range(n_pairs):
            u = random_element(act.presentation, rng, max_len)
            v = random_element(act.presentation, rng, max_len)
            hu, hv = realize(act, u), realize(act, v)
            huv = realize(act, multiply(u, v))
            for x in points:
                yield abs(evaluate(huv, x) - evaluate(hu, evaluate(hv, x)))

    return _largest(residuals())


def outcome(fn, *args):
    """The result's exact value or tracked enclosure, or the raised error."""
    try:
        r = fn(*args)
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc))
    # an exact value's _mpi only caches its rounding
    return (r.kind, r._mpi if r.kind == "tracked-real" else (r._rat, r._quad))


def sqrt2_extension():
    inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
    return extend_action(direct_product_extension(inner, coset_label="t"))


ACTIONS = {
    "sqrt2_extension": sqrt2_extension,
    "klein_bottle": lambda: gallery("klein_bottle"),
    "ex_1_3": lambda: gallery("ex_1_3", n=2),
    "free_transitive": lambda: gallery("free_transitive"),
}
POINTS = {
    "exact": lambda: sample_points(Interval.closed(-3, 3), 4),
    "sqrt2": lambda: [tracked_sqrt2() * R(j, 3) for j in (-4, -1, 2, 5)],
}
SEEDS = range(10)


@pytest.mark.parametrize("points", sorted(POINTS))
@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_matches_reference(name, points):
    act, pts = ACTIONS[name](), POINTS[points]()
    for seed in SEEDS:
        want = outcome(reference_residual, act, 12, pts, 6, seed)
        assert want[0] != "PrecisionExhausted", (name, points, seed)
        assert outcome(homomorphism_residual, act, 12, pts, 6, seed) == want, \
            (name, points, seed)


@pytest.mark.parametrize("bound", [1, 3, 7])
def test_clearing_memo_keeps_results(monkeypatch, bound):
    monkeypatch.setattr(actions_mod, "_SUFFIX_MEMO_ENTRIES", bound)
    act = sqrt2_extension()
    for make_points in POINTS.values():
        pts = make_points()
        for seed in SEEDS:
            assert outcome(homomorphism_residual, act, 6, pts, 6, seed) == \
                outcome(reference_residual, act, 6, pts, 6, seed), (bound, seed)


def test_raises_where_reference_raises():
    # enclosures touching a far-negative ladder cell edge exhaust precision
    # for some seeds; the memo must neither hide nor invent that failure
    act = gallery("ex_1_4", k=2)
    pts = sample_points(Interval.closed(-3, 3), 10)
    raised = 0
    for seed in range(30):
        want = outcome(reference_residual, act, 10, pts, 6, seed)
        raised += want[0] == "PrecisionExhausted"
        assert outcome(homomorphism_residual, act, 10, pts, 6, seed) == want, seed
    assert raised > 0
