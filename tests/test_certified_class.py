"""Certified orbit-closure classes of exact affine actions.

Generated actions whose class is known by construction check every
certified class; pinned examples keep tracked and unproved actions on the
sampled path.  The paper's dichotomy gives a second opinion: a certified
dense class has transitivity witnesses, and a certified discrete sequence
leaves room for a wandering interval shorter than its lattice step.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineact.actions import Action, gallery
from lineact.dynamics import (
    classify_orbit_closure,
    transitivity_search,
    wandering_certificate,
)
from lineact.homeo import Affine, Identity
from lineact.parse import parse_action_file
from lineact.reals import Interval, Real
from lineact.words import Presentation

WINDOW = Interval.closed(0, 1)
ROOTS = {2: Real.sqrt2(), 3: Real.sqrt3()}

# x + 1 and 2x do not commute, so the free-abelian relation is not proved
UNPROVED = "group free_abelian 2\ngen a = affine(1, 1)\ngen b = affine(2, 0)\n"
# no relation; the fixed points are 0 and sqrt3/(1 - sqrt2), which mixes
# sqrt2 with sqrt3 and so is a tracked enclosure
MIXED = "group free 2\ngen a = affine(sqrt2, 0)\ngen b = affine(sqrt2, sqrt3)\n"

_nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def _scale(draw):
    """(c, r): a nonzero exact c, rational (r None) or in Q(sqrt r)."""
    q = Real.from_fraction(draw(_nonzero))
    r = draw(st.sampled_from([None, 2, 3]))
    return (q, r) if r is None else (q * ROOTS[r], r)


def _free_abelian(*maps) -> Action:
    p = Presentation.free_abelian(len(maps), labels=("a", "b")[:len(maps)])
    return Action(p, dict(zip(p.labels, maps)))


@st.composite
def _lattice(draw):
    # lengths c*n_i: the group is c*gcd(n_i)*Z
    c, _ = draw(_scale())
    ns = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=2))
    return _free_abelian(*[Affine(1, c * n) for n in ns]), "discrete-sequence"


@st.composite
def _irrational_pair(draw):
    # lengths c*n and c*sqrt(s), s = c's own radicand when it has one, so
    # both stay exact and their ratio is irrational
    c, r = draw(_scale())
    s = r or draw(st.sampled_from([2, 3]))
    n = draw(st.integers(-6, 6).filter(bool))
    maps = [Affine(1, c * n), Affine(1, c * ROOTS[s])]
    return _free_abelian(*draw(st.permutations(maps))), "dense"


@st.composite
def _identities(draw):
    n = draw(st.integers(1, 2))
    maps = draw(st.lists(st.sampled_from([Identity(), Affine(1, 0)]),
                         min_size=n, max_size=n))
    return _free_abelian(*maps), "fixed-point"


@st.composite
def _dilation_and_translation(draw):
    # BS(1, n): b a b^-1 = a^n holds for a: x + c and b: n x + beta
    c, r = draw(_scale())
    beta = draw(st.sampled_from([Real.rational(0), Real.from_fraction(draw(_nonzero)), c]))
    n = draw(st.integers(2, 5))
    p = Presentation.baumslag_solitar(n, labels=("a", "b"))
    return Action(p, {"a": Affine(1, c), "b": Affine(n, beta)}), "dense"


def _ex_1_2(alpha: str):
    return gallery("ex_1_2", alpha=alpha)


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(_lattice(), _irrational_pair(), _identities(),
                      _dilation_and_translation()),
       radius=st.sampled_from([2, 10, 20, 60]))
@example(case=(_ex_1_2("sqrt2"), "dense"), radius=2)
@example(case=(_ex_1_2("sqrt2"), "dense"), radius=10)
@example(case=(_ex_1_2("sqrt2"), "dense"), radius=20)
@example(case=(_ex_1_2("sqrt2"), "dense"), radius=60)
@example(case=(_ex_1_2("3/2"), "discrete-sequence"), radius=2)
@example(case=(_ex_1_2("3/2"), "discrete-sequence"), radius=10)
@example(case=(_ex_1_2("3/2"), "discrete-sequence"), radius=20)
@example(case=(_ex_1_2("3/2"), "discrete-sequence"), radius=60)
# None: the class must stay heuristic
@example(case=(_ex_1_2("pi"), None), radius=4)
@example(case=(parse_action_file(UNPROVED), None), radius=4)
@example(case=(parse_action_file(MIXED), None), radius=4)
def test_class_known_by_construction(case, radius):
    act, expected = case
    cls = classify_orbit_closure(act, Real.rational(1, 3), radius, WINDOW)
    if expected is None:
        assert cls.basis is None
        assert cls.evidence["radius"] == radius
    else:
        assert (cls.kind, cls.evidence) == (expected, None)
        assert cls.basis


# (U, V) pairs that some radius-20 word of either dense action connects
_PAIRS = [
    ((Fraction(0), Fraction(1, 100)), (Fraction(1, 3), Fraction(103, 300))),
    ((Fraction(5), Fraction(251, 50)), (Fraction(-1, 7), Fraction(-43, 350))),
    ((Fraction(1, 2), Fraction(33, 64)), (Fraction(10), Fraction(641, 64))),
]


@pytest.mark.parametrize("act", [_ex_1_2("sqrt2"), gallery("ex_1_3", n=2)],
                         ids=["ex_1_2_sqrt2", "ex_1_3_n2"])
def test_certified_dense_has_transitivity_witnesses(act):
    assert classify_orbit_closure(act, 0, 20, WINDOW).kind == "dense"
    for U, V in _PAIRS:
        assert transitivity_search(act, Interval.open(*U), Interval.open(*V), 20)


@pytest.mark.parametrize("act", [gallery("ex_1_1"), _ex_1_2("3/2")],
                         ids=["ex_1_1", "ex_1_2_3/2"])
def test_certified_discrete_has_a_wandering_interval(act):
    # the lattice steps are 1 and 1/2; (0, 1/4) is shorter than either
    assert classify_orbit_closure(act, 0, 6, WINDOW).kind == "discrete-sequence"
    cert = wandering_certificate(act, Interval.open(0, Fraction(1, 4)), 6)
    assert cert.certified
