"""The left-multiplication rule behind every normal form, against oracles
that share no code with lineact.

``normal_form_key`` folds one rule per family, key(l . w) from key(w), over
a word's letters, and ``walk`` carries each word's key through the same
rule.  Certificates give every spelling of an element the verdict of its
first spelling, so they are only as sound as these keys.  The oracles:

* B(1,n): ``perfbench/oracles.bs_element``, the faithful affine model;
* free abelian: the exponent sums;
* ladder: ``_reference_ladder_fold`` of ``tests/test_words.py``, the ladder
  normal form as first written, one product per rank;
* free: the freely reduced word.

The balls the keyed walk enumerates are also compared, word for word and in
order, with those of the walk as it was written before it carried keys,
which recomputed each candidate word's normal form from scratch.
"""

import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineact.words import (
    GroupElement,
    Presentation,
    ball,
    key_rule,
    normal_form_key,
    reduce_letters,
    walk,
)
from test_words import _reference_ladder_fold

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import oracles  # noqa: E402

BS_TWISTS = [-3, -2, -1, 2, 3]
LADDER_NAMES = [(), (1,), (-1,), (1, 1), (1, -1), (-1, 1), (-1, -1)]
PRESENTATIONS = (
    [Presentation.free(r) for r in (1, 2, 3)]
    + [Presentation.free_abelian(r) for r in (1, 2, 3)]
    + [Presentation.baumslag_solitar(n) for n in BS_TWISTS]
    + [Presentation.ladder(name) for name in LADDER_NAMES]
)


def _oracle_key(p, w):
    if p.kind == "free":
        return ("free", w.word)
    if p.kind == "free_abelian":
        return ("fa", tuple(sum(e for g, e in w.word if g == i) for i in range(p.rank)))
    if p.kind == "bs":
        return ("bs", oracles.bs_element(w.word, p.n))
    return ("ladder", _reference_ladder_fold(p, w))


@st.composite
def presented_words(draw):
    p = draw(st.sampled_from(PRESENTATIONS))
    letters = draw(st.lists(
        st.tuples(st.integers(0, p.rank - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])),
        max_size=14))
    return p, reduce_letters(p, letters)


@given(presented_words())
@settings(derandomize=True, max_examples=1000, deadline=None)
def test_normal_form_key_matches_oracle(pw):
    p, w = pw
    assert normal_form_key(p, w) == _oracle_key(p, w), (p, w)


@pytest.mark.parametrize("p", PRESENTATIONS, ids=Presentation.describe)
def test_walk_carried_keys_match_oracle(p):
    # the rule carried along every freely reduced word, as certificates do
    tag = normal_form_key(p, p.identity())[0]
    key, rule = key_rule(p)
    radius = 5 if p.rank < 3 else 4
    for w, k in walk(p, radius, None, key, rule):
        assert (tag, k) == _oracle_key(p, w), str(w)


@pytest.mark.parametrize("n", [-1, 1])
def test_unit_twist_keeps_integer_translations(n):
    # Fraction arithmetic would dominate the klein bottle walks
    p = Presentation.baumslag_solitar(n)
    for w in ball(p, 5):
        assert type(normal_form_key(p, w)[1][1]) is int, str(w)


# ---------------------------------------------------------------------------
# the walk as it was before it carried keys, kept verbatim as a reference


def _reduce(pairs):
    out = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((g, s))
        else:
            out.append((g, e))
    return tuple(out)


def _bs_pair(p, w):
    n = p.n
    m, t = 0, Fraction(0)
    for g, e in w.word:
        if g == 0:
            t += Fraction(n) ** m * e
        else:
            m += e
    return (m, t)


def _ladder_fold(p, w):
    # Normal ordering f_0^a f_1^b (f_2^c), folded letter by letter.  Moving
    # f_g^e left past f_{g+1}'s power twists that exponent by n_g^e; f_0 and
    # f_2 commute.
    acc = [0] * p.rank
    for g, e in w.word:
        if e % 2 and g < len(p.name):
            acc[g + 1] *= p.name[g]
        acc[g] += e
    return tuple(acc)


def _reference_normal_form_key(p, w):
    """A hashable canonical form; equal keys iff equal group elements."""
    if p.kind == "free":
        return ("free", w.word)
    if p.kind == "free_abelian":
        return ("fa", tuple(w.exponent_sum(i) for i in range(p.rank)))
    if p.kind == "bs":
        return ("bs", _bs_pair(p, w))
    if p.kind == "ladder":
        return ("ladder", _ladder_fold(p, w))
    raise ValueError(p.kind)


def _letter_order(p):
    out = []
    for i in range(p.rank):
        out.append((i, 1))
        out.append((i, -1))
    return out


def _reference_walk(p, radius, dedup, carry=None, step=None):
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    ident = p.identity()
    yield ident, carry
    seen = {_reference_normal_form_key(p, ident)} if dedup else None
    frontier = [(ident, carry)]
    letters = _letter_order(p)
    for _ in range(radius):
        nxt = []
        for lg, le in letters:
            for w, c in frontier:
                # left extension keeps words freely reduced and shortlex sorted
                if w.word and w.word[0][0] == lg and (w.word[0][1] > 0) != (le > 0):
                    continue
                w2 = GroupElement(p, _reduce(((lg, le),) + w.word))
                if dedup:
                    key = _reference_normal_form_key(p, w2)
                    if key in seen:
                        continue
                    seen.add(key)
                c2 = c if step is None else step((lg, le), c)
                nxt.append((w2, c2))
                yield w2, c2
        # words generated above are lex within this length by construction
        frontier = nxt


@pytest.mark.parametrize("p", PRESENTATIONS, ids=Presentation.describe)
def test_ball_matches_reference_walk(p):
    assert ball(p, 6) == [w for w, _ in _reference_walk(p, 6, True)]


@pytest.mark.parametrize("p", PRESENTATIONS[:6], ids=Presentation.describe)
def test_free_reduced_walk_matches_reference_walk(p):
    radius = 5 if p.rank < 3 else 3
    assert ([w for w, _ in walk(p, radius, None)]
            == [w for w, _ in _reference_walk(p, radius, False)])
