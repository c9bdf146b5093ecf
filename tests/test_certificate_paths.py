"""Both paths of ``wandering_certificate`` give the same verdicts.

When ``simplify`` proves every defining relation, a certificate judges each
group element once, at its shortlex-first spelling, and every other spelling
reports that verdict.  Otherwise it judges every word on its own.  On the
gallery, and on the sqrt2 direct-product extension (``sqrt2_extension``),
the relations are proved, and forcing the per-word path must give the same
verdict list, word for word.  A spec file whose relation fails
takes the per-word path: two spellings of one element get verdicts of
their own.
"""

from fractions import Fraction as F

import pytest

import lineact.dynamics as dyn
from lineact.actions import (
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    relations_proved,
)
from lineact.dynamics import wandering_certificate
from lineact.parse import parse_action_file
from lineact.reals import Interval
from lineact.words import normal_form_key, parse_word

CASES = [
    ("klein_bottle", {}, (F(7, 16), F(9, 16)), 7),
    ("klein_bottle", {}, (F(45, 100), F(55, 100)), 6),
    ("ex_1_1", {}, (F(0), F(1, 2)), 7),
    ("ex_1_1", {}, (F(0), F(1, 2)), 3),
    ("ex_1_3", {}, (F(1, 5), F(3, 10)), 5),
    ("ex_1_4", {"k": 2}, (F(1, 5), F(3, 10)), 6),
    ("ex_1_4", {"k": 3}, (F(1, 5), F(3, 10)), 5),
    ("free_transitive", {}, (F(1, 10), F(1, 5)), 5),
    ("sqrt2_extension", {}, (F(1, 10), F(1, 5)), 4),
]


def _action(name, params):
    if name == "sqrt2_extension":
        inner = conjugate_into_unit(gallery("ex_1_2", alpha="sqrt2"))
        return extend_action(direct_product_extension(inner, coset_label="t"))
    return gallery(name, **params)


def _listing(cert):
    return [(str(v.word), v.verdict, v.reason) for v in cert.verdicts]


@pytest.mark.parametrize("name, params, ends, radius", CASES,
                         ids=[c[0] + "".join(f"-k{k}" for k in c[1].values()) + f"-r{c[3]}"
                              for c in CASES])
def test_per_element_verdicts_match_per_word_verdicts(monkeypatch, name, params, ends, radius):
    act = _action(name, params)
    J = Interval.open(*ends)
    assert relations_proved(act)
    by_element = wandering_certificate(act, J, radius)
    monkeypatch.setattr(dyn, "relations_proved", lambda act: False)
    by_word = wandering_certificate(act, J, radius)
    assert _listing(by_element) == _listing(by_word)
    assert (by_element.certified, by_element.witness) == (by_word.certified, by_word.witness)


UNPROVED_SPEC = "group free_abelian 2\ngen a = affine(2,0)\ngen b = affine(1,1)\n"


def test_unproved_relation_takes_per_word_path(monkeypatch):
    # a b = 2x+2 and b a = 2x+1 are one element of Z^2, yet only a b moves
    # J, around the fixed point -1 of b a, off itself
    act = parse_action_file(UNPROVED_SPEC)
    p = act.presentation
    ab, ba = parse_word(p, "a b"), parse_word(p, "b a")
    assert normal_form_key(p, ab) == normal_form_key(p, ba)
    assert not relations_proved(act)
    J = Interval.open(F(-11, 10), F(-9, 10))

    def verdicts():
        cert = wandering_certificate(act, J, 2)
        return {str(v.word): (v.verdict, v.reason) for v in cert.verdicts}

    got = verdicts()
    assert got["a b"] == ("disjoint", "")
    assert got["b a"] == ("violation", "identity not proved")
    # the per-element path would have given both spellings one verdict
    monkeypatch.setattr(dyn, "relations_proved", lambda act: True)
    forced = verdicts()
    assert forced["a b"] == forced["b a"]
