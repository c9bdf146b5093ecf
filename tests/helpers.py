"""Shared test utilities: tracked square roots, the random expression
corpus and the relation-rewriting oracle."""

import random
from fractions import Fraction

from mpmath.libmp import mpi_sqrt

from lineact.homeo import (
    Affine,
    BoundedConjugate,
    Compose,
    Identity,
    Inverse,
    OddPower,
    UnitPowerLadder,
)
from lineact.reals import Real, _mpi_from_fraction, current_precision
from lineact.words import Presentation, free_reduced_words, reduce_letters


def upper(v) -> float:
    return float(abs(v).bounds()[1])


def radius(v) -> Fraction:
    """Half the width of v's enclosure: 0 for an exact value."""
    lo, hi = v.bounds()
    return (hi - lo) / 2


def _tracked_sqrt(n: int) -> Real:
    p = current_precision().bits
    return Real(None, mpi_sqrt(_mpi_from_fraction(Fraction(n), p), p))


def tracked_sqrt2() -> Real:
    """An enclosure of sqrt(2) at working precision, a tracked operand: the
    exact ``Real.sqrt2()`` never takes the tracked path."""
    return _tracked_sqrt(2)


def tracked_sqrt3() -> Real:
    """An enclosure of sqrt(3) at working precision (see tracked_sqrt2)."""
    return _tracked_sqrt(3)


def same_enclosure(x: Real, y: Real) -> bool:
    """Are x and y tracked values with one and the same enclosure?  Tracked
    equality is identity, so a test of an enclosure compares it here."""
    return x.kind == y.kind == "tracked-real" and x._mpi == y._mpi


def random_tree(rng: random.Random, depth: int):
    """Random homeomorphism expression, depth-bounded.

    Ladder base 1 keeps compositions in the numerically conditioned regime
    (cell exponents stay 2 and 1/2); deeper bases explode near far-negative
    cell edges and are exercised by the dedicated closed-form suites.
    """
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            a = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            b = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            return Affine(Real.from_fraction(a), Real.from_fraction(b))
        if kind == 1:
            return OddPower(rng.choice((3, 5)), rng.random() < 0.5)
        if kind == 2:
            return UnitPowerLadder(1, rng.choice((1, -1)))
        return Identity()
    kind = rng.randrange(3)
    if kind == 0:
        return Compose(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 1:
        return Inverse(random_tree(rng, depth - 1))
    return BoundedConjugate(random_tree(rng, depth - 1))


def rewriting_classes(p: Presentation, max_len: int, depth: int):
    """Oracle: partition words by exhaustive relation rewriting.

    Applies every defining relation (both directions, either orientation)
    at every position, breadth-first to the given depth, and groups the words
    of length <= max_len whose rewriting closures intersect.
    """
    rels = []
    for lhs, rhs in p.relations():
        rels.append((lhs.word, rhs.word))
        rels.append((rhs.word, lhs.word))
        rels.append((tuple((g, -e) for g, e in reversed(lhs.word)),
                     tuple((g, -e) for g, e in reversed(rhs.word))))
        rels.append((tuple((g, -e) for g, e in reversed(rhs.word)),
                     tuple((g, -e) for g, e in reversed(lhs.word))))

    def letters_of(word):
        out = []
        for g, e in word:
            step = 1 if e > 0 else -1
            out.extend([(g, step)] * abs(e))
        return tuple(out)

    rel_letter_pairs = [(letters_of(a), letters_of(b)) for a, b in rels]

    def neighbors(letters):
        for i in range(len(letters) + 1):
            for pat, rep in rel_letter_pairs:
                if letters[i:i + len(pat)] == pat:
                    yield reduce_letters(
                        p, letters[:i] + rep + letters[i + len(pat):]
                    )

    words = list(free_reduced_words(p, max_len, include_identity=True))
    index = {}
    classes = []
    for w in words:
        if w.word in index:
            continue
        cls = {w.word}
        frontier = [tuple(w.letters())]
        seen = {tuple(w.letters())}
        for _ in range(depth):
            nxt = []
            for letters in frontier:
                for nb in neighbors(letters):
                    key = tuple(nb.letters())
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
                        cls.add(nb.word)
            frontier = nxt
        cid = len(classes)
        classes.append(cls)
        for member in cls:
            index.setdefault(member, cid)
    return index, words
