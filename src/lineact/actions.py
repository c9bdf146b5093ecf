"""Bindings of presentations to line homeomorphisms.

An :class:`Action` maps each generator label of a presentation to a
homeomorphism expression.  Words act through :func:`realize` with the left
action convention: the leftmost letter of a word acts last (outermost).
:func:`check_relations` passes a defining relation on a proof, when
simplification takes its relator lhs rhs^-1 to the identity, and on nothing
else: neither a tolerance nor a sample of exact zeros stands in for a proof.

The :func:`gallery` registry holds the stock catalog of actions used across
the test and demo suites, addressable by catalog id (``ex_1_1`` ...
``free_transitive``) or by a descriptive alias.

:func:`extend_action` implements the induction step that upgrades an action
of a normal subgroup H supported on (0,1) to an action of an extension G
with infinite cyclic quotient: the coset generator translates by one and an
H-generator acts on each cell [j, j+1] through a conjugated H-word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .homeo import (
    Affine,
    BoundedConjugate,
    ExtensionCell,
    HomeoExpr,
    Identity,
    OddPower,
    UnitPowerLadder,
    _cell_pieces,
    compose,
    evaluate,
    inverse,
    simplify,
)
from .reals import _ONE, _ZERO, Interval, Real, parse_real
from .words import (
    GroupElement,
    Letter,
    Presentation,
    multiply,
    reduce_letters,
)

__all__ = [
    "Action",
    "realize",
    "RelationCheck",
    "RelationReport",
    "check_relations",
    "relations_proved",
    "sample_points",
    "gallery",
    "gallery_entries",
    "ExtensionSpec",
    "extend_action",
    "direct_product_extension",
    "conjugate_into_unit",
    "homomorphism_residual",
    "random_element",
]


@dataclass
class Action:
    """Generator images for a presentation; ``letter_maps[(i, 1)]`` is
    generator i's image, ``(i, -1)`` its inverse."""

    presentation: Presentation
    images: dict[str, HomeoExpr]

    def __post_init__(self):
        self.letter_maps: dict[Letter, HomeoExpr] = {}
        for i, lab in enumerate(self.presentation.labels):
            if lab not in self.images:
                raise ValueError(f"no image bound for generator {lab!r}")
            self.letter_maps[(i, 1)] = self.images[lab]
            self.letter_maps[(i, -1)] = inverse(self.images[lab])

    def image(self, label: str) -> HomeoExpr:
        try:
            return self.images[label]
        except KeyError:
            raise ValueError(f"no generator named {label!r}") from None


def realize(act: Action, w: GroupElement) -> HomeoExpr:
    """The homeomorphism of a word: leftmost letter outermost."""
    if w.presentation != act.presentation:
        raise ValueError("word is over a different presentation")
    return compose(*[act.letter_maps[letter] for letter in w.letters()])


# ---------------------------------------------------------------------------
# relation checking


@dataclass
class RelationCheck:
    lhs: GroupElement
    rhs: GroupElement
    residual: Real
    passed: bool


@dataclass
class RelationReport:
    checks: list[RelationCheck]
    sample_size: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> Real:
        return _largest(c.residual for c in self.checks)


def _largest(residuals) -> Real:
    """The residual with the largest upper endpoint, the first of equal
    maxima; 0 when none exceeds 0."""
    worst = _ZERO
    for r in residuals:
        if r.cmp_upper(worst) > 0:
            worst = r
    return worst


def sample_points(window: Interval, count: int) -> list[Real]:
    """Deterministic rational sample grid strictly inside a window."""
    if count < 1:
        raise ValueError(f"need at least one sample point, got {count}")
    lo, hi = window.lo, window.hi
    span = hi - lo
    return [lo + span * Real.rational(2 * j + 1, 2 * count) for j in range(count)]


def _proved(act: Action, lhs: GroupElement, rhs: GroupElement) -> bool:
    """Whether simplify takes the relator lhs rhs^-1 to the identity."""
    return simplify(realize(act, multiply(lhs, rhs.inverse()))) == Identity()


def relations_proved(act: Action) -> bool:
    """Whether simplify proves every relation: then a word acts by its element."""
    return all(_proved(act, lhs, rhs) for lhs, rhs in act.presentation.relations())


def check_relations(act: Action, points: Sequence[Real]) -> RelationReport:
    """Each defining relation, passed exactly when simplify proves it, with
    residual exactly 0.  An unproved relation fails, with the worst residual
    |lhs(x) - rhs(x)| of its simplified sides over the sample: a sample can
    refute a relation, never prove it.  Failure is a report outcome, never
    an exception.
    """
    if not points:
        raise ValueError("need at least one sample point")
    checks = []
    for lhs, rhs in act.presentation.relations():
        if _proved(act, lhs, rhs):
            checks.append(RelationCheck(lhs, rhs, _ZERO, True))
            continue
        hl, hr = simplify(realize(act, lhs)), simplify(realize(act, rhs))
        worst = _largest(abs(evaluate(hl, x) - evaluate(hr, x)) for x in points)
        checks.append(RelationCheck(lhs, rhs, worst, False))
    return RelationReport(checks, len(points))


# ---------------------------------------------------------------------------
# the stock gallery


def _alpha_param(alpha) -> Real:
    if isinstance(alpha, Real):
        return alpha
    if isinstance(alpha, (int, Fraction)):
        return Real.coerce(alpha)
    if isinstance(alpha, str):
        try:
            return parse_real(alpha)
        except ValueError:
            pass
    raise ValueError(f"cannot parse alpha {alpha!r}")


def _gallery_integer_translation() -> Action:
    p = Presentation.free_abelian(1, labels=("a",))
    return Action(p, {"a": Affine(_ONE, _ONE)})


def _gallery_two_translations(alpha="sqrt2") -> Action:
    p = Presentation.free_abelian(2, labels=("a", "b"))
    return Action(p, {
        "a": Affine(_ONE, _ONE),
        "b": Affine(_ONE, _alpha_param(alpha)),
    })


def _gallery_affine_dilation(n=2) -> Action:
    if not isinstance(n, int):  # int(n) would build B(1,2) from n = 2.9
        raise ValueError(f"the dilation catalog entry needs an integer n, got {n!r}")
    if n < 2:
        raise ValueError("the dilation catalog entry needs n >= 2")
    p = Presentation.baumslag_solitar(n, labels=("a", "b"))
    return Action(p, {
        "a": Affine(_ONE, _ONE),
        "b": Affine(Real.rational(n), _ZERO),
    })


def _gallery_power_ladder(k=2) -> Action:
    if not isinstance(k, int):  # int(k) would build B(1,-2) from k = 2.5
        raise ValueError(f"the alternating ladder catalog entry needs an integer k, got {k!r}")
    if k < 2:
        raise ValueError("the alternating ladder catalog entry needs k >= 2")
    p = Presentation.baumslag_solitar(-k, labels=("g", "f"))
    return Action(p, {
        "g": UnitPowerLadder(k, 1),
        "f": Affine(_ONE, _ONE),
    })


def _gallery_klein_bottle() -> Action:
    p = Presentation.baumslag_solitar(-1, labels=("g", "f"))
    return Action(p, {
        "g": UnitPowerLadder(1, 1),
        "f": Affine(_ONE, _ONE),
    })


def _gallery_free_transitive() -> Action:
    p = Presentation.free(2, labels=("f", "g"))
    return Action(p, {
        "f": Affine(_ONE, _ONE),
        "g": OddPower(3),
    })


_GALLERY = {
    "ex_1_1": (_gallery_integer_translation,
               "unit translation generating an integer-translation action"),
    "ex_1_2": (_gallery_two_translations,
               "two translations, by 1 and by alpha (minimal for irrational alpha)"),
    "ex_1_3": (_gallery_affine_dilation,
               "translation plus dilation by n, realizing B(1,n), n >= 2"),
    "ex_1_4": (_gallery_power_ladder,
               "translation plus alternating cellwise power map, realizing B(1,-k)"),
    "klein_bottle": (_gallery_klein_bottle,
                     "k = 1 ladder: Klein bottle group action with fgf^-1 = g^-1"),
    "free_transitive": (_gallery_free_transitive,
                        "x+1 and x^3 generating a free rank-2 transitive action"),
}

_ALIASES = {
    "integer_translation": "ex_1_1",
    "two_translations": "ex_1_2",
    "affine_dilation": "ex_1_3",
    "alternating_power_ladder": "ex_1_4",
}


def gallery(name: str, **params) -> Action:
    """Build a catalog action by id or alias."""
    key = _ALIASES.get(name, name)
    if key not in _GALLERY:
        raise ValueError(f"no catalog action named {name!r}")
    builder, _ = _GALLERY[key]
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def gallery_entries() -> list[tuple[str, str]]:
    return [(k, desc) for k, (_, desc) in _GALLERY.items()]


# ---------------------------------------------------------------------------
# the extension operator


@dataclass(eq=False)
class ExtensionSpec:
    """Data for extending an H-action on (0,1) to a cyclic extension G.

    ``conjugation_rule(j, w)`` must return the H-word representing the coset
    generator conjugate a^-j w a^j; it has to be the identity at j = 0 and a
    homomorphism in w for each fixed j; the default, w itself, makes the
    coset generator central.  ``group`` is the presentation of G, whose
    labels are the coset label plus the inner action's labels.  Specs compare
    by identity, so the cells of two specs never compare equal.
    """

    inner_action: Action
    group: Presentation
    coset_label: str = "a"
    conjugation_rule: Callable[[int, GroupElement], GroupElement] = lambda j, w: w
    horizon: int = 64
    _cell_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.horizon < 0:   # no cell would evaluate: each would be the identity
            raise ValueError(f"horizon must be nonnegative, got {self.horizon}")
        if self.coset_label not in self.group.labels:
            raise ValueError("group presentation lacks the coset label")
        for lab in self.inner_action.presentation.labels:
            if lab not in self.group.labels:
                raise ValueError(f"group presentation lacks inner label {lab!r}")

    def _entry(self, j: int, word: GroupElement) -> list:
        # a cell map depends on the conjugated word alone
        w = self.conjugation_rule(j, word)
        entry = self._cell_cache.get(w.word)
        if entry is None:
            entry = self._cell_cache[w.word] = [simplify(realize(self.inner_action, w))]
        return entry

    def cell_expr(self, j: int, word: GroupElement) -> HomeoExpr:
        return self._entry(j, word)[0]

    def cell_map(self, j: int, word: GroupElement) -> list:
        """[cell j's map, its pieces (``homeo._cell_pieces``)], the pieces
        compiled at the first call: evaluation calls this, simplify never."""
        entry = self._entry(j, word)
        if len(entry) == 1:
            entry.append(_cell_pieces(entry[0]))
        return entry


def extend_action(spec: ExtensionSpec) -> Action:
    """The G-action: coset generator translates by 1, H-generators act cellwise."""
    images: dict[str, HomeoExpr] = {spec.coset_label: Affine(_ONE, _ONE)}
    inner_p = spec.inner_action.presentation
    for i, lab in enumerate(inner_p.labels):
        images[lab] = ExtensionCell(spec, inner_p.generator(i))
    return Action(spec.group, images)


def conjugate_into_unit(act: Action) -> Action:
    """Conjugate a line action into one supported on (0,1), endpoints fixed.

    Uses the rational conjugacy x -> x/(1+|x|) onto (-1,1) followed by the
    affine squeeze onto (0,1), so rational maps stay rational.
    """
    squeeze = Affine(Real.rational(1, 2), Real.rational(1, 2))
    images = {
        lab: compose(squeeze, BoundedConjugate(img), inverse(squeeze))
        for lab, img in act.images.items()
    }
    return Action(act.presentation, images)


def direct_product_extension(inner: Action, coset_label: str = "t",
                             horizon: int = 64) -> ExtensionSpec:
    """Z x H with the trivial conjugation rule (coset generator central)."""
    H = inner.presentation
    if H.kind != "free_abelian":
        raise ValueError(
            "direct product spec shorthand needs a free abelian inner group"
        )
    if coset_label in H.labels:
        raise ValueError("coset label collides with an inner label")
    G = Presentation.free_abelian(1 + H.rank, labels=(coset_label,) + H.labels)
    return ExtensionSpec(inner, G, coset_label, horizon=horizon)


# ---------------------------------------------------------------------------
# randomized sweeps


def random_element(p: Presentation, rng: random.Random, max_len: int) -> GroupElement:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randrange(p.rank), rng.choice((1, -1))))
    return reduce_letters(p, letters)


# Entries homomorphism_residual's suffix memo holds before it is cleared:
# 200 pairs x 50 points peak near 2 MB traced at 4096 entries, 15 MB unbounded.
_SUFFIX_MEMO_ENTRIES = 4096


def homomorphism_residual(act: Action, n_pairs: int, points: Sequence[Real],
                          max_len: int = 6, seed: int = 0) -> Real:
    """Worst |(uv)(x) - u(v(x))| over random word pairs and sample points.

    It measures rounding, never the relations: ``multiply`` freely reduces,
    so uv = u'v' for u = u'c, v = c^-1 v', while u o v = u' o c o c^-1 o v',
    one map in every action.  Only :func:`check_relations` tests relations.

    Words act letter by letter, last letter first, so uv, v and u o v (the
    letters of u then v) share suffixes.  One memo per call maps (letter
    suffix, point index) to that suffix's image of the point; an image
    extends the longest memoized suffix one letter map at a time.  Every
    letter map still runs on the same point at the same precision, so each
    residual is the enclosure evaluating the realized words would give.
    """
    if n_pairs < 1 or max_len < 1 or not points:
        raise ValueError(f"need n_pairs >= 1, max_len >= 1 and a sample point; got "
                         f"n_pairs={n_pairs}, max_len={max_len}, {len(points)} points")
    rng = random.Random(seed)
    pts = [Real.coerce(x) for x in points]
    maps = act.letter_maps
    memo: dict[tuple[tuple[Letter, ...], int], Real] = {}

    def image(letters: tuple[Letter, ...], i: int) -> Real:
        j, y = len(letters), pts[i]
        for s in range(len(letters)):
            hit = memo.get((letters[s:], i))
            if hit is not None:
                j, y = s, hit
                break
        for s in reversed(range(j)):
            y = evaluate(maps[letters[s]], y)
            if len(memo) >= _SUFFIX_MEMO_ENTRIES:
                memo.clear()
            memo[(letters[s:], i)] = y
        return y

    def residuals():
        for _ in range(n_pairs):
            u = random_element(act.presentation, rng, max_len)
            v = random_element(act.presentation, rng, max_len)
            uv = tuple(multiply(u, v).letters())
            u_then_v = tuple(u.letters()) + tuple(v.letters())
            for i in range(len(pts)):
                yield abs(image(uv, i) - image(u_then_v, i))

    return _largest(residuals())
