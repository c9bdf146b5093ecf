"""Orbit exploration, transitivity search, wandering certificates, and the
nested-interval constructions.

Universal quantifiers over an infinite group are truncated to word balls of a
declared radius L; every verdict produced here records the radius it was
computed at.  Disjointness and containment tests use rigorous interval images
(monotone endpoint evaluation with outward error bounds); a test that cannot be
decided at the precision ceiling is reported as a violation rather than
silently passed; the ladder decides disjointness in exact (cell, tau)
coordinates first for power ladders and integer translations, where B(1,-k)
acts affinely (Abel's equation), walking one word per (cell, tau) pair; other
sweeps walk one per element, trusting the presentation's relations.  A word is
pointwise-fixed only when ``simplify`` proves it the identity: no sample of
points or tolerance stands in for that.

Certificate sweeps report a verdict for every freely reduced *word*.  When
``simplify`` proves every defining relation, w(J) depends only on w's group
element, so each element is judged once and every spelling reports its
verdict: only as sound as the normal form, which property tests guard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import Optional, Sequence

from .actions import Action, realize, relations_proved
from .homeo import (
    Affine,
    HomeoExpr,
    HorizonExceeded,
    Identity,
    UnitPowerLadder,
    eval_interval,
    evaluate,
    fixed_points,
    inverse,
    simplify,
)
from .reals import (
    _ZERO,
    _precedes,
    _quad_coords,
    _rat_add,
    Interval,
    PrecisionExhausted,
    Real,
    RealLike,
    approx_float,
    current_precision,
    retry_precision,
)
from .words import GroupElement, Presentation, ball, key_rule, multiply, normal_form_key, walk

__all__ = [
    "ConstructionFailed",
    "OrbitPoint",
    "orbit",
    "coverage_gap",
    "transitivity_search",
    "WordVerdict",
    "WanderingCertificate",
    "wandering_certificate",
    "FindReport",
    "find_wandering_interval",
    "LadderParams",
    "LadderLevel",
    "CantorLadder",
    "cantor_ladder",
    "LadderCheck",
    "check_ladder",
    "OrbitClosureClass",
    "classify_orbit_closure",
]


class ConstructionFailed(Exception):
    """A construction invariant failed; carries a diagnosis and the partial
    result, or None when the construction could not start."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# incremental ball sweeps


def _letter_step(act: Action, apply):
    """A walk step applying each letter's homeomorphism: apply(h, carry)."""
    maps = act.letter_maps
    return lambda letter, carry: apply(maps[letter], carry)


def _or_none(fn, *args):
    """fn(*args), or None when the precision ceiling or an extension's horizon
    stops it: that stops one word of a sweep, not the sweep."""
    try:
        return fn(*args)
    except (PrecisionExhausted, HorizonExceeded):
        return None


def _image_or_none(h: HomeoExpr, J: Optional[Interval]) -> Optional[Interval]:
    return None if J is None else _or_none(eval_interval, h, J)


def _ball_images(act: Action, iv: Interval, radius: int):
    """Yield (word, image of iv) over the ball, one word per group element,
    identity first.

    A word whose image cannot be evaluated (cell exponent out of range)
    carries ``None``, and so do all its extensions.
    """
    p = act.presentation
    return walk(p, radius, key_rule(p), iv, _letter_step(act, _image_or_none))


# ---------------------------------------------------------------------------
# orbits and density


@dataclass
class OrbitPoint:
    value: Real
    word: GroupElement


def orbit(act: Action, x: RealLike, radius: int) -> list[OrbitPoint]:
    """Sorted orbit sample {w(x) : w in the radius-L ball}, deduplicated.

    Points go in midpoint order, and one whose enclosure overlaps the last
    point kept is dropped (:func:`_merge_overlapping`).  So of overlapping
    enclosures the one with the least midpoint is kept, with its word; the
    shortlex-first word wins only a tie of midpoints.  An exact point can
    thus lose to a tracked enclosure of the same value whose midpoint lies
    below it.
    """
    return _merge_overlapping(_orbit_sample(act, x, radius), _point_value)


def _orbit_sample(act: Action, x: RealLike, radius: int) -> list[OrbitPoint]:
    """{w(x)} over the radius-L ball in the walk's shortlex order, one point
    per group element; the words of length <= r come first, for every r."""
    p = act.presentation
    return [OrbitPoint(v, w) for w, v in walk(
        p, radius, key_rule(p), Real.coerce(x), _letter_step(act, evaluate))]


_point_value = attrgetter("value")


def _merge_overlapping(items: list, value=lambda r: r) -> list:
    """Items sorted by value midpoint, minus each one whose enclosure overlaps
    the last one kept; of equal midpoints the earlier item comes first.

    The sort key, ``value(item).mid_key()``, is the midpoint rounded to a
    float, then exact.  Rounding is monotone, so it never orders two
    midpoints against their exact order: the exact compare breaks float ties
    only, and the sort is the exact-midpoint sort."""
    merged: list = []
    for item in sorted(items, key=lambda it: value(it).mid_key()):
        # cmp is +-1 only for enclosures that certainly do not meet
        if merged and value(item).cmp(value(merged[-1])) in (None, 0):
            continue
        merged.append(item)
    return merged


def coverage_gap(points: Sequence, window: Interval) -> Real:
    """Largest gap left by the points inside a window.

    Points may be Reals or OrbitPoints, assumed sorted.  The window's
    endpoints count as gap borders; with no points inside, the gap is the
    window diameter.
    """
    values = [p.value if isinstance(p, OrbitPoint) else Real.coerce(p) for p in points]
    a, b = _widest_gap([window.lo, *_in_window(values, window), window.hi])
    return b - a


def _in_window(values: list[Real], window: Interval) -> list[Real]:
    """The values whose midpoint lies between the window's end midpoints."""
    lo, hi = window.lo.mid(), window.hi.mid()
    return [v for v in values if lo <= v.mid() <= hi]


def _widest_gap(points: list[Real]) -> tuple[Real, Real]:
    """The first consecutive pair of sorted points whose difference has the
    largest midpoint."""
    return max(zip(points, points[1:]), key=lambda ab: (ab[1] - ab[0]).mid())


# ---------------------------------------------------------------------------
# transitivity search


def transitivity_search(act: Action, U: Interval, V: Interval,
                        radius: int) -> Optional[GroupElement]:
    """Shortlex-first word whose image of U certainly meets V, else None.

    The search walks the deduplicated ball breadth-first with incremental
    interval images, so the returned witness is the shortlex-first element of
    the radius-L ball with w(U) intersecting V.
    """
    for w, img in _ball_images(act, U, radius):
        if img is not None and img.certainly_intersects(V):
            return w
    return None


# ---------------------------------------------------------------------------
# wandering certificates


@dataclass
class WordVerdict:
    word: GroupElement
    verdict: str          # 'disjoint' | 'pointwise-fixed' | 'violation'
    reason: str = ""


@dataclass
class WanderingCertificate:
    """Per-word verdicts attesting that an interval wanders at radius L."""

    interval: Interval
    radius: int
    verdicts: list[WordVerdict]
    certified: bool
    witness: Optional[GroupElement] = None

    def counts(self) -> dict[str, int]:
        return dict(Counter(v.verdict for v in self.verdicts))


def wandering_certificate(act: Action, J: Interval, radius: int) -> WanderingCertificate:
    """A verdict on J for every nonempty freely reduced word of length <= radius.

    Verdicts: Disjoint when w(J) provably misses J; PointwiseFixed when w is
    proved by ``simplify`` to be the identity; otherwise Violation, with the
    reason: the identity was not proved, or disjointness could not be decided
    at the precision ceiling, which is reported rather than assumed away.
    When ``simplify`` proves every defining relation, each group element is
    judged once, by its shortlex-first word, for all its spellings; else the
    free group on the generators is all that acts, and each word is judged.
    """
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    p = act.presentation
    group = p if relations_proved(act) else Presentation.free(p.rank, p.labels)
    key, rule = key_rule(group)
    images, by_element, verdicts = {key: J}, {}, []

    def step(letter, carry):
        # an element's image is its suffix element's image under one letter map
        k = rule(letter, carry[0])
        if k not in images:
            images[k] = _image_or_none(act.letter_maps[letter], carry[1])
        return k, images[k]

    for w, (k, img) in islice(walk(p, radius, None, (key, J), step), 1, None):
        v = by_element.get(k)
        if v is None:
            v = by_element[k] = _word_verdict(act, w, img, J)
        verdicts.append(v if v.word is w else WordVerdict(w, v.verdict, v.reason))
    witness = next((v.word for v in verdicts if v.verdict == "violation"), None)
    return WanderingCertificate(
        interval=J, radius=radius,
        verdicts=verdicts, certified=witness is None, witness=witness,
    )


def _word_verdict(act: Action, w: GroupElement, img: Optional[Interval],
                  J: Interval) -> WordVerdict:
    if img is not None and img.certainly_disjoint(J):
        return WordVerdict(w, "disjoint")
    hw = realize(act, w)
    if simplify(hw) == Identity():
        return WordVerdict(w, "pointwise-fixed")
    try:
        disjoint = retry_precision(lambda: _certainly_disjoint(hw, J))
    except PrecisionExhausted:
        return WordVerdict(w, "violation", "undecidable at ceiling")
    except HorizonExceeded as exc:
        return WordVerdict(w, "violation", str(exc))
    if disjoint:
        return WordVerdict(w, "disjoint")
    return WordVerdict(w, "violation", "identity not proved")


def _certainly_disjoint(h: HomeoExpr, J: Interval) -> Optional[bool]:
    """Whether h(J) misses J; None when that is undecided."""
    img = eval_interval(h, J)
    if img.certainly_disjoint(J):
        return True
    if img.certainly_intersects(J):
        return False
    return None


# ---------------------------------------------------------------------------
# wandering interval construction


@dataclass
class ClaimCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class FindReport:
    interval: Interval
    pivot_label: Optional[str]
    component: Optional[Interval]
    claims: list[ClaimCheck]
    trivial_action: bool = False


def _wandering_chain(act: Action) -> list[str]:
    """Generator labels innermost-first for the supported wandering families."""
    p = act.presentation
    if p.kind == "bs" and p.n == -1:
        return [p.labels[0], p.labels[1]]
    if p.kind == "ladder" and all(s == -1 for s in p.name):
        return list(reversed(p.labels))
    raise ValueError(
        "wandering construction supports B(1,-1) and all-(-1) ladder actions"
    )


def find_wandering_interval(act: Action, window: Interval,
                            grid_n: int = 512) -> FindReport:
    """Construct a candidate wandering interval from the fixed-set geometry.

    Finds the innermost generator with fixed points missing somewhere in the
    window (a ladder pivot's are read from its node when the window holds at
    most ``grid_n`` integers, else they come from a scan on ``grid_n``
    points), takes the maximal complement component nearest the window
    center, verifies the invariance and disjointness claims along the
    generator chain, then shrinks a subinterval off itself under the pivot
    generator.
    """
    chain = _wandering_chain(act)

    claims: list[ClaimCheck] = []
    for pivot_idx, pivot_label in enumerate(chain):
        h = simplify(act.image(pivot_label))
        if not isinstance(h, Identity):
            gaps = fixed_points(h, window, grid_n).complement_intervals
            if gaps:
                break
    else:
        claims.append(ClaimCheck("trivial-restriction", True,
                                 "all generators act as the identity here"))
        return FindReport(window, None, None, claims, trivial_action=True)

    center = window.midpoint()
    comp = min(
        gaps,
        key=lambda c: (abs(c.midpoint() - center).mid(), -c.midpoint().mid()),
    )
    pivot_img = act.image(pivot_label)

    def claim(name: str, ok: bool, detail: str, failure: str):
        """Record a claim; a failed one ends the construction, reporting the
        component and the claims so far."""
        claims.append(ClaimCheck(name, ok, detail))
        if not ok:
            raise ConstructionFailed(failure, FindReport(comp, pivot_label, comp, claims))

    # deeper generators (inside the pivot) act trivially by choice of pivot
    outer = chain[pivot_idx + 1:]
    if outer:
        moved = eval_interval(act.image(outer[0]), comp)
        claim("outer-moves-component-off-itself", moved.certainly_disjoint(comp),
              f"{outer[0]}({comp}) = {moved}",
              f"component {comp} not displaced by {outer[0]}")
        # f g f^-1 = g^-1 maps Fix(g) onto Fix(g^-1) = Fix(g)
        claim("outer-permutes-fixed-set", relations_proved(act),
              f"{outer[0]} {pivot_label} {outer[0]}^-1 = {pivot_label}^-1 is proved, "
              f"so {outer[0]} maps Fix({pivot_label}) onto itself",
              f"the relations are not proved, so {outer[0]} may not permute "
              f"Fix({pivot_label})")
        for lab in outer[1:]:
            moved = eval_interval(act.image(lab), comp)
            claim(f"outermost-{lab}-compatible",
                  moved.certainly_disjoint(comp)
                  or (moved.lo.cmp(comp.lo) == 0 and moved.hi.cmp(comp.hi) == 0),
                  f"{lab}({comp}) = {moved}",
                  f"{lab} neither displaces nor preserves the component")

    # shrink a subinterval of the component off itself under the pivot map
    c = comp.midpoint()
    lo_room = c - comp.lo
    hi_room = comp.hi - c
    delta = (lo_room if lo_room.mid() < hi_room.mid() else hi_room) / Real.rational(2)
    for _ in range(80):
        J = Interval.open(c - delta, c + delta)
        if eval_interval(pivot_img, J).certainly_disjoint(J) and J.certainly_subset_of(comp):
            claims.append(ClaimCheck("pivot-displaces-subinterval", True,
                                     f"{pivot_label}({J}) disjoint from {J}"))
            return FindReport(J, pivot_label, comp, claims)
        delta = delta / Real.rational(2)
    raise ConstructionFailed("no subinterval separates from its pivot image",
                             FindReport(comp, pivot_label, comp, claims))


def _endpoints_fixed(img: Interval, iv: Interval, tol: Real) -> bool:
    """Whether each endpoint of the image img of iv is within tol of its own."""
    return all(_precedes(abs(a - b), tol, True) for a, b in ((img.lo, iv.lo), (img.hi, iv.hi)))


# ---------------------------------------------------------------------------
# the nested-interval ladder


@dataclass
class LadderParams:
    """Tunables for the finite-depth nested-interval construction.

    ``orbit_depth`` is the word radius used to sample the invariant-set
    stand-in (the orbit of the level grid); None means "same as the check
    radius L".  Lower values keep the sample sparse enough for the next
    level's mover to fit inside a gap; see the ladder demos for working
    combinations.
    """

    orbit_depth: Optional[int] = None


# Points sampled per mover scan; the acceptance ladder and demo 07 are built
# with 40.  A point is evaluated only while its separation cap can still beat
# the best separation found (see ``_movers``).
_MOVER_CANDIDATES = 40
# Halvings of the separation radius before a sample point is given up: the
# radius is then under 1e-18 of the room, and each point costs at most 60
# evaluation pairs.
_MAX_HALVINGS = 60


@dataclass
class LadderLevel:
    index: int
    mover: GroupElement
    base_point: Real
    v_interval: Interval
    grid_size: int
    u_interval: Interval


@dataclass
class CantorLadder:
    depth: int
    radius: int
    seed: Interval
    params: LadderParams
    levels: list[LadderLevel]
    element_sets: list[list[GroupElement]]     # G_1 ... G_depth
    lambda_sets: list[list[Interval]]          # closed components per level

    def level_tolerance(self, i: int) -> Real:
        # the construction's resolution, diam U_i
        return self.levels[i - 1].u_interval.diameter()


def _grid_fractions(n: int) -> list[Fraction]:
    return [Fraction(j, n) for j in range(n + 1)]


class _Cells:
    """Exact (cell, tau) coordinates of a cellwise action's ball over U in one
    cell n0: on cell n a ladder adds cell_exponent(n) to tau(u) = log2(-log2 u)
    of u = x - n, T_d adds d to n, so a word carries one pair (n, q) for all of
    U's open cell, and words with one pair act alike on U's closed cell.  A
    point (n, v, q) is n + u, tau(u) = tau(v - floor(v)) + q, or n for v =
    None; one start v orders by n, then q (u falls as tau grows), two by
    ``Real.cmp`` of ``Real.double_log``, a tie undecided."""

    def __init__(self, p: Presentation, steps: dict, lo, hi, touch_misses: bool):
        self.p, self.steps, self.lo, self.hi, self.n0, self.taus = p, steps, lo, hi, lo[0], {}
        self.below, self.above = ((-1, 0), (0, 1)) if touch_misses else ((-1,), (1,))

    @staticmethod
    def of(act: Action, U: Interval) -> Optional["_Cells"]:
        """U's coordinates, or None unless every letter is cellwise and U lies in one cell."""
        steps = {letter: h if isinstance(h, UnitPowerLadder) else getattr(h, "translation", None)
                 for letter, h in act.letter_maps.items()}
        lo, hi = _Cells.point(U.lo), _Cells.point(U.hi)
        ok = None not in steps.values() and lo and hi and hi[0] - lo[0] == (hi[1] is None)
        return _Cells(act.presentation, steps, lo, hi, U.open_lo or U.open_hi) if ok else None

    @staticmethod
    def point(v: Real):
        """v's point, or None when its enclosure meets an integer it is not."""
        lo, hi = v.floor_ceil()
        return None if lo != hi else (lo[0], None if lo[0] == lo[1] else v, Fraction(0))

    def image(self, p, carry: tuple[int, Fraction]):
        """The image of a point p of U's closed cell under a word's carry."""
        return p[0] + carry[0] - self.n0, p[1], carry[1]

    def cmp(self, a, b) -> Optional[int]:
        """-1, 0 or +1 as point a is below, at or above point b, or None."""
        (n, v, q), (m, w, r) = a, b
        if n != m or v is None or w is None:
            return (n > m) - (n < m) or (v is not None) - (w is not None)
        if v == w:
            return (r > q) - (r < q)
        ta, tb = (self.taus[x] if x in self.taus else self.taus.setdefault(
            x, (x - x.floor_ceil()[0][0]).double_log()) for x in (v, w))
        return None if ta is None or tb is None else tb.cmp(ta + Real(q - r)) or None

    def walk(self, radius: int):
        """(word, (n, q)) over the ball, in ``walk``'s order, one word per pair."""
        exponent = lru_cache(None)(lambda letter, n: self.steps[letter].cell_exponent(n))

        def step(letter, carry):
            (n, q), d = carry, self.steps[letter]
            return (n + d, q) if type(d) is int else (n, _rat_add(q, exponent(letter, n)))

        return walk(self.p, radius, ((self.n0, Fraction(0)), step))

    def misses(self, carry) -> bool:
        """Whether the word's image of U certainly misses U, touching it only at an open end."""
        return (self.cmp(self.image(self.hi, carry), self.lo) in self.below
                or self.cmp(self.image(self.lo, carry), self.hi) in self.above)

    def narrow(self, carry, bound: Real) -> bool:
        """Whether the word's image of U lies outside cell 0 or below bound <= 1."""
        return carry[0] != 0 or self.cmp(self.image(self.hi, carry), self.point(bound)) == -1

    def stuck(self, x: Real, carry) -> bool:
        """Whether x < y < hi certainly fails for the word's image y of x."""
        px = self.point(x)
        y = px and self.image(px, carry)
        return bool(px) and (self.cmp(px, y) in (0, 1) or self.cmp(y, self.hi) in (0, 1))


def _movers(act: Action, U: Interval, radius: int):
    """Deterministic mover scan: (word, x, delta) with the largest safe V radius.

    The first (word, x) pair in walk order whose ``_max_separation`` has the
    largest midpoint wins.  The scan is a branch and bound that skips only
    pairs which cannot displace the best so far, so it returns what the
    exhaustive scan over every moving word and point returns.  Over U in one
    cell, a cellwise action's exact coordinates (:class:`_Cells`) skip a word
    whose image misses U and a pair with x < y < hi false.

    The bound: for a pair the scan can accept, lo < x < y < hi hold for
    certain, and ``_max_separation`` returns d/2^k (k >= 0) with d = room *
    9/10, room the smallest-by-midpoint of x - lo, hi - y and (y - x)/2 (and
    certainly positive, or no d is).  So mid(delta) <= mid(d) <= 9/10 *
    mid(room) (1 + e)^2 with e = 2^(1-p) at working precision p (the outward
    roundings of 9/10 and of the product; halving a p-bit enclosure is
    exact).  An exact operand meeting a tracked one is rounded to p bits
    (an absolute error of at most e |value|), and a rounded upper end is at
    most (1 + e) times the exact one, so mid(room) <= mid(x - lo) <
    (1 + e)(x.hi - lo.lo + e (|x.hi| + |lo.lo|)); and, as min(a, b) <=
    (a + 2b)/3 and y's ends cancel up to e (y.hi - y.lo) < e (hi.lo - x.hi),
    3 mid(room) <= mid(hi - y) + mid(y - x) < (1 + e)(hi.hi - x.lo +
    e (|hi.hi| + |x.lo|)).  As (1 + e)^3 <= 1 + 2^(4-p), every delta the
    scan could take at x has a midpoint of at most

        cap(x) = 9/10 (1 + 2^(4-p)) (min(x.hi - lo.lo, (hi.hi - x.lo)/3)
                                     + e (|lo.lo| + |hi.hi| + |x.lo| + |x.hi|)),

    whatever the word.  A point with cap(x) <= mid(best delta) cannot win (a
    tie keeps the earlier pair), so it is not evaluated.
    """
    lo, hi = U.lo, U.hi
    span = hi - lo
    xs = [lo + span * Real.rational(j, _MOVER_CANDIDATES + 1)
          for j in range(1, _MOVER_CANDIDATES + 1)]
    p = current_precision().bits
    e = Fraction(1, 1 << (p - 1))
    scale = Fraction(9, 10) * (1 + 8 * e)
    lo_lo, hi_hi = lo.bounds()[0], hi.bounds()[1]
    caps = []
    for x in xs:
        x_lo, x_hi = x.bounds()
        room = min(x_hi - lo_lo, (hi_hi - x_lo) / 3)
        slack = e * (abs(lo_lo) + abs(hi_hi) + abs(x_lo) + abs(x_hi))
        caps.append((scale * (room + slack), x))
    best, floor = None, Fraction(0)   # an accepted delta is certainly positive
    cells = _Cells.of(act, U)
    scan = _ball_images(act, U, radius) if cells is None else cells.walk(radius)
    for w, carry in islice(scan, 1, None):
        if cells is not None and cells.misses(carry):
            continue
        img = carry if cells is None else _image_or_none(hw := realize(act, w), U)
        if img is None or img.certainly_disjoint(U):
            continue
        hw = realize(act, w) if cells is None else hw
        for cap, x in caps:
            if cap <= floor or cells is not None and cells.stuck(x, carry):
                continue
            y = _or_none(evaluate, hw, x)
            if y is None or not (x.cmp(y) == -1 and y.cmp(hi) == -1
                                 and lo.cmp(x) == -1):
                continue
            delta = _max_separation(hw, x, y, U, floor)
            if delta is not None:
                best, floor = (w, x, delta), delta.mid()
    return best


def _max_separation(hw: HomeoExpr, x: Real, y: Real, U: Interval,
                    floor: Fraction) -> Optional[Real]:
    """Largest halving-found radius d with [x-d,x+d] and its image separated
    in U, or None when there is none with a midpoint above floor.

    Halving a positive enclosure halves its midpoint, so the search gives up
    at the first d with mid(d) <= floor.
    """
    lo, hi = U.lo, U.hi
    room = x - lo
    if (hi - y).mid() < room.mid():
        room = hi - y
    if (y - x).mid() / 2 < room.mid():
        room = (y - x) / Real.rational(2)
    d = room * Real.rational(9, 10)
    for _ in range(_MAX_HALVINGS):
        if d.cmp(_ZERO) != 1 or d.mid() <= floor:
            return None
        a, b = x - d, x + d
        fa = _or_none(evaluate, hw, a)
        fb = None if fa is None else _or_none(evaluate, hw, b)
        if (fb is not None and lo.cmp(a) == -1 and fb.cmp(hi) == -1
                and (x + d).cmp(fa) == -1):
            return d
        d = d / Real.rational(2)
    return None


def cantor_ladder(act: Action, depth: int, radius: int,
                  seed: Optional[Interval] = None,
                  params: Optional[LadderParams] = None) -> CantorLadder:
    """Run the nested-interval construction to a finite depth.

    Each level finds a word moving a point rightward within the previous
    interval, shrinks a neighborhood until it separates from its image,
    lays a unit grid fine enough for the level index, and takes the widest
    gap of the grid's depth-limited orbit as the next interval.  Raises
    ConstructionFailed when a level gets stuck: with no partial when the
    seed admits no move at all, else with the ladder built so far.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if seed is None:
        seed = Interval.open(0, 1)
    params = params or LadderParams()
    orbit_depth = params.orbit_depth if params.orbit_depth is not None else radius

    levels: list[LadderLevel] = []

    def failed(message: str) -> ConstructionFailed:
        """Level i is stuck: the diagnosis, with the ladder built so far."""
        return ConstructionFailed(f"level {i}: {message}", _assemble_ladder(
            act, depth, radius, seed, params, levels))

    U_prev = seed
    for i in range(1, depth + 1):
        found = _movers(act, U_prev, radius)
        if found is None:
            if i == 1:
                raise ConstructionFailed(
                    f"no word of length <= {radius} moves a point within {U_prev}", None)
            raise failed(f"no moving pair inside {U_prev} at radius {radius}")
        w, x, delta = found
        V = Interval.open(x - delta, x + delta)
        diam_lo = V.diameter().bounds()[0]
        ii = max(i + 1, int(2 / diam_lo) + 1)
        S = _grid_orbit_in(act, _grid_fractions(ii), V, orbit_depth)
        if len(S) < 2:
            raise failed(f"grid orbit left fewer than two points in {V}")
        U_i = Interval.open(*_widest_gap(S))
        levels.append(LadderLevel(i, w, x, V, ii, U_i))
        U_prev = U_i

    return _assemble_ladder(act, depth, radius, seed, params, levels)


def _grid_orbit_in(act: Action, grid: list[Fraction], V: Interval,
                   orbit_depth: int) -> list[Real]:
    """Sorted orbit points of the grid landing inside closure(V).

    Uses preimages: for each ball word w, only grid points inside w^-1(V)
    are pushed forward, so the cost is two endpoint evaluations per word
    plus one per actual hit.
    """
    Vc = V.closure()
    vlo, vhi = Vc.lo.bounds()[0], Vc.hi.bounds()[1]
    hits = [Real.from_fraction(g) for g in grid if vlo <= g <= vhi]
    for w in ball(act.presentation, orbit_depth)[1:]:
        hw = realize(act, w)
        pre = _or_none(eval_interval, inverse(hw), Vc)
        if pre is None:
            continue
        plo, phi = pre.lo.bounds()[0], pre.hi.bounds()[1]
        for g in grid:
            if plo <= g <= phi:
                v = _or_none(evaluate, hw, Real.from_fraction(g))
                # a midpoint filter against the outer closure bounds: a point
                # admitted within endpoint error of the boundary only shrinks
                # the gaps found; the merge drops repeated points
                if v is not None and vlo <= v.mid() <= vhi:
                    hits.append(v)

    return _merge_overlapping(hits)


def _assemble_ladder(act, depth, radius, seed, params, levels) -> CantorLadder:
    element_sets: list[list[GroupElement]] = []
    lambda_sets: list[list[Interval]] = []
    p = act.presentation
    current: list[GroupElement] = [p.identity()]
    for lvl in levels:
        current = current + [multiply(g, lvl.mover) for g in current]
        element_sets.append(list(current))
        closed = lvl.u_interval.closure()
        lam = [eval_interval(realize(act, g), closed) for g in current]
        lambda_sets.append(lam)
    return CantorLadder(
        depth=depth, radius=radius, seed=seed, params=params,
        levels=levels, element_sets=element_sets, lambda_sets=lambda_sets,
    )


@dataclass
class LadderCheck:
    condition: str
    level: int
    passed: bool
    detail: str = ""


def check_ladder(act: Action, ladder: CantorLadder) -> list[LadderCheck]:
    """Independent post-hoc verification of the four ladder conditions.

    (1) nesting and (4) separation are endpoint-exact interval comparisons;
    (2) displacement-or-equality and (3) small image diameter are verified
    for every element of the radius-L ball.  Equality in (2) is relative to
    the level tolerance (the construction's resolution, diam U_i).  Exact
    coordinates (:class:`_Cells`) decide (2) and (3) where they can; an
    image that cannot be evaluated fails each of them that they leave open.
    """
    checks: list[LadderCheck] = []
    unit = Interval.closed(0, 1)
    U_prev = ladder.seed

    for lvl in ladder.levels:
        i = lvl.index
        U = lvl.u_interval
        checks.append(LadderCheck(
            "nesting", i, U.certainly_subset_of(U_prev),
            f"U_{i} = {U} inside U_{i-1} = {U_prev}",
        ))
        closed = U.closure()
        gU = _image_or_none(realize(act, lvl.mover), closed)
        passed = (gU is not None and gU.certainly_disjoint(closed)
                  and closed.certainly_subset_of(U_prev) and gU.certainly_subset_of(U_prev))
        checks.append(LadderCheck(
            "separation", i, passed,
            f"mover {lvl.mover} sends {closed} to "
            + ("an image that cannot be evaluated" if gU is None else str(gU)),
        ))
        tol = ladder.level_tolerance(i)
        bad = small_bad = None
        bound = Real.rational(1, i)
        cells = _Cells.of(act, U)
        scan = _ball_images(act, U, ladder.radius) if cells is None else cells.walk(ladder.radius)
        for w, carry in islice(scan, 1, None):
            apart = cells is not None and cells.misses(carry)
            small = cells is not None and cells.narrow(carry, bound)
            if apart and small:
                continue
            img = carry if cells is None else _image_or_none(realize(act, w), U)
            if img is None:   # fails each condition it leaves undecided
                if not apart:
                    bad = bad or (w, "image not evaluable")
                if not small:
                    small_bad = small_bad or (w, "image not evaluable")
                continue
            if not (apart or img.certainly_disjoint(U) or _endpoints_fixed(img, U, tol)):
                bad = bad or (w, f"image {img} partially overlaps")
            clipped = img.intersection_hull(unit)
            d = _ZERO if clipped is None else clipped.diameter()
            if not small and d.cmp(bound) != -1:
                small_bad = small_bad or (w, f"diam {d} in [0,1] not < 1/{i}")
        checks.append(LadderCheck(
            "displacement-or-equality", i, bad is None,
            "" if bad is None else f"{bad[0]}: {bad[1]}",
        ))
        checks.append(LadderCheck(
            "image-diameter", i, small_bad is None,
            "" if small_bad is None else f"{small_bad[0]}: {small_bad[1]}",
        ))
        U_prev = U

    for i, elems in enumerate(ladder.element_sets, start=1):
        keys = {normal_form_key(act.presentation, g) for g in elems}
        checks.append(LadderCheck(
            "element-count", i, len(keys) == 2 ** i,
            f"|G_{i}| = {len(keys)}",
        ))

    for i in range(1, len(ladder.lambda_sets)):
        lam, prev = ladder.lambda_sets[i], ladder.lambda_sets[i - 1]
        nested = all(any(c.certainly_subset_of(pc) for pc in prev) for c in lam)
        checks.append(LadderCheck(
            "lambda-nesting", i + 1, nested,
            f"level {i + 1} components inside level {i}",
        ))
    last = ladder.lambda_sets[-1] if ladder.lambda_sets else []
    disjoint = all(
        last[a].certainly_disjoint(last[b])
        for a in range(len(last)) for b in range(a + 1, len(last))
    )
    checks.append(LadderCheck(
        "lambda-disjoint", ladder.depth, disjoint,
        f"{len(last)} components pairwise disjoint",
    ))
    return checks


# ---------------------------------------------------------------------------
# orbit-closure classification


@dataclass
class OrbitClosureClass:
    """A certified class ('fixed-point', 'discrete-sequence' or 'dense') with
    its ``basis``, or 'undecided' with the orbit sample's ``evidence``."""
    kind: str
    evidence: Optional[dict] = None   # the sample's figures; None when certified
    basis: Optional[str] = None       # why a certified class holds; None when sampled


def _independent(vectors: list) -> list[int]:
    """Indices of the vectors that are Q-independent of those before them,
    by Gaussian elimination over Fraction: their count is the Q-rank."""
    rows: list = []    # (pivot column, reduced row), each zero at earlier pivots
    picked = []
    for i, v in enumerate(vectors):
        for col, row in rows:
            if v[col]:
                f = v[col] / row[col]
                v = [x - f * y for x, y in zip(v, row)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            rows.append((col, v))
            picked.append(i)
    return picked


def _certified_class(act: Action) -> Optional[tuple[str, str]]:
    """(class, basis) decided exactly, or None when the sample must decide.

    Decided when every generator simplifies to an exact ``Affine`` (rational
    or exact quadratic coefficients) or the identity, and ``simplify`` proves
    every relation.  With all slopes 1 the group is the translation group
    Z b_1 + ... + Z b_r, and the Q-rank of the b_i over (1, sqrt2, sqrt3)
    decides: 0 a fixed point, 1 a lattice c Z, 2 or more a dense subgroup
    (Kronecker).  A slope a != 1 with a nonzero translation T, or with a
    second exact fixed point b/(1 - a) (then the commutator is one), gives
    translations a^n T of every small length: dense.  A common fixed point
    with no translation, and any tracked value, is left to the sample.
    """
    maps = []
    for label in act.presentation.labels:
        h = simplify(act.images[label])
        if isinstance(h, Identity):
            continue
        if not isinstance(h, Affine) or _quad_coords(h.a) is None \
                or _quad_coords(h.b) is None:
            return None
        maps.append((label, h))
    if not relations_proved(act):
        return None
    dilations = [(label, h) for label, h in maps if h.a != 1]
    if not dilations:
        lengths = [h.b for _, h in maps]
        picked = _independent([_quad_coords(b) for b in lengths])
        if not picked:
            return "fixed-point", "every generator acts as the identity"
        if len(picked) == 1:
            return ("discrete-sequence", "every translation length is a rational "
                    f"multiple of {lengths[picked[0]]}")
        i, j = picked[:2]
        return ("dense", f"translation lengths {lengths[i]} and {lengths[j]} "
                "are Q-independent")
    dil, g = dilations[0]
    for label, h in maps:
        if h.a == 1:
            return ("dense", f"dilation {dil} (slope {g.a}) conjugates translation "
                    f"{label} (length {h.b}) to arbitrarily short translations")
    fixed = [(label, h.b / (1 - h.a)) for label, h in dilations]
    fixed = [(label, p) for label, p in fixed if _quad_coords(p) is not None]
    for label, p in fixed[1:]:
        if p != fixed[0][1]:
            return ("dense", f"dilations {fixed[0][0]} and {label} fix "
                    f"{fixed[0][1]} and {p}: their commutator is a nonzero "
                    "translation, and a dilation shrinks it arbitrarily")
    return None


def classify_orbit_closure(act: Action, x: RealLike, radius: int,
                           window: Interval) -> OrbitClosureClass:
    """Orbit-closure class: certified for exact affine actions, else
    'undecided'.

    When :func:`_certified_class` decides, the class carries its ``basis``
    and no sample is drawn.  Otherwise no finite sample proves a class, so
    the answer is 'undecided' with the sample's figures as ``evidence``:
    the in-window counts at the radius and at half of it and, when two or
    more points fall in the window, its coverage gap and diameter, the
    least and median gaps and, when the half-radius count is not 0, the
    growth ratio of the two counts.
    """
    if radius < 2:
        raise ValueError(f"radius must be at least 2, got {radius}")
    certified = _certified_class(act)
    if certified is not None:
        return OrbitClosureClass(certified[0], basis=certified[1])
    # one walk serves both samples: the half-radius ball is its first layers
    sample = _orbit_sample(act, x, radius)

    def in_window(points: list[OrbitPoint]) -> list[Real]:
        return _in_window([p.value for p in _merge_overlapping(points, _point_value)], window)

    inside = in_window(sample)
    inside_half = in_window([p for p in sample if p.word.length() <= radius // 2])

    evidence: dict = {
        "radius": radius,
        "count": len(inside),
        "count_half_radius": len(inside_half),
    }
    if len(inside) >= 2:
        mids = [v.mid() for v in inside]
        gaps = sorted(b - a for a, b in zip(mids, mids[1:]))
        evidence["coverage_gap"] = approx_float(coverage_gap(inside, window).mid())
        evidence["window_diameter"] = approx_float(window.diameter().mid())
        evidence["min_gap"] = approx_float(gaps[0])
        evidence["median_gap"] = approx_float(gaps[len(gaps) // 2])
        if inside_half:
            evidence["growth_ratio"] = approx_float(Fraction(len(inside), len(inside_half)))
    return OrbitClosureClass("undecided", evidence)
