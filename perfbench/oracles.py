"""Independent oracles for the benchmark workloads.

Nothing here imports lineact.  Each oracle recomputes what a result must
be from the mathematics of the action (closed forms in plain mpmath at 80
digits, exact ``Fraction`` maps, faithful affine models of the
Baumslag-Solitar groups, exact arithmetic in Z[sqrt2]) and returns ``None``
when the result agrees, or a one-line description of the mismatch.

Words are tuples of ``(generator index, nonzero exponent)`` with the
leftmost letter acting last, as in lineact; word strings are the CLI's
``"g^2 f^-1 g"`` form.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath

DPS = 80
RESIDUAL_TOL = Fraction(1, 10**20)

Word = Sequence[tuple[int, int]]


def parse_word(text: str, labels: Sequence[str]) -> tuple[tuple[int, int], ...]:
    """Word string of a CLI payload back to (generator, exponent) pairs."""
    if text.strip() == "1":
        return ()
    out = []
    for tok in text.split():
        lab, _, exp = tok.partition("^")
        out.append((labels.index(lab), int(exp) if exp else 1))
    return tuple(out)


def free_word_count(rank: int, radius: int) -> int:
    """Nonempty freely reduced words of length <= radius in a free group."""
    return sum(2 * rank * (2 * rank - 1) ** (n - 1) for n in range(1, radius + 1))


# ---------------------------------------------------------------------------
# group elements: the faithful affine model of B(1,n)


def bs_element(word: Word, n: int) -> tuple[int, Fraction]:
    """(m, t): the element acts as x -> n**m * x + t in the model a=x+1, b=n*x.

    Keeping m, the exponent sum of b, makes the pair faithful for every n,
    including n = -1 where the affine map alone forgets the parity of m: two
    words give the same pair exactly when they are the same element of B(1,n).
    """
    m, t = 0, Fraction(0)
    for g, e in reversed(word):
        if g == 0:
            t += e
        else:
            m += e
            t *= Fraction(n) ** e
    return m, t


def bs_is_identity(word: Word, n: int) -> bool:
    return bs_element(word, n) == (0, 0)


def check_certificate(verdicts: Sequence[tuple[Word, str]], certified: bool,
                      rank: int, radius: int,
                      is_identity: Callable[[Word], bool]) -> Optional[str]:
    """Every word of the ball is judged, and the verdict follows its class.

    Words that are the identity element must be 'pointwise-fixed'; every
    other word must be 'disjoint', which is what a wandering interval of
    these actions gives.
    """
    want = free_word_count(rank, radius)
    if len(verdicts) != want:
        return f"{len(verdicts)} verdicts, expected {want}"
    for word, verdict in verdicts:
        expect = "pointwise-fixed" if is_identity(word) else "disjoint"
        if verdict != expect:
            return f"word {word}: verdict {verdict!r}, expected {expect!r}"
    if not certified:
        return "certificate not certified"
    return None


def check_distinct_elements(words: Sequence[Word], n: int, count: int) -> Optional[str]:
    keys = {bs_element(w, n) for w in words}
    if len(keys) != count:
        return f"{len(keys)} distinct elements, expected {count}"
    return None


def check_disjoint(intervals: Sequence[tuple[Fraction, Fraction]], count: int) -> Optional[str]:
    """Closed intervals given by outer bounds: `count` of them, pairwise disjoint."""
    if len(intervals) != count:
        return f"{len(intervals)} components, expected {count}"
    ordered = sorted(intervals)
    for (alo, ahi), (blo, bhi) in zip(ordered, ordered[1:]):
        if not ahi < blo:
            return f"components [{float(alo)}, {float(ahi)}] and [{float(blo)}, {float(bhi)}] meet"
    return None


# ---------------------------------------------------------------------------
# the alternating power ladder, in cell-local coordinates


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def ladder_point(k: int, word: Word, x: Fraction) -> tuple[int, mpmath.mpf]:
    """w(x) for ex_1_4 (g = ladder map, f = x+1) as (cell n, offset u).

    On [n, n+1) the ladder map is u -> u**(2**((-1)**n * k**-n)).  Keeping u
    as its own mpf keeps offsets like 2**-65536 exact in relative terms,
    where n + u would round back to n.
    """
    n = math.floor(x)
    with mpmath.workdps(DPS):
        u = _mpf(x - n)
        for g, e in reversed(word):
            if g == 1:
                n += e
                continue
            s = 1 if e > 0 else -1
            for _ in range(abs(e)):
                if u == 0:
                    break
                t = Fraction(s * (-1) ** (n % 2)) * Fraction(k) ** (-n)
                u = u ** (mpmath.mpf(2) ** _mpf(t))
    return n, u


def check_ladder_orbit_point(k: int, word: Word, x: Fraction,
                             lo: Fraction, hi: Fraction) -> Optional[str]:
    """The enclosure [lo, hi] of w(x) contains the closed-form value."""
    if hi - lo > Fraction(1, 10**20):
        return f"enclosure of {word} wider than 1e-20"
    n, u = ladder_point(k, word, x)
    with mpmath.workdps(DPS):
        slack = u * mpmath.mpf(10) ** -30
        below = _mpf(lo - n) <= u + slack
        above = _mpf(hi - n) >= u - slack
    if not (below and above):
        return f"w(x) for w={word}, x={x}: enclosure misses the closed form"
    return None


# ---------------------------------------------------------------------------
# pointwise maps of the gallery actions in plain mpmath

Map = Callable[[mpmath.mpf, int], mpmath.mpf]


def _translate(d) -> Map:
    return lambda x, s: x + s * d


def _scale(c) -> Map:
    return lambda x, s: x * c if s > 0 else x / c


def _ladder(k: int) -> Map:
    def apply(x, s):
        n = int(mpmath.floor(x))
        u = x - n
        if u == 0:
            return x
        t = mpmath.mpf(s * (-1) ** (n % 2)) * mpmath.mpf(k) ** (-n)
        return u ** (mpmath.mpf(2) ** t) + n
    return apply


def _unit_conjugate(d) -> Map:
    """Cellwise copy on [j, j+1] of x+d conjugated into (0,1) by x/(1+|x|)."""
    def apply(x, s):
        j = mpmath.floor(x)
        y = 2 * (x - j) - 1
        if abs(y) >= 1:
            return x
        z = y / (1 - abs(y)) + s * d
        return j + (z / (1 + abs(z)) + 1) / 2
    return apply


def gallery_maps(name: str) -> list[Map]:
    """Generator maps, by generator index, for the actions the workloads use."""
    with mpmath.workdps(DPS):
        sqrt2 = mpmath.sqrt(2)
    if name == "ex_1_2":
        return [_translate(1), _translate(sqrt2)]
    if name == "ex_1_3":
        return [_translate(1), _scale(2)]
    if name == "klein_bottle":
        return [_ladder(1), _translate(1)]
    if name == "extension":
        return [_translate(1), _unit_conjugate(1), _unit_conjugate(sqrt2)]
    raise KeyError(name)


def apply_word(maps: Sequence[Map], word: Word, x: Fraction) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        v = _mpf(x)
        for g, e in reversed(word):
            s = 1 if e > 0 else -1
            for _ in range(abs(e)):
                v = maps[g](v, s)
        return +v


def check_witness(maps: Sequence[Map], word: Word,
                  U: tuple[Fraction, Fraction], V: tuple[Fraction, Fraction]) -> Optional[str]:
    """The increasing map w sends the open interval U onto one meeting V."""
    lo = apply_word(maps, word, U[0])
    hi = apply_word(maps, word, U[1])
    with mpmath.workdps(DPS):
        eps = mpmath.mpf(10) ** -40 * (1 + abs(lo) + abs(hi))
        ok = lo < _mpf(V[1]) + eps and hi > _mpf(V[0]) - eps
    if not ok:
        return f"witness {word} maps {U} to ({float(lo)}, {float(hi)}), missing {V}"
    return None


# ---------------------------------------------------------------------------
# free_transitive (f = x+1, g = x**3) with exact Fraction maps


def _icbrt(n: int) -> int:
    """floor(cbrt(n)) for n >= 0, by Newton's method from above."""
    if n < 2:
        return n
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            break
        r = s
    while r ** 3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _cbrt_bracket(q: Fraction, bits: int = 200) -> tuple[Fraction, Fraction]:
    if q < 0:
        lo, hi = _cbrt_bracket(-q, bits)
        return -hi, -lo
    scale = 1 << bits
    n = q.numerator * q.denominator ** 2 * scale ** 3
    r = _icbrt(n)
    den = q.denominator * scale
    lo = Fraction(r, den)
    return lo, lo if r ** 3 == n else Fraction(r + 1, den)


def free_transitive_image(word: Word, x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] of w(x); exact unless a cube root is taken."""
    lo = hi = x
    for g, e in reversed(word):
        for _ in range(abs(e)):
            if g == 0:
                lo, hi = lo + (1 if e > 0 else -1), hi + (1 if e > 0 else -1)
            elif e > 0:
                lo, hi = lo ** 3, hi ** 3
            else:
                lo, hi = _cbrt_bracket(lo)[0], _cbrt_bracket(hi)[1]
    return lo, hi


def check_free_transitive_witness(word: Word, U: tuple[Fraction, Fraction],
                                  V: tuple[Fraction, Fraction]) -> Optional[str]:
    a_hi = free_transitive_image(word, U[0])[1]
    b_lo = free_transitive_image(word, U[1])[0]
    if a_hi < V[1] and b_lo > V[0]:
        return None
    return f"witness {word} does not provably send {U} into {V}"


# ---------------------------------------------------------------------------
# the sqrt2 translation orbit, exactly: numbers p + q*sqrt2 with rational p, q


def _sign(p: Fraction, q: Fraction) -> int:
    if q == 0:
        return (p > 0) - (p < 0)
    if q > 0:
        return 1 if p >= 0 or p * p < 2 * q * q else -1
    return -1 if p <= 0 or p * p < 2 * q * q else 1


def sqrt2_orbit_gap(x0: Fraction, radius: int,
                    window: tuple[Fraction, Fraction]) -> float:
    """Largest gap of {x0 + m + n*sqrt2 : |m| + |n| <= radius} in the window.

    The window ends count as gap borders, as in ``coverage_gap``.
    """
    a, b = window
    inside = []
    for m in range(-radius, radius + 1):
        r = radius - abs(m)
        for n in range(-r, r + 1):
            p = x0 + m
            if _sign(p - a, Fraction(n)) >= 0 and _sign(b - p, Fraction(-n)) >= 0:
                inside.append((p, Fraction(n)))
    inside.sort(key=functools.cmp_to_key(lambda u, v: _sign(u[0] - v[0], u[1] - v[1])))
    best, prev = (Fraction(0), Fraction(0)), (a, Fraction(0))
    for pt in inside + [(b, Fraction(0))]:
        gap = (pt[0] - prev[0], pt[1] - prev[1])
        if _sign(gap[0] - best[0], gap[1] - best[1]) > 0:
            best = gap
        prev = pt
    return float(best[0]) + float(best[1]) * math.sqrt(2)


def csv_orbit_gap(csv_text: str, window: tuple[Fraction, Fraction]) -> float:
    """The same gap, measured from the float column of an orbit CSV payload."""
    lo, hi = float(window[0]), float(window[1])
    xs = sorted(float(line.split(",", 1)[0]) for line in csv_text.splitlines()[1:])
    inside = [x for x in xs if lo <= x <= hi]
    edges = [lo] + inside + [hi]
    return max(b - a for a, b in zip(edges, edges[1:]))


def check_orbit_csv(csv_text: str, x0: Fraction, radius: int,
                    window: tuple[Fraction, Fraction]) -> Optional[str]:
    want = sqrt2_orbit_gap(x0, radius, window)
    got = csv_orbit_gap(csv_text, window)
    if abs(got - want) > 1e-9:
        return f"orbit gap {got!r}, exact oracle {want!r}"
    return None


# ---------------------------------------------------------------------------
# closed forms for the eval subcommand


def affine_cube_value(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction,
                      x: Fraction) -> Fraction:
    """compose(affine(a1,b1), oddpower(3,fwd), inverse(affine(a2,b2)))(x)."""
    return a1 * ((x - b2) / a2) ** 3 + b1


def conjugated_ladder_value(c: Fraction, x: Fraction) -> mpmath.mpf:
    """compose(boundedconjugate(affine(1,c)), unitpowerladder(2,+1))(x)."""
    with mpmath.workdps(DPS):
        y = _ladder(2)(_mpf(x), 1)
        if abs(y) >= 1:
            return y
        z = y / (1 - abs(y)) + _mpf(c)
        return z / (1 + abs(z))


def fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
