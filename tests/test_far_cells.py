"""ex_1_4 orbits from every cell -4..4 against the closed-form oracle.

In far-negative cells a ladder offset u can be far below the ulp of its cell
index n, so n + u keeps u only through an exact integer shift, while exact
powers stop at 8 precision ceilings of bits.  Each radius-4 orbit from
x = c + 5/8 is checked point by point against ``perfbench/oracles.py``,
which keeps (n, u) apart in plain mpmath and shares no code with lineact.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from lineact import actions, dynamics
from lineact.reals import Interval, PrecisionExhausted, Real, current_precision

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import oracles  # noqa: E402
from test_reals_order import ref_merge_overlapping  # noqa: E402

# Orbit sizes after merging overlapping enclosures.  Where the sum n + u was
# rounded at working precision, k=2 from cells -4, -3, -2 gave 68, 78 and 86
# points and k=3 from cell -1 gave 106: neighbours the oracle tells apart
# were merged.
POINTS = {
    2: {-4: 70, -3: 80, -2: 89, -1: 93, 0: 93, 1: 93, 2: 93, 3: 93, 4: 93},
    3: {-1: 109, 0: 116, 1: 117, 2: 117, 3: 117, 4: 117},
}
# Starts whose orbit raises PrecisionExhausted (an enclosure touches the edge
# of cell -3 or -4 under a contracting root); none may be added.
RAISES = {(3, -4), (3, -3), (3, -2)}
# The orbits with the widest tracked ends (Real.shift's exact sums, up to
# 711,266 bits of mantissa next to 12,290-bit rationals).
HEAVY = [(2, -4), (2, -3), (2, -2), (3, -1)]


def _dyadic_mpf(q: Fraction) -> mpmath.mpf:
    """``oracles._mpf`` for a dyadic q without dividing by 2**j: mpmath's
    python backend normalizes that divisor in time quadratic in j (about 4 s
    at j = 1.4 million).  Division by 2**j is exact, so the value is the same."""
    d = q.denominator
    if d & (d - 1):
        return mpmath.mpf(q.numerator) / d
    return mpmath.ldexp(mpmath.mpf(q.numerator), 1 - d.bit_length())


def test_dyadic_mpf_matches_oracle_conversion():
    with mpmath.workdps(oracles.DPS):
        for q in (Fraction(-3, 1 << 300), Fraction((1 << 400) + 1, 1 << 401),
                  Fraction(7, 3), Fraction(-5)):
            assert _dyadic_mpf(q) == oracles._mpf(q)


@pytest.mark.parametrize("k,c", [(k, c) for k in (2, 3) for c in range(-4, 5)])
def test_far_cell_orbit_matches_oracle(k, c, monkeypatch):
    monkeypatch.setattr(oracles, "_mpf", _dyadic_mpf)
    x = c + Fraction(5, 8)
    try:
        points = dynamics.orbit(actions.gallery("ex_1_4", k=k), Real.from_fraction(x), 4)
    except PrecisionExhausted:
        assert (k, c) in RAISES
        return
    assert len(points) == POINTS[k][c]
    cap = 8 * current_precision().ceiling
    for p in points:
        if p.value.is_rational:
            q = p.value.as_fraction()
            assert max(q.numerator.bit_length(), q.denominator.bit_length()) <= cap
        lo, hi = p.value.bounds()
        assert oracles.check_ladder_orbit_point(k, p.word.word, x, lo, hi) is None, p.word


def _heavy_orbit_start(k: int, c: int):
    return actions.gallery("ex_1_4", k=k), Real.from_fraction(c + Fraction(5, 8))


@pytest.mark.parametrize("k,c", HEAVY)
def test_far_cell_merge_matches_reference(k, c):
    sample = dynamics._orbit_sample(*_heavy_orbit_start(k, c), 4)
    got = dynamics._merge_overlapping(sample, dynamics._point_value)
    want = ref_merge_overlapping(sample, dynamics._point_value)
    assert [id(p) for p in got] == [id(p) for p in want]
    assert len(got) == POINTS[k][c]


@pytest.mark.parametrize("k,c", HEAVY)
def test_far_cell_orbit_builds_no_fraction_midpoint(k, c, monkeypatch):
    def refuse(self):
        raise AssertionError("orbit built a Fraction midpoint")

    monkeypatch.setattr(Real, "mid", refuse)
    assert len(dynamics.orbit(*_heavy_orbit_start(k, c), 4)) == POINTS[k][c]


def test_pow_real_refuses_a_huge_exp_argument_at_once():
    # e ln(1/4) is about -2**5000, beyond the 4096-bit ceiling: refused
    # before exp, whose cost grows with its argument's magnitude
    e = Real.tracked_from_fraction(Fraction(2**5000, 3))
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match="beyond 2\\*\\*4096"):
        Real.rational(1, 4).pow_real(e)
    assert time.perf_counter() - start < 0.5


_FAR_BALL = """
import time
from lineact.actions import gallery
from lineact.dynamics import _ball_images
from lineact.reals import Interval, Real
start = time.perf_counter()
iv = Interval.open(Real.rational(-63, 4), Real.rational(-31, 2))
ball = list(_ball_images(gallery("ex_1_4", k=3), iv, 3))
print(len(ball), time.perf_counter() - start)
"""


def _run_child(source: str) -> str:
    """The stdout of ``source`` run in a child process, so that a relapse
    into a minutes-long computation fails here instead of hanging."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")]))}
    proc = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_far_cell_ball_ends_in_bounded_time():
    # from cell -16 the walk met 2**t with t near 3**15, and exp of an
    # argument of magnitude 2**14,348,908 ran for minutes
    words, seconds = _run_child(_FAR_BALL).split()
    assert int(words) == 47 and float(seconds) < 5


_FAR_LADDER = """
import dataclasses, time
from fractions import Fraction
from lineact.actions import gallery
from lineact.dynamics import LadderParams, cantor_ladder, check_ladder
from lineact.reals import Interval
act = gallery("ex_1_4", k=2)
ladder = cantor_ladder(act, 2, 6, params=LadderParams(orbit_depth=0))
for c in (-13, -20):
    u = Interval.open(Fraction(4 * c + 1, 4), Fraction(2 * c + 1, 2))
    levels = [dataclasses.replace(ladder.levels[0], u_interval=u), *ladder.levels[1:]]
    start = time.perf_counter()
    checks = check_ladder(act, dataclasses.replace(ladder, levels=levels))
    print(len(checks), time.perf_counter() - start)
"""


def test_far_cell_ladder_check_ends_in_bounded_time():
    # with U_1 in ladder cell -13 or -20, the ball's words met exact
    # exponents 2**t of thousands of bits, and pow_int squared once per bit
    # of them (cell -13 ran for more than 90 s); an exponent wider than the
    # ceiling is refused at once
    runs = [line.split() for line in _run_child(_FAR_LADDER).splitlines()]
    assert len(runs) == 2
    for count, seconds in runs:
        assert int(count) == 12 and float(seconds) < 5


def test_far_cell_certificate_reports_undecidable_words():
    # from cell -16 some words meet a cell exponent beyond any precision:
    # their verdict is a violation, and the certificate still returns
    iv = Interval.open(Fraction(-63, 4), Fraction(-31, 2))
    cert = dynamics.wandering_certificate(actions.gallery("ex_1_4", k=3), iv, 2)
    assert not cert.certified
    assert any(v.verdict == "violation" and v.reason == "undecidable at ceiling"
               for v in cert.verdicts)
