"""Layer probes: single calls on fixed inputs, timed untraced.

Each probe repeats one call until a batch takes at least 20 ms, and reports
the median per-call time of five batches.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from types import SimpleNamespace


def _per_call_s(fn, min_batch_s: float = 0.02, batches: int = 5) -> float:
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        number *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def run(lx: SimpleNamespace) -> dict[str, float]:
    R, h, w = lx.reals.Real, lx.homeo, lx.words
    exact, exact2 = R.rational(3, 7), R.rational(-5, 11)
    tracked, tracked2 = R.sqrt2(), R.sqrt3()
    operands = {"exact": (exact, exact2), "tracked": (tracked, tracked2),
                "mixed": (tracked, exact)}
    out: dict[str, float] = {}
    for kind, (a, b) in operands.items():
        out[f"reals.probe.add.{kind}_us"] = _per_call_s(lambda: a + b) * 1e6
        out[f"reals.probe.mul.{kind}_us"] = _per_call_s(lambda: a * b) * 1e6
        out[f"reals.probe.cmp.{kind}_us"] = _per_call_s(lambda: a.cmp(b)) * 1e6
    out["reals.probe.bounds.tracked_us"] = _per_call_s(tracked.bounds) * 1e6
    base = R.rational(5, 8)
    out["reals.probe.pow_int_us"] = _per_call_s(lambda: base.pow_int(64)) * 1e6
    out["reals.probe.pow_real_us"] = _per_call_s(lambda: base.pow_real(tracked)) * 1e6

    affine = h.Affine(R.rational(3, 2), R.rational(1, 5))
    spec = lx.actions.direct_product_extension(
        lx.actions.conjugate_into_unit(lx.actions.gallery("ex_1_2", alpha="sqrt2")),
        coset_label="t")
    nodes = {
        "Affine": (affine, Fraction(7, 9)),
        "OddPower": (h.OddPower(3, True), Fraction(7, 9)),
        "UnitPowerLadder": (h.UnitPowerLadder(2, 1), Fraction(13, 8)),
        "BoundedConjugate": (h.BoundedConjugate(h.Affine(R.rational(1), R.rational(1, 2))),
                             Fraction(1, 3)),
        "ExtensionCell": (lx.actions.extend_action(spec).image("a"), Fraction(7, 3)),
        "Compose": (h.Compose(affine, h.OddPower(3)), Fraction(7, 9)),
        "Inverse": (h.Inverse(affine), Fraction(7, 9)),
    }
    for node, (expr, x) in nodes.items():
        point = R.from_fraction(x)
        out[f"homeo.probe.evaluate.{node}_us"] = _per_call_s(
            lambda: h.evaluate(expr, point)) * 1e6

    P = w.Presentation
    balls = {"free": (P.free(2), 6), "free_abelian": (P.free_abelian(2), 20),
             "bs": (P.baumslag_solitar(2), 8), "ladder": (P.ladder((-1,)), 8)}
    for family, (pres, radius) in balls.items():
        out[f"words.probe.ball.{family}_ms"] = _per_call_s(
            lambda: w.ball(pres, radius)) * 1e3
    return out
