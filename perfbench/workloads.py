"""The three benchmark workloads, as lists of operations with oracles.

Every input is drawn at set-up from ``random.Random(seed)``; lineact only
sees the generated points, intervals, words and argument lists.  Each
operation calls lineact through module attributes at call time, so a traced
run sees every call.  Its oracle (from :mod:`oracles`) runs outside the
timed region and returns ``None`` or a description of the mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from types import SimpleNamespace
from typing import Callable, Optional

import oracles

# An orbit from a far-negative ex_1_4 cell can run for minutes before it
# raises PrecisionExhausted (k=3, cell -2: 94 s at radius 4).  Such an
# orbit is abandoned at this deadline and counted as failed.  The slowest
# orbit that returns (k=3, cell -1) takes 4.4 to 6.4 s, and up to about 9 s
# when the machine runs slow, so the deadline cuts off only the defect.
ORBIT_DEADLINE_S = 15.0


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    deadline_s: Optional[float] = None
    payload_bytes: Optional[Callable[[object], int]] = None


def _dec(q: Fraction) -> str:
    """A decimal literal for a rational with denominator 10, 100 or 1000."""
    return format(float(q), ".3f")


def _draw(rng: Random, lo: float, hi: float, den: int = 1000) -> Fraction:
    return Fraction(rng.randint(round(lo * den), round(hi * den)), den)


def _interval_pair(rng: Random) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Two open intervals of width 0.2-0.5 inside (-3, 3), as in criterion 8."""
    out = []
    for _ in range(2):
        width = _draw(rng, 0.2, 0.5)
        lo = _draw(rng, -3.0, 3.0 - float(width))
        out.append((lo, lo + width))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# ladder: the exact-rational path


def ladder(lx: SimpleNamespace, rng: Random) -> list[Op]:
    """One ex_1_4 ladder build and check, then radius-4 orbits per cell.

    Start points are x = c + a/8 for k in {2, 3}, one in every cell c in
    -4..4, with the odd numerator a drawn from {5, 7}.  The cell and the
    size of x set how large exact powers grow; drawing only the numerator
    keeps a pass's cost nearly the same from seed to seed.  In cell 0, a is
    the whole numerator of x, and the k=3 orbit there costs about 15 % more
    from 7/8 than from 5/8; its time is the ladder's verdict_ms.tail, so a
    is always 7 in cell 0, lest that tail take one of two values by seed.
    """
    dyn = lx.dynamics
    acts = {k: lx.actions.gallery("ex_1_4", k=k) for k in (2, 3)}
    state: dict = {}

    def build():
        state.pop("ladder", None)
        lad = dyn.cantor_ladder(acts[2], 2, 6, params=dyn.LadderParams(orbit_depth=0))
        state["ladder"] = lad
        return lad

    def check_build(lad):
        words = [g.word for g in lad.element_sets[-1]]
        comps = [(iv.lo.bounds()[0], iv.hi.bounds()[1]) for iv in lad.lambda_sets[-1]]
        return (oracles.check_distinct_elements(words, -2, 4)
                or oracles.check_disjoint(comps, 4))

    def check_conditions(checks):
        bad = [c for c in checks if not c.passed]
        return f"{bad[0].condition} fails at level {bad[0].level}" if bad else None

    ops = [
        Op("ladder.build", build, check_build),
        Op("ladder.check", lambda: dyn.check_ladder(acts[2], state["ladder"]),
           check_conditions),
    ]
    for k in (2, 3):
        for c in range(-4, 5):
            x = c + Fraction(7 if c == 0 else rng.choice((5, 7)), 8)
            sample_seed = rng.randrange(1 << 30)

            def run(k=k, x=x):
                return dyn.orbit(acts[k], lx.reals.Real.from_fraction(x), 4)

            def check(points, k=k, x=x, sample_seed=sample_seed):
                if not points:
                    return "empty orbit"
                pick = Random(sample_seed).sample(range(len(points)), min(3, len(points)))
                for i in pick:
                    lo, hi = points[i].value.bounds()
                    bad = oracles.check_ladder_orbit_point(k, points[i].word.word, x, lo, hi)
                    if bad:
                        return bad
                return None

            ops.append(Op(f"orbit.k{k}", run, check, ORBIT_DEADLINE_S))
    return ops


# ---------------------------------------------------------------------------
# sweep: tracked-enclosure ball sweeps


def sweep(lx: SimpleNamespace, rng: Random) -> list[Op]:
    """Certificates, transitivity searches and extension residuals."""
    dyn, act_mod, reals = lx.dynamics, lx.actions, lx.reals
    Interval, Real = reals.Interval, reals.Real
    kb = act_mod.gallery("klein_bottle")
    e11 = act_mod.gallery("ex_1_1")
    ext = act_mod.extend_action(act_mod.direct_product_extension(
        act_mod.conjugate_into_unit(act_mod.gallery("ex_1_2", alpha="sqrt2")),
        coset_label="t"))
    families = {
        "ex_1_2": act_mod.gallery("ex_1_2", alpha="sqrt2"),
        "ex_1_3": act_mod.gallery("ex_1_3", n=2),
        "klein_bottle": kb,
        "free_transitive": act_mod.gallery("free_transitive"),
        "extension": ext,
    }
    state: dict = {}

    def cert_check(rank, is_identity, radius=7):
        def check(cert):
            verdicts = [(v.word.word, v.verdict) for v in cert.verdicts]
            return oracles.check_certificate(verdicts, cert.certified, rank, radius, is_identity)
        return check

    klein_identity = lambda w: oracles.bs_is_identity(w, -1)
    window = (Fraction(-4), Fraction(4))

    def find():
        state.pop("J", None)
        rep = dyn.find_wandering_interval(kb, Interval.open(*window))
        state["J"] = rep.interval
        return rep

    def check_find(rep):
        failed = [c.name for c in rep.claims if not c.passed]
        if failed:
            return f"claims fail: {failed}"
        lo, hi = rep.interval.lo.bounds()[0], rep.interval.hi.bounds()[1]
        if not window[0] <= lo < hi <= window[1]:
            return "interval outside the window"
        return None

    ops = [
        Op("certificate.klein", lambda: dyn.wandering_certificate(
            kb, Interval.open(Fraction(7, 16), Fraction(9, 16)), 7), cert_check(2, klein_identity)),
        Op("find.klein", find, check_find),
        Op("certificate.klein", lambda: dyn.wandering_certificate(kb, state["J"], 7),
           cert_check(2, klein_identity)),
        Op("certificate.ex_1_1", lambda: dyn.wandering_certificate(
            e11, Interval.open(0, Fraction(1, 2)), 7),
           cert_check(1, lambda w: sum(e for _, e in w) == 0)),
        Op("transitive.ex_1_1", lambda: dyn.transitivity_search(
            e11, Interval.open(Fraction(1, 10), Fraction(2, 10)),
            Interval.open(Fraction(6, 10), Fraction(7, 10)), 20),
           lambda w: None if w is None else f"ex_1_1 spot pair connected by {w}"),
    ]
    for name, act in families.items():
        maps = None if name == "free_transitive" else oracles.gallery_maps(name)
        for _ in range(5):
            U, V = _interval_pair(rng)

            def run(act=act, U=U, V=V):
                return dyn.transitivity_search(act, Interval.open(*U), Interval.open(*V), 20)

            def check(w, name=name, maps=maps, U=U, V=V):
                if w is None:
                    return None if name == "klein_bottle" else f"{name}: no witness for {U} -> {V}"
                if maps is None:
                    return oracles.check_free_transitive_witness(w.word, U, V)
                return oracles.check_witness(maps, w.word, U, V)

            ops.append(Op(f"transitive.{name}", run, check))
    # Word lengths are drawn inside lineact, and a pair's cost grows with
    # them; many pairs on few points keep a pass's cost nearly the same
    # from seed to seed.
    for _ in range(40):
        pts = [Real.from_fraction(_draw(rng, -3.0, 3.0)) for _ in range(3)]
        word_seed = rng.randrange(1 << 30)
        ops.append(Op(
            "residual.extension",
            lambda pts=pts, s=word_seed: act_mod.homomorphism_residual(ext, 48, pts, 6, seed=s),
            lambda r: None if r.bounds()[1] <= oracles.RESIDUAL_TOL else f"residual {r} above 1e-20"))
    return ops


# ---------------------------------------------------------------------------
# cli: pointwise work through line-act


class CommandFailed(Exception):
    """line-act exited nonzero: a negative result or an error, not a payload."""


def _cli_op(lx: SimpleNamespace, kind: str, argv: list[str],
            check: Callable[[str], Optional[str]]) -> Op:
    """Every command here has a positive answer, so success is exit status 0."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lx.cli.main(argv)
        if rc != 0:
            raise CommandFailed(f"exit status {rc}: {err.getvalue().strip()[:120]}")
        return out.getvalue()

    return Op(kind, run, check, payload_bytes=lambda text: len(text.encode()))


def _result(text: str) -> dict:
    return json.loads(text)["result"]


def cli(lx: SimpleNamespace, rng: Random) -> list[Op]:
    """line-act subcommands called in process with stdout captured."""
    ops: list[Op] = []
    for _ in range(10):
        a1, a2 = _draw(rng, 0.5, 3.0, 8), _draw(rng, 0.5, 3.0, 8)
        b1, b2, x = _draw(rng, -2, 2, 8), _draw(rng, -2, 2, 8), _draw(rng, -2, 2, 9)
        expr = (f"compose(affine({a1},{b1}),oddpower(3,fwd),inverse(affine({a2},{b2})))")
        want = oracles.fraction_text(oracles.affine_cube_value(a1, b1, a2, b2, x))
        ops.append(_cli_op(lx, "eval.exact", ["eval", "--expr", expr, f"--point={x}"],
                           lambda t, want=want: None if _result(t)["value"]["value"] == want
                           else f"eval gave {_result(t)['value']['value']}, expected {want}"))
    for _ in range(10):
        c, x = _draw(rng, -1, 1, 8), _draw(rng, -1.9, 1.9, 7)
        expr = f"compose(boundedconjugate(affine(1,{c})),unitpowerladder(2,+1))"
        want = float(oracles.conjugated_ladder_value(c, x))
        ops.append(_cli_op(lx, "eval.tracked", ["eval", "--expr", expr, f"--point={x}"],
                           lambda t, want=want: None
                           if abs(_result(t)["value"]["approx"] - want) <= 1e-12
                           else f"eval gave {_result(t)['value']['approx']}, expected {want}"))

    def relations_ok(text):
        res = _result(text)
        if not res["passed"] or res["sample_size"] != 200:
            return "relations report does not pass over 200 points"
        worst = max(r["residual"]["approx"] for r in res["relations"])
        return None if worst <= 1e-20 else f"residual {worst} above 1e-20"

    for gal in (["--gallery", "ex_1_4", "--k", "2"], ["--gallery", "ex_1_4", "--k", "3"],
                ["--gallery", "klein_bottle"]):
        # Points in cell -4 dominate the cost, so every window starts there.
        # The width is always 9: the grid's denominators, and so the bit
        # sizes of its points, follow from it (a width of 8.9 costs 1.7x
        # as much as one of 9).
        lo = _draw(rng, -4.0, -3.8, 10)
        ops.append(_cli_op(lx, "relations", ["relations", *gal, "--points", "200",
                                             "--window", _dec(lo), _dec(lo + 9)], relations_ok))

    def certificate_ok(text):
        res = _result(text)
        verdicts = [(oracles.parse_word(v["word"], ("g", "f")), v["verdict"])
                    for v in res["verdicts"]]
        return oracles.check_certificate(verdicts, res["certified"], 2, 6,
                                         lambda w: oracles.bs_is_identity(w, -1))

    for _ in range(2):
        x0 = Fraction(rng.randrange(1, 7), 7)
        lo = _draw(rng, -0.5, 0.5, 1000)
        window = (lo, lo + 1)
        ops.append(_cli_op(lx, "orbit.csv", [
            "orbit", "--gallery", "ex_1_2", "--alpha", "sqrt2", f"--point={x0}",
            "--radius", "40", "--window", _dec(window[0]), _dec(window[1]), "--format", "csv"],
            lambda t, x0=x0, window=window: oracles.check_orbit_csv(t, x0, 40, window)))

        x1 = Fraction(rng.randrange(1, 7), 7)
        ops.append(_cli_op(lx, "classify", [
            "classify", "--gallery", "ex_1_2", "--alpha", "sqrt2", f"--point={x1}",
            "--radius", "60", "--window", "0", "1"],
            lambda t: None if _result(t)["class"] == "dense"
            else f"classified {_result(t)['class']!r}, expected 'dense'"))

        wlo, whi = _draw(rng, -4.5, -3.0, 10), _draw(rng, 3.0, 4.5, 10)
        ops.append(_cli_op(lx, "wander-find", [
            "wander-find", "--gallery", "klein_bottle", "--window", _dec(wlo), _dec(whi)],
            lambda t: None if all(c["passed"] for c in _result(t)["claims"])
            else "a wander-find claim fails"))

        jlo = Fraction(7, 16) + _draw(rng, 0, 0.03, 10000)
        jhi = Fraction(9, 16) - _draw(rng, 0, 0.03, 10000)
        ops.append(_cli_op(lx, "wander-check", [
            "wander-check", "--gallery", "klein_bottle", "--interval",
            format(float(jlo), ".4f"), format(float(jhi), ".4f"), "--radius", "6"],
            certificate_ok))

    for _ in range(8):
        U, V = _interval_pair(rng)

        def witness_ok(text, U=U, V=V):
            word = oracles.parse_word(_result(text)["witness"], ("f", "g"))
            return oracles.check_free_transitive_witness(word, U, V)

        ops.append(_cli_op(lx, "transitive", [
            "transitive", "--gallery", "free_transitive", "--u", _dec(U[0]), _dec(U[1]),
            "--v", _dec(V[0]), _dec(V[1]), "--radius", "12"], witness_ok))

    def extend_ok(text):
        res = _result(text)
        if not res["homomorphism_ok"] or not res["relations"]["passed"]:
            return "extension fails its homomorphism or relation check"
        if res["homomorphism_residual"]["approx"] > 1e-20:
            return "homomorphism residual above 1e-20"
        return None

    ops.append(_cli_op(lx, "extend", ["extend", "--pairs", "50",
                                      "--seed", str(rng.randrange(1 << 20))], extend_ok))
    return ops


WORKLOADS = {"ladder": ladder, "sweep": sweep, "cli": cli}
