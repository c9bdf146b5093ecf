"""Each benchmark oracle accepts a true result and rejects a corrupted one."""

import importlib
import json
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import oracles
import workloads

import lineact
from lineact import dynamics, report
from lineact.actions import gallery
from lineact.reals import Real

LX = SimpleNamespace(**{m: importlib.import_module(f"lineact.{m}") for m in
                        ("reals", "homeo", "words", "actions", "dynamics", "parse", "report", "cli")})


def _free_words(rank, radius):
    out, frontier = [], [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in range(rank):
                for s in (1, -1):
                    if w and w[0][0] == g and (w[0][1] > 0) != (s > 0):
                        continue
                    if w and w[0][0] == g:
                        nw = ((g, w[0][1] + s),) + w[1:]
                    else:
                        nw = ((g, s),) + w
                    nxt.append(nw)
        out += nxt
        frontier = nxt
    return out


def _klein_verdicts(radius):
    return [(w, "pointwise-fixed" if oracles.bs_is_identity(w, -1) else "disjoint")
            for w in _free_words(2, radius)]


def test_certificate_oracle_rejects_flipped_verdict():
    identity = lambda w: oracles.bs_is_identity(w, -1)
    verdicts = _klein_verdicts(4)
    assert len(verdicts) == oracles.free_word_count(2, 4)
    fixed = [i for i, (_, v) in enumerate(verdicts) if v == "pointwise-fixed"]
    assert fixed  # f g f^-1 g is the identity
    assert oracles.check_certificate(verdicts, True, 2, 4, identity) is None
    for i in (5, fixed[0]):
        flipped = list(verdicts)
        w, v = flipped[i]
        flipped[i] = (w, "pointwise-fixed" if v == "disjoint" else "disjoint")
        assert oracles.check_certificate(flipped, True, 2, 4, identity)
    assert oracles.check_certificate(verdicts[:-1], True, 2, 4, identity)
    assert oracles.check_certificate(verdicts, False, 2, 4, identity)


def test_certificate_oracle_matches_lineact_on_klein_bottle():
    cert = dynamics.wandering_certificate(
        gallery("klein_bottle"),
        lineact.Interval.open(Fraction(7, 16), Fraction(9, 16)), 3)
    verdicts = [(v.word.word, v.verdict) for v in cert.verdicts]
    assert oracles.check_certificate(verdicts, cert.certified, 2, 3,
                                     lambda w: oracles.bs_is_identity(w, -1)) is None


def test_element_and_component_oracles_reject_duplicates():
    words = [(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1))]
    assert oracles.check_distinct_elements(words, -2, 4) is None
    # b a = a^-2 b in B(1,-2): the same element spelled twice
    assert oracles.check_distinct_elements([(), ((1, 1), (0, 1)), ((0, -2), (1, 1)), ((0, 1),)],
                                           -2, 4)
    comps = [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))]
    assert oracles.check_disjoint(comps, 2) is None
    assert oracles.check_disjoint([(Fraction(0), Fraction(2)), (Fraction(2), Fraction(3))], 2)


def test_ladder_orbit_oracle_rejects_shifted_value():
    x = Fraction(-27, 8)
    pts = dynamics.orbit(gallery("ex_1_4", k=2), Real.from_fraction(x), 2)
    for p in pts:
        lo, hi = p.value.bounds()
        assert oracles.check_ladder_orbit_point(2, p.word.word, x, lo, hi) is None
        shift = Fraction(1, 10**30)
        assert oracles.check_ladder_orbit_point(2, p.word.word, x, lo + shift, hi + shift)


def test_witness_oracles_reject_wrong_words():
    U, V = (Fraction(1, 10), Fraction(1, 5)), (Fraction(21, 2), Fraction(53, 5))
    w = dynamics.transitivity_search(gallery("free_transitive"), lineact.Interval.open(*U),
                                     lineact.Interval.open(*V), 12)
    assert oracles.check_free_transitive_witness(w.word, U, V) is None
    assert oracles.check_free_transitive_witness(((0, 5),) + w.word, U, V)
    # a cube root is bracketed, not rounded: g^-1 sends (7, 9) across 2
    assert oracles.check_free_transitive_witness(((1, -1),), (Fraction(7), Fraction(9)),
                                                 (Fraction(19, 10), Fraction(201, 100))) is None
    maps = oracles.gallery_maps("ex_1_2")
    assert oracles.check_witness(maps, ((1, 1),), (Fraction(0), Fraction(1, 10)),
                                 (Fraction(14, 10), Fraction(15, 10))) is None
    assert oracles.check_witness(maps, ((0, 1),), (Fraction(0), Fraction(1, 10)),
                                 (Fraction(14, 10), Fraction(15, 10)))


def test_orbit_csv_oracle_rejects_shifted_point():
    act = gallery("ex_1_2", alpha="sqrt2")
    x0, window = Fraction(3, 7), (Fraction(-1, 4), Fraction(3, 4))
    text = report.orbit_csv(dynamics.orbit(act, Real.from_fraction(x0), 8))
    assert oracles.check_orbit_csv(text, x0, 8, window) is None
    assert oracles.sqrt2_orbit_gap(Fraction(0), 5, (Fraction(0), Fraction(1))) > 0.17
    rows = text.splitlines()
    xs = [float(r.split(",", 1)[0]) for r in rows[1:]]
    inside = sorted(x for x in xs if window[0] <= x <= window[1])
    edges = [float(window[0])] + inside + [float(window[1])]
    a, b = max(zip(edges, edges[1:]), key=lambda ab: ab[1] - ab[0])
    i = 1 + xs.index(b if b in xs else a)
    x, word = rows[i].split(",", 1)
    rows[i] = f"{(a + b) / 2!r},{word}"
    assert oracles.check_orbit_csv("\n".join(rows), x0, 8, window)


def test_cli_oracles_reject_corrupted_payloads():
    ops = {op.kind: op for op in reversed(workloads.cli(LX, Random(5)))}
    for kind in ("eval.exact", "eval.tracked", "transitive"):
        text = ops[kind].run()
        assert ops[kind].check(text) is None
        doc = json.loads(text)
        if kind == "eval.exact":
            doc["result"]["value"]["value"] += "1"
        elif kind == "eval.tracked":
            doc["result"]["value"]["approx"] += 1e-9
        else:
            witness = doc["result"]["witness"]
            doc["result"]["witness"] = "f^5" if witness == "1" else "f^5 " + witness
        assert ops[kind].check(json.dumps(doc))
    bad_class = json.dumps({"result": {"class": "cantor-like"}})
    assert ops["classify"].check(bad_class)
    relations = {"passed": True, "sample_size": 200,
                 "relations": [{"residual": {"approx": 0.0}}]}
    assert ops["relations"].check(json.dumps({"result": relations})) is None
    relations["relations"][0]["residual"]["approx"] = 1e-19
    assert ops["relations"].check(json.dumps({"result": relations}))
    extend = {"homomorphism_ok": True, "relations": {"passed": True},
              "homomorphism_residual": {"approx": 1e-70}}
    assert ops["extend"].check(json.dumps({"result": extend})) is None
    extend["homomorphism_ok"] = False
    assert ops["extend"].check(json.dumps({"result": extend}))


def test_ladder_and_sweep_checks_reject_corrupted_results():
    ops = workloads.ladder(LX, Random(5))
    check_conditions = ops[1].check
    good = [SimpleNamespace(condition="nesting", level=1, passed=True)]
    assert check_conditions(good) is None
    assert check_conditions(good + [SimpleNamespace(condition="separation", level=2,
                                                    passed=False)])
    sweep = {op.kind: op for op in workloads.sweep(LX, Random(5))}
    assert sweep["residual.extension"].check(Real.rational(1, 10**30)) is None
    assert sweep["residual.extension"].check(Real.rational(1, 10**19))
    assert sweep["transitive.ex_1_1"].check(None) is None
    assert sweep["transitive.ex_1_1"].check(gallery("ex_1_1").presentation.generator(0))
