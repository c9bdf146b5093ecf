"""The benchmark in ``perfbench/`` runs against the lineact in this tree.

The benchmark imports each commit's own ``src/`` and calls lineact by module
attribute, so a deleted or renamed name would only show when it runs.  These
checks run its layer probes, the one ladder operation that reaches
``LadderParams``, the sweep's wandering-interval construction and its first
wandering certificate, the first command of every cli kind (each through its
oracle, so a drifted payload key fails too) and its tracer against the tree
under test, so such a name fails here instead.
"""

import importlib
import os
import sys
from random import Random
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import probes  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

LX = SimpleNamespace(**{m: importlib.import_module(f"lineact.{m}") for m in bench.MODULES})
PER_LAYER = bench.declared_metrics("per_layer").keys()
PROBES = {name for name in PER_LAYER if ".probe." in name}


def _one_call(fn):
    fn()
    return 0.0


def test_probes_run(monkeypatch):
    monkeypatch.setattr(probes, "_per_call_s", _one_call)
    assert probes.run(LX).keys() == PROBES


def _first_op(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_ladder_build_passes_its_oracle():
    build = _first_op(workloads.ladder(LX, Random(1)), "ladder.build")
    assert build.check(build.run()) is None


def test_find_klein_passes_its_oracle():
    find = _first_op(workloads.sweep(LX, Random(1)), "find.klein")
    assert find.check(find.run()) is None


def test_certificate_klein_passes_its_oracle():
    # the sweep's heaviest operation: every radius-7 word is judged
    cert = _first_op(workloads.sweep(LX, Random(1)), "certificate.klein")
    assert cert.check(cert.run()) is None


@pytest.mark.parametrize("kind", [
    "eval.exact", "eval.tracked", "relations", "orbit.csv", "classify",
    "wander-find", "wander-check", "transitive", "extend",
])
def test_cli_op_passes_its_oracle(kind):
    op = _first_op(workloads.cli(LX, Random(1)), kind)
    assert op.check(op.run()) is None


def test_tracer_round_trip():
    evaluate, orbit = LX.homeo.evaluate, LX.dynamics.orbit
    act = LX.actions.gallery("ex_1_4", k=2)
    tracer = Tracer()
    tracer.install()
    try:
        points = LX.dynamics.orbit(act, LX.reals.Real.rational(7, 8), 2)
    finally:
        tracer.uninstall()
    assert LX.homeo.evaluate is evaluate and LX.dynamics.orbit is orbit
    assert len(points) == 17
    metrics = tracer.layer_metrics(1)
    assert tracer.stats["dynamics.orbit"][0] == 1
    assert metrics["homeo.evaluate.UnitPowerLadder.calls"] > 0
    assert metrics.keys() | PROBES | {"trace.run_s", "trace.overhead_s"} == PER_LAYER
