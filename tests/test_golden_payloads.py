"""Golden CLI payloads: one fast input per subcommand, pinned byte for byte.

Each case runs ``line-act`` in-process and compares its payload with the
file of the same name under ``tests/golden``.  JSON payloads are compared
after removing ``timestamp`` and re-serializing with sorted keys; CSV
payloads are compared verbatim.

The golden files were written from the code as it stood before the ball
walk was unified, with ``timestamp`` and ``config.workers`` removed.  The
``--workers`` flag was dropped at that change (it never did anything), so
the missing ``config.workers`` key is the one intended difference; every
other byte must match.  The three negative results (``cantor_failed``,
``cantor_no_move`` and ``wander_find_failed``) were written later, from the
code as it stood before the failure paths of ``dynamics`` and ``cli`` were
folded into one step each.  ``wander_find_failed`` got a new input when the
fixed-point scan became exact, because its old window, (-3.4, 3.2), now
constructs; ``wander_find`` changed in its ``outer-permutes-fixed-set``
detail alone.  ``--seed`` was later left to ``extend``, the one subcommand
that reads it, and ``--format`` to ``orbit`` and ``cantor``, the two that
print CSV; ``config.seed`` then left 15 JSON files and ``config.format`` 11,
and no other byte changed.  When the config came to be worked out from the
parsed options, listing only the options that are set,
``cantor_failed`` and ``cantor_no_move`` lost their ``"orbit_depth": null``
line, the unset ``--orbit-depth``, and no other byte changed.
``cantor.csv``, the argv of ``cantor.json`` with ``--format csv``, was
added later, written by the code as it stood before ``Real``'s rational
powers became one method.  When ``sqrt2`` and ``sqrt3`` became exact
values of their quadratic fields, ``extend.json`` changed on purpose: its
homomorphism residual and its ``t b`` and ``a b`` relation residuals (so
also ``worst_residual``) became the exact rational ``0``, where they had
been 256-bit enclosures of about 1e-74 to 1e-77; no other golden changed.
When a relation came to pass only on a proof or on residuals that are
certainly zero, with no tolerance, ``relations.json`` and ``extend.json``
lost ``config.tol`` and the report's ``tolerance`` (in ``extend.json``,
``result.relations.tolerance``), and no other byte changed;
``relations_tracked.json`` and ``extend_tracked.json`` were added then:
ex_1_2 and its extension with ``--alpha pi``, whose residuals are tracked
enclosures of 0, not proofs, so both exit 1.

When ``classify`` came to decide exact affine actions exactly,
``classify.json`` changed on purpose: ex_1_2 with ``--alpha sqrt2`` is
``dense`` (the sample at radius 20 had read ``discrete-sequence``), with
``"heuristic": false``, a ``basis`` and no ``evidence``; demo 09's output
changed with it, and no other golden or demo output changed.

When ``simplify`` came to merge adjacent bounded conjugates, BC(f) o BC(g)
= BC(f o g), ``extend_tracked.json`` changed on purpose: the pi extension's
``a b = b a`` residual, and so ``worst_residual``, went from 3.454e-77
+- 6.91e-77 to 1.727e-77 +- 3.45e-77, since a two-letter cell map now
rounds through one conjugate where it rounded through two.  Its exit status
stays 1, and no other golden or demo output changed.

When a relation came to pass only on a proof, the relator lhs rhs^-1
simplifying to the identity, and ``simplify`` came to move an integer
translation past a cell whose maps are periodic, ``extend.json`` changed
on purpose: its three relations became ``"structural": true``, with no
other byte changed.  ``extend_tracked.json`` changed with it: ``t a = a t``
became structural, and ``t b = b t`` passes structurally, its residual
going from 1.727e-77 +- 3.45e-77 to ``0``; ``a b = b a``,
``worst_residual`` and the exit status 1 stayed as they were.  No other
golden or demo output changed.

Every JSON golden, and the live payload of every case, is also checked for
a verdict that could only rest on a tolerance or a sample: a relation
passes only when structural (a sampled residual of ``0`` proves nothing),
``homomorphism_ok`` is true only at residual ``0``, and no payload carries
a ``tolerance`` or ``config.tol``.
They are checked as well for a ``classify`` result that mixes its kinds: a
certified one (``"heuristic": false``) carries a non-empty ``basis`` and
no ``evidence``, a heuristic one ``evidence`` and no ``basis``.

To rewrite the files after an intended payload change::

    PYTHONPATH=src python tests/test_golden_payloads.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from functools import lru_cache

import pytest

from lineact.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# file name -> (exit status, argv)
CASES = {
    "gallery_list.json": (0, ["gallery-list"]),
    "eval.json": (0, ["eval", "--expr", "compose(affine(1,1),oddpower(3,root))",
                      "--point", "2"]),
    "orbit.json": (0, ["orbit", "--gallery", "ex_1_4", "--k", "2",
                       "--point", "1/2", "--radius", "4", "--window", "-2", "2"]),
    "orbit.csv": (0, ["orbit", "--gallery", "ex_1_2", "--alpha", "sqrt2",
                      "--point", "0", "--radius", "3", "--window", "0", "1",
                      "--format", "csv"]),
    "orbit_alpha.json": (0, ["orbit", "--gallery", "ex_1_2", "--alpha", "0.375",
                             "--point", "0", "--radius", "3"]),
    "relations.json": (0, ["relations", "--gallery", "ex_1_4", "--k", "2",
                           "--points", "40", "--window", "-4", "5"]),
    # pi is a tracked enclosure, so a b - b a is enclosed, never proved 0
    "relations_tracked.json": (1, ["relations", "--gallery", "ex_1_2", "--alpha", "pi",
                                   "--points", "4", "--window", "0", "1"]),
    "transitive_found.json": (0, ["transitive", "--gallery", "free_transitive",
                                  "--u", "0.1", "0.2", "--v", "10.5", "10.6",
                                  "--radius", "12"]),
    "transitive_absent.json": (1, ["transitive", "--gallery", "ex_1_1",
                                   "--u", "0", "0.3", "--v", "0.5", "0.8",
                                   "--radius", "8"]),
    "wander_find.json": (0, ["wander-find", "--gallery", "klein_bottle",
                             "--window", "-4", "4"]),
    "wander_check_certified.json": (0, ["wander-check", "--gallery",
                                        "klein_bottle", "--interval", "0.4375",
                                        "0.5625", "--radius", "4"]),
    "wander_check_refuted.json": (1, ["wander-check", "--gallery", "ex_1_4",
                                      "--k", "2", "--interval", "0.2", "0.3",
                                      "--radius", "5"]),
    "cantor.json": (0, ["cantor", "--gallery", "ex_1_4", "--k", "2",
                        "--depth", "2", "--radius", "4", "--orbit-depth", "1"]),
    "cantor.csv": (0, ["cantor", "--gallery", "ex_1_4", "--k", "2",
                       "--depth", "2", "--radius", "4", "--orbit-depth", "1",
                       "--format", "csv"]),
    "classify.json": (0, ["classify", "--gallery", "ex_1_2", "--alpha", "sqrt2",
                          "--point", "0", "--radius", "20", "--window", "0", "1"]),
    "extend.json": (0, ["extend", "--pairs", "30", "--points", "6"]),
    "extend_tracked.json": (1, ["extend", "--alpha", "pi", "--pairs", "4",
                                "--points", "2"]),
    # negative results: a construction that fails with its partial result
    "cantor_failed.json": (1, ["cantor", "--gallery", "ex_1_4", "--k", "2",
                               "--depth", "3", "--radius", "5"]),
    "cantor_no_move.json": (1, ["cantor", "--gallery", "ex_1_1", "--depth", "2",
                                "--radius", "5"]),
    # on a two-point grid only the window's ends show as fixed, and f does
    # not move (-4, 4) off itself
    "wander_find_failed.json": (1, ["wander-find", "--gallery", "klein_bottle",
                                    "--window", "-4", "4", "--grid", "2"]),
}


@lru_cache(maxsize=None)
def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def payload(argv: list[str]) -> tuple[int, str]:
    """(exit status, payload text with the timestamp removed)."""
    code, text = _run(tuple(argv))
    if not text.startswith("{"):
        return code, text
    doc = json.loads(text)
    doc.pop("timestamp")
    return code, json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name):
    status, argv = CASES[name]
    code, text = payload(argv)
    assert code == status
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert text == fh.read()


def _dicts(node):
    """Every dict in a parsed payload, outermost first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _dicts(item)


def _tolerance_breaches(doc) -> list[str]:
    """Every place in a payload where a verdict could rest on a tolerance
    or a sample: a passed relation that is not structural, a true
    homomorphism_ok at a residual other than 0, a tolerance key, config.tol."""
    found = ["config.tol"] if "tol" in doc.get("config", {}) else []
    for node in _dicts(doc):
        if "tolerance" in node:
            found.append(f"tolerance {node['tolerance']}")
        if "lhs" in node and node["passed"] and not node["structural"]:
            found.append(f"{node['lhs']} = {node['rhs']} passed at "
                         f"residual {node['residual']['value']}")
        if node.get("homomorphism_ok") and node["homomorphism_residual"]["value"] != "0":
            found.append(f"homomorphism_ok at residual "
                         f"{node['homomorphism_residual']['value']}")
    return found


GOLDEN_JSON = sorted(name for name in os.listdir(GOLDEN) if name.endswith(".json"))


def _golden(name: str) -> dict:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def _golden_and_live(name: str) -> list[dict]:
    docs = [_golden(name)]
    if name in CASES:
        docs.append(json.loads(payload(CASES[name][1])[1]))
    return docs


@pytest.mark.parametrize("name", GOLDEN_JSON)
def test_no_verdict_rests_on_a_tolerance(name):
    for doc in _golden_and_live(name):
        assert _tolerance_breaches(doc) == []


def _classify_breaches(doc) -> list[str]:
    """Every classify result that mixes a certified and a sampled class: a
    certified one needs a basis and no evidence, a heuristic one evidence
    and no basis."""
    found = []
    for node in _dicts(doc):
        if "class" not in node:
            continue
        if node["heuristic"] is False and (not node.get("basis") or "evidence" in node):
            found.append(f"certified {node['class']} without a basis or with evidence")
        if node["heuristic"] is True and ("evidence" not in node or "basis" in node):
            found.append(f"heuristic {node['class']} without evidence or with a basis")
    return found


@pytest.mark.parametrize("name", GOLDEN_JSON)
def test_classify_is_certified_or_sampled(name):
    for doc in _golden_and_live(name):
        assert _classify_breaches(doc) == []


def test_tolerance_guard_is_not_vacuous():
    # the goldens hold relations that pass and fail and a true
    # homomorphism_ok, and the guard flags what a tolerance would let by
    nodes = [node for name in GOLDEN_JSON for node in _dicts(_golden(name))]
    assert {node["passed"] for node in nodes if "lhs" in node} == {True, False}
    assert any(node.get("homomorphism_ok") for node in nodes)
    near = {"lhs": "a b", "rhs": "b a", "passed": True, "structural": False,
            "residual": {"value": "1/1000"}}
    assert len(_tolerance_breaches({"config": {"tol": "1/10"},
                                    "result": {"relations": [near]}})) == 2
    # exact zeros at every sample point prove nothing either
    lucky = {**near, "residual": {"value": "0"}}
    assert _tolerance_breaches({"result": {"relations": [lucky]}}) == [
        "a b = b a passed at residual 0"]


def test_classify_guard_is_not_vacuous():
    # the golden is certified and a tracked alpha is sampled; both pass the
    # guard, and each with the other's field does not
    certified = _golden("classify.json")["result"]
    assert certified["heuristic"] is False
    _, text = payload(["classify", "--gallery", "ex_1_2", "--alpha", "pi",
                       "--point", "0", "--radius", "4", "--window", "0", "1"])
    sampled = json.loads(text)["result"]
    assert sampled["heuristic"] is True
    assert _classify_breaches([certified, sampled]) == []
    assert len(_classify_breaches([
        {**certified, "evidence": sampled["evidence"]},
        {**certified, "basis": ""},
        {**sampled, "basis": certified["basis"]},
        {k: v for k, v in sampled.items() if k != "evidence"},
    ])) == 4

if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, (_, argv) in CASES.items():
        _, text = payload(argv)
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(name, file=sys.stderr)
