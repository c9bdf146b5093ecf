"""JSON and CSV serialization of result objects.

All payloads carry the schema tag ``line-act/1``.  Serialization is
deterministic for a fixed configuration: dictionaries are emitted with
sorted keys by the CLI, scalars print through the canonical Real formatter
(exact rationals as ``p/q``, exact quadratics as ``p+q*sqrt2`` or
``p+q*sqrt3``, tracked values as decimal with an error suffix), and a
float approximation is attached where downstream plotting tools want
plain numbers.  Every such float is ``Real.mid_float``, the float nearest
the value's exact midpoint: a value beyond float range prints as ``null`` in
JSON and as ``inf``/``-inf`` in CSV, next to its exact text.
"""

from __future__ import annotations

import math
from typing import Optional

from .dynamics import (
    CantorLadder,
    FindReport,
    LadderCheck,
    OrbitClosureClass,
    OrbitPoint,
    WanderingCertificate,
)
from .actions import RelationReport
from .reals import Interval, Real

SCHEMA = "line-act/1"

__all__ = [
    "SCHEMA",
    "real_json",
    "interval_json",
    "orbit_json",
    "orbit_csv",
    "certificate_json",
    "relations_json",
    "find_report_json",
    "ladder_json",
    "ladder_csv",
    "checks_json",
    "classification_json",
]


def _approx(f: float) -> Optional[float]:
    """f as a JSON number: null beyond float range, where JSON has no inf."""
    return None if math.isinf(f) else f


def real_json(r: Real) -> dict:
    return {"value": str(r), "approx": _approx(r.mid_float()), "kind": r.kind}


def interval_json(iv: Optional[Interval]) -> Optional[dict]:
    if iv is None:
        return None
    return {
        "lo": str(iv.lo),
        "hi": str(iv.hi),
        "lo_approx": _approx(iv.lo.mid_float()),
        "hi_approx": _approx(iv.hi.mid_float()),
        "open_lo": iv.open_lo,
        "open_hi": iv.open_hi,
    }


def orbit_json(points: list[OrbitPoint]) -> dict:
    return {
        "count": len(points),
        "points": [
            {"x": real_json(p.value), "word": str(p.word)} for p in points
        ],
    }


def orbit_csv(points: list[OrbitPoint]) -> str:
    lines = ["x,word"]
    for p in points:
        lines.append(f"{p.value.mid_float()!r},{p.word}")
    return "\n".join(lines) + "\n"


def certificate_json(cert: WanderingCertificate) -> dict:
    return {
        "interval": interval_json(cert.interval),
        "radius": cert.radius,
        "certified": cert.certified,
        "witness": None if cert.witness is None else str(cert.witness),
        "counts": cert.counts(),
        "verdicts": [
            {"word": str(v.word), "verdict": v.verdict,
             **({"reason": v.reason} if v.reason else {})}
            for v in cert.verdicts
        ],
    }


def relations_json(rep: RelationReport) -> dict:
    return {
        "passed": rep.passed,
        "sample_size": rep.sample_size,
        "worst_residual": real_json(rep.worst_residual),
        "relations": [
            {
                "lhs": str(c.lhs),
                "rhs": str(c.rhs),
                "passed": c.passed,
                "structural": c.passed,  # a relation passes only on a proof
                "residual": real_json(c.residual),
            }
            for c in rep.checks
        ],
    }


def find_report_json(rep: FindReport) -> dict:
    return {
        "interval": interval_json(rep.interval),
        "pivot": rep.pivot_label,
        "component": interval_json(rep.component),
        "trivial_action": rep.trivial_action,
        "claims": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in rep.claims
        ],
    }


def ladder_json(lad: CantorLadder) -> dict:
    return {
        "depth": lad.depth,
        "radius": lad.radius,
        "seed": interval_json(lad.seed),
        "orbit_depth": lad.params.orbit_depth,
        "levels": [
            {
                "index": lvl.index,
                "mover": str(lvl.mover),
                "base_point": real_json(lvl.base_point),
                "v_interval": interval_json(lvl.v_interval),
                "grid_size": lvl.grid_size,
                "u_interval": interval_json(lvl.u_interval),
            }
            for lvl in lad.levels
        ],
        "element_sets": [[str(g) for g in gs] for gs in lad.element_sets],
        "lambda_sets": [
            [interval_json(iv) for iv in lam] for lam in lad.lambda_sets
        ],
    }


def ladder_csv(lad: CantorLadder) -> str:
    # one row per level: all lambda components, ready for plotting
    lines = ["level,component_index,lo,hi"]
    for i, lam in enumerate(lad.lambda_sets, start=1):
        for j, iv in enumerate(lam):
            lines.append(f"{i},{j},{iv.lo.mid_float()!r},{iv.hi.mid_float()!r}")
    return "\n".join(lines) + "\n"


def checks_json(checks: list[LadderCheck]) -> dict:
    return {
        "passed": all(c.passed for c in checks),
        "checks": [
            {"condition": c.condition, "level": c.level,
             "passed": c.passed, "detail": c.detail}
            for c in checks
        ],
    }


def classification_json(cls: OrbitClosureClass) -> dict:
    if cls.basis is not None:
        # decided exactly from the generators, with no sample drawn
        return {"class": cls.kind, "heuristic": False, "basis": cls.basis}
    # otherwise undecided: the finite sample's figures, which prove no class
    return {"class": cls.kind, "heuristic": True, "evidence": {
        k: _approx(v) if isinstance(v, float) else v
        for k, v in cls.evidence.items()}}

