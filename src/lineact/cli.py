"""line-act: command-line front end.

Every run prints a JSON document (or CSV where it makes sense) containing
the full effective configuration, so a transcript is reproducible from its
own header.  Exit status: 0 on success, 1 on a negative result (certificate
refuted, no witness found, construction failed), 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import report
from .actions import (
    BadParameter,
    UnknownGalleryName,
    check_relations,
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    gallery_entries,
    homomorphism_residual,
    sample_points,
)
from .dynamics import (
    ConstructionFailed,
    LadderParams,
    NoMovingPair,
    NotApplicable,
    cantor_ladder,
    check_ladder,
    classify_orbit_closure,
    coverage_gap,
    find_wandering_interval,
    orbit,
    transitivity_search,
    wandering_certificate,
)
from .homeo import HorizonExceeded, eval_interval, evaluate
from .parse import ParseError, parse_action_file, parse_expr, parse_real
from .reals import _CONSTANTS, Interval, PrecisionExhausted, precision
from .words import UnknownGenerator, UnsupportedPresentation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--precision", type=int, default=256,
                   help="working precision in bits (default 256)")
    p.add_argument("--ceiling", type=int, default=4096,
                   help="precision ceiling for retry-and-double (default 4096)")
    p.add_argument("--output", default=None, help="write payload to a file")


def _add_action_source(p: argparse.ArgumentParser):
    p.add_argument("--gallery", default=None, help="catalog action id")
    p.add_argument("--spec", default=None, help="action specification file")
    p.add_argument("--alpha", default=None, help="translation length parameter")
    p.add_argument("--n", type=int, default=None, help="dilation parameter")
    p.add_argument("--k", type=int, default=None, help="ladder parameter")


def _resolve_action(args):
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return parse_action_file(fh.read()), {"spec": args.spec}
    if not args.gallery:
        raise BadParameter("choose an action: --gallery or --spec")
    params = {key: val for key, val in
              (("alpha", args.alpha), ("n", args.n), ("k", args.k)) if val is not None}
    return gallery(args.gallery, **params), {"gallery": args.gallery, "params": params}


def _interval(lo: str, hi: str) -> Interval:
    a, b = parse_real(lo), parse_real(hi)
    if a.cmp(b) is None:
        raise ValueError(f"interval endpoints {lo} .. {hi} are not certainly ordered")
    return Interval.open(a, b)


def _emit(args, command: str, config: dict, result: dict) -> None:
    doc = {
        "schema": report.SCHEMA,
        "command": command,
        "config": config,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": result,
    }
    _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_failed(args, command: str, cfg: dict, exc: Exception, partial_json) -> int:
    """Emit a construction's negative result: the diagnosis, and the partial
    result that a ConstructionFailed carries."""
    result = {"failed": str(exc)}
    if isinstance(exc, ConstructionFailed):
        result["partial"] = partial_json(exc.partial)
    _emit(args, command, _config(args, cfg), result)
    return EXIT_NEGATIVE


def _config(args, extra: dict) -> dict:
    return {"precision": args.precision, "ceiling": args.ceiling, **extra}


# --------------------------------------------------------------------------
# subcommand bodies (each returns an exit status)


def _cmd_gallery_list(args) -> int:
    rows = [{"id": k, "description": d} for k, d in gallery_entries()]
    _emit(args, "gallery-list", _config(args, {}), {"gallery": rows})
    return EXIT_OK


def _cmd_eval(args) -> int:
    expr = parse_expr(args.expr)
    cfg = {"expr": args.expr}
    if args.point is not None:
        x = parse_real(args.point)
        val = evaluate(expr, x)
        cfg["point"] = args.point
        _emit(args, "eval", _config(args, cfg), {"value": report.real_json(val)})
        return EXIT_OK
    iv = _interval(*args.interval)
    img = eval_interval(expr, iv)
    cfg["interval"] = args.interval
    _emit(args, "eval", _config(args, cfg), {"image": report.interval_json(img)})
    return EXIT_OK


def _cmd_relations(args) -> int:
    act, src = _resolve_action(args)
    window = _interval(*args.window)
    pts = sample_points(window, args.points)
    rep = check_relations(act, pts, Fraction(args.tol_num, args.tol_den))
    cfg = {"window": args.window, "points": args.points,
           "tol": f"{args.tol_num}/{args.tol_den}", **src}
    _emit(args, "relations", _config(args, cfg), report.relations_json(rep))
    return EXIT_OK if rep.passed else EXIT_NEGATIVE


def _cmd_orbit(args) -> int:
    act, src = _resolve_action(args)
    x = parse_real(args.point)
    pts = orbit(act, x, args.radius)
    # a window is parsed, and refused, in both formats
    window = _interval(*args.window) if args.window else None
    if args.format == "csv":
        _write(args, report.orbit_csv(pts))
        return EXIT_OK
    result = report.orbit_json(pts)
    cfg = {"point": args.point, "radius": args.radius, "format": args.format, **src}
    if window is not None:
        result["window"] = report.interval_json(window)
        result["coverage_gap"] = report.real_json(coverage_gap(pts, window))
        cfg["window"] = args.window
    _emit(args, "orbit", _config(args, cfg), result)
    return EXIT_OK


def _cmd_transitive(args) -> int:
    act, src = _resolve_action(args)
    U = _interval(*args.u)
    V = _interval(*args.v)
    w = transitivity_search(act, U, V, args.radius)
    cfg = {"u": args.u, "v": args.v, "radius": args.radius, **src}
    _emit(args, "transitive", _config(args, cfg), {
        "witness": None if w is None else str(w),
        "found": w is not None,
    })
    return EXIT_OK if w is not None else EXIT_NEGATIVE


def _cmd_wander_check(args) -> int:
    act, src = _resolve_action(args)
    J = _interval(*args.interval)
    cert = wandering_certificate(act, J, args.radius)
    cfg = {"interval": args.interval, "radius": args.radius, **src}
    _emit(args, "wander-check", _config(args, cfg),
          report.certificate_json(cert))
    return EXIT_OK if cert.certified else EXIT_NEGATIVE


def _cmd_wander_find(args) -> int:
    act, src = _resolve_action(args)
    window = _interval(*args.window)
    cfg = {"window": args.window, "grid": args.grid, **src}
    try:
        rep = find_wandering_interval(act, window, args.grid)
    except ConstructionFailed as exc:
        return _emit_failed(args, "wander-find", cfg, exc, report.find_report_json)
    _emit(args, "wander-find", _config(args, cfg), report.find_report_json(rep))
    return EXIT_OK


def _cmd_cantor(args) -> int:
    act, src = _resolve_action(args)
    seed = _interval(*args.seed_interval)
    params = LadderParams(orbit_depth=args.orbit_depth)
    cfg = {"depth": args.depth, "radius": args.radius,
           "orbit_depth": args.orbit_depth, "seed_interval": args.seed_interval,
           "format": args.format, **src}
    try:
        lad = cantor_ladder(act, args.depth, args.radius, seed, params)
    except (NoMovingPair, ConstructionFailed) as exc:
        return _emit_failed(args, "cantor", cfg, exc, report.ladder_json)
    checks = check_ladder(act, lad)
    if args.format == "csv":
        _write(args, report.ladder_csv(lad))
    else:
        result = report.ladder_json(lad)
        result["verification"] = report.checks_json(checks)
        _emit(args, "cantor", _config(args, cfg), result)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_NEGATIVE


def _cmd_classify(args) -> int:
    act, src = _resolve_action(args)
    window = _interval(*args.window)
    x = parse_real(args.point)
    cls = classify_orbit_closure(act, x, args.radius, window)
    cfg = {"point": args.point, "radius": args.radius,
           "window": args.window, **src}
    _emit(args, "classify", _config(args, cfg), report.classification_json(cls))
    return EXIT_OK


def _cmd_extend(args) -> int:
    inner_line = gallery("ex_1_2", alpha=args.alpha or "sqrt2")
    inner = conjugate_into_unit(inner_line)
    spec = direct_product_extension(inner, coset_label="t",
                                    horizon=args.horizon)
    act = extend_action(spec)
    window = _interval(*args.window)
    pts = sample_points(window, args.points)
    residual = homomorphism_residual(act, args.pairs, pts,
                                     args.len, seed=args.seed)
    tol = Fraction(args.tol_num, args.tol_den)
    ok = bool(residual.leq(tol))
    rel = check_relations(act, pts, tol)
    cfg = {"alpha": args.alpha or "sqrt2", "pairs": args.pairs,
           "points": args.points, "len": args.len, "horizon": args.horizon,
           "window": args.window, "tol": f"{args.tol_num}/{args.tol_den}",
           "seed": args.seed}
    _emit(args, "extend", _config(args, cfg), {
        "group": act.presentation.describe(),
        "generators": list(act.presentation.labels),
        "homomorphism_residual": report.real_json(residual),
        "homomorphism_ok": ok,
        "relations": report.relations_json(rel),
    })
    return EXIT_OK if ok and rel.passed else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="line-act",
        description="group actions on the line: evaluation, orbits, "
                    "certificates, constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # argparse reads only -3 and -0.5 as values; -1/2, -.5 and -sqrt2 are too
    negative = re.compile(r"^-(\d|\.\d|(%s)$)" % "|".join(_CONSTANTS), re.IGNORECASE)

    def cmd(name, fn, help_text, csv=False):
        # no abbreviations: cantor's --seed-interval would take a stray --seed
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p._negative_number_matcher = negative
        _add_common(p)
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(fn=fn)
        return p

    p = cmd("gallery-list", _cmd_gallery_list, "list catalog actions")

    p = cmd("eval", _cmd_eval, "evaluate an expression at a point or interval")
    p.add_argument("--expr", required=True)
    at = p.add_mutually_exclusive_group(required=True)
    at.add_argument("--point", default=None)
    at.add_argument("--interval", nargs=2, metavar=("LO", "HI"), default=None)

    p = cmd("relations", _cmd_relations, "verify defining relations numerically")
    _add_action_source(p)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--window", nargs=2, default=("-5", "5"))
    p.add_argument("--tol-num", type=int, default=1)
    p.add_argument("--tol-den", type=int, default=10**20)

    p = cmd("orbit", _cmd_orbit, "enumerate an orbit sample", csv=True)
    _add_action_source(p)
    p.add_argument("--point", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--window", nargs=2, default=None)

    p = cmd("transitive", _cmd_transitive, "search for a word moving U onto V")
    _add_action_source(p)
    p.add_argument("--u", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--v", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--radius", type=int, required=True)

    p = cmd("wander-check", _cmd_wander_check, "certify a wandering interval")
    _add_action_source(p)
    p.add_argument("--interval", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--radius", type=int, required=True)

    p = cmd("wander-find", _cmd_wander_find,
            "construct a wandering interval from fixed-set geometry")
    _add_action_source(p)
    p.add_argument("--window", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=512)

    p = cmd("cantor", _cmd_cantor, "run the nested-interval construction", csv=True)
    _add_action_source(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--orbit-depth", type=int, default=None)
    p.add_argument("--seed-interval", nargs=2, default=("0", "1"),
                   metavar=("LO", "HI"))

    p = cmd("classify", _cmd_classify, "classify an orbit closure heuristically")
    _add_action_source(p)
    p.add_argument("--point", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--window", nargs=2, required=True, metavar=("LO", "HI"))

    p = cmd("extend", _cmd_extend,
            "build the cyclic extension of a unit-interval action and sweep it")
    p.add_argument("--alpha", default=None)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--len", type=int, default=6)
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the residual's random word pairs (default 0)")
    p.add_argument("--window", nargs=2, default=("-3", "3"))
    p.add_argument("--tol-num", type=int, default=1)
    p.add_argument("--tol-den", type=int, default=10**20)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with precision(args.precision, args.ceiling):
            return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (BadParameter, UnknownGalleryName, UnknownGenerator,
            UnsupportedPresentation, NotApplicable, HorizonExceeded,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
