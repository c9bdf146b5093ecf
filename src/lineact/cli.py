"""line-act: command-line front end.

Every run prints a JSON document (or CSV where it makes sense) whose
``config`` lists every option that is set, so a transcript is reproducible
from its own header.  Exit status: 0 on success, 1 on a negative result
(certificate refuted, no witness found, construction failed), 2 on errors:
a refused input (every refusal is a ValueError), a parse error, exhausted
precision, or an unreadable or unwritable file.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from . import report
from .actions import (
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
    cantor_ladder,
    check_ladder,
    classify_orbit_closure,
    coverage_gap,
    find_wandering_interval,
    orbit,
    transitivity_search,
    wandering_certificate,
)
from .homeo import eval_interval, evaluate
from .parse import ParseError, parse_action_file, parse_expr, parse_real
from .reals import (_CONSTANTS, _DEFAULT_BITS, _DEFAULT_CEILING, Interval,
                    PrecisionExhausted, precision)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# the options that name an action, which the config folds into one entry
_SOURCE = ("gallery", "spec", "alpha", "n", "k")


def _source(args) -> dict:
    """The action source as the config names it: the spec file, or the
    gallery id and the parameters that are set."""
    if args.spec:
        return {"spec": args.spec}
    params = {key: getattr(args, key) for key in ("alpha", "n", "k")
              if getattr(args, key) is not None}
    return {"gallery": args.gallery, "params": params}


def _resolve_action(args):
    src = _source(args)
    if "spec" in src:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return parse_action_file(fh.read())
    if not args.gallery:
        raise ValueError("choose an action: --gallery or --spec")
    return gallery(args.gallery, **src["params"])


def _interval(lo: str, hi: str) -> Interval:
    a, b = parse_real(lo), parse_real(hi)
    if a.cmp(b) is None:
        raise ValueError(f"interval endpoints {lo} .. {hi} are not certainly ordered")
    return Interval.open(a, b)


def _status(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_NEGATIVE


def _failed(exc: ConstructionFailed, partial_json) -> tuple[int, dict]:
    """A construction's negative result: the diagnosis, and the partial
    result when the construction got that far."""
    result = {"failed": str(exc)}
    if exc.partial is not None:
        result["partial"] = partial_json(exc.partial)
    return EXIT_NEGATIVE, result


# --------------------------------------------------------------------------
# subcommand bodies: each returns (exit status, payload result or CSV text)


def _cmd_gallery_list(args):
    return EXIT_OK, {"gallery": [{"id": k, "description": d} for k, d in gallery_entries()]}


def _cmd_eval(args):
    expr = parse_expr(args.expr)
    if args.point is not None:
        return EXIT_OK, {"value": report.real_json(evaluate(expr, parse_real(args.point)))}
    img = eval_interval(expr, _interval(*args.interval))
    return EXIT_OK, {"image": report.interval_json(img)}


def _cmd_relations(args):
    act = _resolve_action(args)
    pts = sample_points(_interval(*args.window), args.points)
    rep = check_relations(act, pts)
    return _status(rep.passed), report.relations_json(rep)


def _cmd_orbit(args):
    act = _resolve_action(args)
    pts = orbit(act, parse_real(args.point), args.radius)
    # a window is parsed, and refused, in both formats
    window = _interval(*args.window) if args.window else None
    if args.format == "csv":
        return EXIT_OK, report.orbit_csv(pts)
    result = report.orbit_json(pts)
    if window is not None:
        result["window"] = report.interval_json(window)
        result["coverage_gap"] = report.real_json(coverage_gap(pts, window))
    return EXIT_OK, result


def _cmd_transitive(args):
    act = _resolve_action(args)
    w = transitivity_search(act, _interval(*args.u), _interval(*args.v), args.radius)
    return _status(w is not None), {"witness": None if w is None else str(w),
                                    "found": w is not None}


def _cmd_wander_check(args):
    act = _resolve_action(args)
    cert = wandering_certificate(act, _interval(*args.interval), args.radius)
    return _status(cert.certified), report.certificate_json(cert)


def _cmd_wander_find(args):
    act = _resolve_action(args)
    window = _interval(*args.window)
    try:
        rep = find_wandering_interval(act, window, args.grid)
    except ConstructionFailed as exc:
        return _failed(exc, report.find_report_json)
    return EXIT_OK, report.find_report_json(rep)


def _cmd_cantor(args):
    act = _resolve_action(args)
    seed = _interval(*args.seed_interval)
    params = LadderParams(orbit_depth=args.orbit_depth)
    try:
        lad = cantor_ladder(act, args.depth, args.radius, seed, params)
    except ConstructionFailed as exc:
        return _failed(exc, report.ladder_json)
    checks = check_ladder(act, lad)
    status = _status(all(c.passed for c in checks))
    if args.format == "csv":
        return status, report.ladder_csv(lad)
    return status, {**report.ladder_json(lad), "verification": report.checks_json(checks)}


def _cmd_classify(args):
    act = _resolve_action(args)
    window = _interval(*args.window)
    cls = classify_orbit_closure(act, parse_real(args.point), args.radius, window)
    return EXIT_OK, report.classification_json(cls)


def _cmd_extend(args):
    inner = conjugate_into_unit(gallery("ex_1_2", alpha=args.alpha))
    spec = direct_product_extension(inner, coset_label="t", horizon=args.horizon)
    act = extend_action(spec)
    pts = sample_points(_interval(*args.window), args.points)
    residual = homomorphism_residual(act, args.pairs, pts, args.len, seed=args.seed)
    rel = check_relations(act, pts)
    # von Dyck: the generator images extend to the group exactly when every
    # relator acts as the identity; the residual is a rounding figure only
    return _status(rel.passed), {
        "group": act.presentation.describe(),
        "generators": list(act.presentation.labels),
        "homomorphism_residual": report.real_json(residual),
        "homomorphism_ok": rel.passed,
        "relations": report.relations_json(rel),
    }


def build_parser() -> argparse.ArgumentParser:
    """The line-act parser."""
    ap = argparse.ArgumentParser(
        prog="line-act",
        description="group actions on the line: evaluation, orbits, "
                    "certificates, constructions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # argparse reads only -3 and -0.5 as values; -1/2, -.5 and -sqrt2 are too
    negative = re.compile(r"^-(\d|\.\d|(%s)$)" % "|".join(_CONSTANTS), re.IGNORECASE)

    def cmd(name, fn, help_text, source=True, csv=False):
        """The subcommand's parser with the shared options."""
        # no abbreviations: cantor's --seed-interval would take a stray --seed
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p._negative_number_matcher = negative
        p.add_argument("--precision", type=int, default=_DEFAULT_BITS,
                       help="working precision in bits (default %(default)s)")
        p.add_argument("--ceiling", type=int, default=_DEFAULT_CEILING,
                       help="precision ceiling for retry-and-double (default %(default)s)")
        p.add_argument("--output", help="write payload to a file")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if source:
            p.add_argument("--gallery", help="catalog action id")
            p.add_argument("--spec", help="action specification file")
            p.add_argument("--alpha", help="translation length parameter")
            p.add_argument("--n", type=int, help="dilation parameter")
            p.add_argument("--k", type=int, help="ladder parameter")
        p.set_defaults(fn=fn)
        return p

    cmd("gallery-list", _cmd_gallery_list, "list catalog actions", source=False)

    p = cmd("eval", _cmd_eval, "evaluate an expression at a point or interval",
            source=False)
    p.add_argument("--expr", required=True)
    at = p.add_mutually_exclusive_group(required=True)
    at.add_argument("--point")
    at.add_argument("--interval", nargs=2, metavar=("LO", "HI"))

    p = cmd("relations", _cmd_relations,
            "check defining relations: proved, or exactly zero at every sample point")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--window", nargs=2, default=("-5", "5"))

    p = cmd("orbit", _cmd_orbit, "enumerate an orbit sample", csv=True)
    p.add_argument("--point", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--window", nargs=2)

    p = cmd("transitive", _cmd_transitive, "search for a word moving U onto V")
    p.add_argument("--u", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--v", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--radius", type=int, required=True)

    p = cmd("wander-check", _cmd_wander_check, "certify a wandering interval")
    p.add_argument("--interval", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--radius", type=int, required=True)

    p = cmd("wander-find", _cmd_wander_find,
            "construct a wandering interval from fixed-set geometry")
    p.add_argument("--window", nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=512,
                   help="grid points of the pivot's fixed-point scan, which "
                        "a ladder pivot skips when the window holds at most "
                        "this many integers")

    p = cmd("cantor", _cmd_cantor, "run the nested-interval construction", csv=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--orbit-depth", type=int)
    p.add_argument("--seed-interval", nargs=2, default=("0", "1"),
                   metavar=("LO", "HI"))

    p = cmd("classify", _cmd_classify,
            "classify an orbit closure: exactly for exact affine actions, "
            "else heuristically from an orbit sample")
    p.add_argument("--point", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--window", nargs=2, required=True, metavar=("LO", "HI"))

    p = cmd("extend", _cmd_extend,
            "build the cyclic extension of a unit-interval action and sweep it",
            source=False)
    p.add_argument("--alpha", default="sqrt2")
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--len", type=int, default=6)
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the residual's random word pairs (default 0)")
    p.add_argument("--window", nargs=2, default=("-3", "3"))

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and reused for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with precision(args.precision, args.ceiling):
            status, result = args.fn(args)
        if isinstance(result, dict):
            # the config is the options as parsed: every one that is set
            config = {key: val for key, val in vars(args).items()
                      if val is not None and key not in ("command", "fn", "output")}
            if "spec" in vars(args):
                config = {key: val for key, val in config.items()
                          if key not in _SOURCE} | _source(args)
            result = json.dumps({
                "schema": report.SCHEMA,
                "command": args.command,
                "config": config,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "result": result,
            }, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(result)
        else:
            sys.stdout.write(result)
        return status
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
