"""lineact benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Load is one single-threaded closed loop: each operation starts after the
previous one returns.  A run sets up the workload (importing lineact from
``src/`` and drawing the inputs from ``--seed``), makes a fixed number of
passes over the operations, and checks every result against the oracles in
``oracles.py``.  The number of passes follows from the workload and
``--seconds`` alone, never from the machine's speed, so every commit is
measured on the same samples.

Times are in reference seconds: each timed region's wall time, scaled by
how much slower than ``REFERENCE_SAMPLE_S`` a fixed pure-Python speed
sample ran before, during and after it (see ``Stopwatch``).  The host's
speed drifts by 1.4x and more within seconds, and the sample slows down with
lineact's own Python code, so the scaling takes that drift out.  The wall
times are printed and written out too.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
makes one warm-up pass, runs the layer probes, then alternates untraced and
traced passes; it prints the per-layer metrics (per traced pass) and the
tracing overhead.  Metric names and units are those of ``BENCHMARK.json``;
a run that would print any other set of metrics fails.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes its result,
with the environment and every operation's time, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MODULES = ["reals", "homeo", "words", "actions", "dynamics", "parse", "report", "cli"]
WORKLOAD_NAMES = ["ladder", "sweep", "cli"]

# A run makes one pass per SECONDS_PER_PASS of --seconds, and at least
# MIN_PASSES, whatever the machine's speed.  At --seconds 24 that is two
# passes of ladder and sweep and three of cli, whose tail needs the third.
SECONDS_PER_PASS = {"ladder": 12.0, "sweep": 12.0, "cli": 8.0}
MIN_PASSES = 2
# Set-ups per run, spread evenly between the operations of all passes, so
# that a slow stretch of the machine does not fall on all of them.
SETUP_REPS = 21
# Reference seconds are defined by speed_sample() taking REFERENCE_SAMPLE_S;
# on a 2-core x86 VM (Python 3.11) it takes about 0.55 ms when the host is
# quiet.  A timed region takes ENDPOINT_SAMPLES samples before and after it,
# and one every SAMPLE_EVERY_S of process CPU time inside it.
SAMPLE_TERMS = 100
REFERENCE_SAMPLE_S = 0.0005
ENDPOINT_SAMPLES = 5
SAMPLE_EVERY_S = 0.02


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an operation that ran past its deadline.

    A BaseException, so that no ``except Exception`` in lineact absorbs it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Record:
    kind: str
    seconds: float        # reference seconds
    outcome: str          # 'ok' | 'failed' | 'wrong'
    detail: str = ""
    wall_s: float = 0.0


def speed_sample() -> float:
    """Wall time of fixed work in plain Python and ``fractions``, as
    lineact's own code is, with the collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, SAMPLE_TERMS + 1):
            total += Fraction(i, i + 7) * Fraction(3, i + 1)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Stopwatch:
    """Times a region in wall and in reference seconds.

    Inside the region a SIGPROF timer takes a speed sample every
    SAMPLE_EVERY_S of CPU time, so that a slow stretch in the middle of a
    long operation is seen; the samples' own time is taken off the wall
    time.  The reference time is the wall time over the mean sample time,
    times REFERENCE_SAMPLE_S.
    """

    active: "Stopwatch | None" = None

    def __enter__(self) -> "Stopwatch":
        self.samples = [speed_sample() for _ in range(ENDPOINT_SAMPLES)]
        self.sampling_s = 0.0
        signal.signal(signal.SIGPROF, Stopwatch.on_prof)
        Stopwatch.active = self
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        Stopwatch.active = None
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.wall_s = t1 - self.t0 - self.sampling_s
        self.samples += [speed_sample() for _ in range(ENDPOINT_SAMPLES)]
        self.ref_s = self.wall_s * REFERENCE_SAMPLE_S / statistics.fmean(self.samples)
        return False

    @staticmethod
    def on_prof(signum, frame) -> None:
        watch = Stopwatch.active
        if watch is None:
            return
        Stopwatch.active = None  # no nested samples
        t0 = time.perf_counter()
        watch.samples.append(speed_sample())
        watch.sampling_s += time.perf_counter() - t0
        Stopwatch.active = watch


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them in `section`."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def lineact_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "lineact" or name.startswith("lineact.")}


def import_lineact() -> SimpleNamespace:
    """A fresh import of lineact from this checkout's src/ directory."""
    for name in lineact_modules():
        del sys.modules[name]
    pkg = importlib.import_module("lineact")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lineact imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"lineact.{m}") for m in MODULES})


def set_up(build, seed: int):
    """(lineact, operations): import lineact and build the inputs."""
    lx = import_lineact()
    return lx, build(lx, Random(seed))


def timed_set_up(build, seed: int) -> tuple[float, float]:
    """(reference s, wall s) of one more set-up; then put back the lineact
    modules in use."""
    saved = lineact_modules()
    try:
        with Stopwatch() as watch:
            set_up(build, seed)
        return watch.ref_s, watch.wall_s
    finally:
        for name in lineact_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()


def run_op(op, tracer=None, deadlines=True) -> Record:
    """Run one operation under a Stopwatch, then check its result."""
    deadline = op.deadline_s if deadlines else None
    failure = None
    with Stopwatch() as watch:
        try:
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                out = op.run()
            finally:
                if deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, DeadlineExceeded) as exc:
            failure = type(exc).__name__
        finally:
            if tracer is not None:
                tracer.end_scope()
    if failure is not None:
        return Record(op.kind, watch.ref_s, "failed", failure, watch.wall_s)
    if tracer is not None and op.payload_bytes is not None:
        tracer.counters["cli.payload_bytes"] += op.payload_bytes(out)
    try:
        problem = op.check(out)
    except Exception as exc:  # a malformed result is a wrong result
        problem = f"oracle could not read the result: {exc!r}"
    return Record(op.kind, watch.ref_s, "wrong" if problem else "ok", problem or "",
                  watch.wall_s)


def run_pass(ops, tracer=None, skip=frozenset(), deadlines=True,
             between=None) -> list[Record]:
    """One pass over `ops`; `between()` is called after each operation."""
    records = []
    for i, op in enumerate(ops):
        if i in skip:
            records.append(Record(op.kind, 0.0, "failed", "DeadlineExceeded"))
        else:
            records.append(run_op(op, tracer, deadlines))
        if between is not None:
            between()
    return records


def abandoned(records: list[Record]) -> frozenset[int]:
    """Operations that missed their deadline: skipped in later passes."""
    return frozenset(i for i, r in enumerate(records) if r.detail == "DeadlineExceeded")


def pass_seconds(passes: list[list[Record]], ops, attr: str = "seconds") -> float:
    """One pass's time: the sum over `ops` of each one's median pass."""
    return sum(statistics.median(getattr(p[i], attr) for p in passes) for i in ops)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1] if xs else 0.0
    return 100.0 * (n - 10) / n, xs[n - 11]


def summarize(passes: list[list[Record]], skip: frozenset[int]) -> dict:
    records = [r for p in passes for r in p]
    ok = [r.seconds for r in records if r.outcome == "ok"]
    ran = [i for i in range(len(passes[0])) if i not in skip]
    failures: dict[str, int] = {}
    for r in records:
        if r.outcome != "ok":
            key = f"{r.kind}: {r.detail}"
            failures[key] = failures.get(key, 0) + 1
    return {
        "records": records, "ok": ok, "failures": failures,
        "attempted": len(records), "failed": len(records) - len(ok),
        "wrong": sum(r.outcome == "wrong" for r in records),
        "run_s": pass_seconds(passes, ran),
        "run_wall_s": pass_seconds(passes, ran, "wall_s"),
        "passes": len(passes),
    }


def end_to_end(s: dict, setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    ok = s["ok"]
    setup_wall = statistics.median(wall for _, wall in setup_times)
    pct, tail_s = tail(ok)
    m = {
        "setup_s": statistics.median(ref for ref, _ in setup_times),
        "run_s": s["run_s"],
        "verdicts_per_s": len(ok) / s["passes"] / s["run_s"],
        "verdict_ms.p50": statistics.median(ok) * 1e3 if ok else 0.0,
        "verdict_ms.tail": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups spread over the run; "
                   f"wall {setup_wall:.4g} s",
        "run_s": f"one pass, each operation's median of {s['passes']} passes; "
                 f"wall {s['run_wall_s']:.4g} s",
        "verdicts_per_s": f"{len(ok)} correct verdicts in {s['passes']} passes",
        "verdict_ms.p50": f"{len(ok)} correct operations",
        "verdict_ms.tail": f"p{pct:.1f} of {len(ok)} correct operations",
        "peak_rss_mb": "peak resident set of the process",
    }
    return m, notes


def source_id() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lineact")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    out = {"lineact_sha256": digest.hexdigest()[:16]}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            out["lineact_commit"] = proc.stdout.strip()
    return out


def environment(args) -> dict:
    import mpmath

    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            **source_id(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / SECONDS_PER_PASS[workload]))


def check_declared(metrics: dict, declared: dict) -> None:
    missing, extra = declared.keys() - metrics.keys(), metrics.keys() - declared.keys()
    if missing or extra:
        raise SystemExit(f"metrics differ from {SPEC}: missing {sorted(missing)}, "
                         f"undeclared {sorted(extra)}")


def run_untraced(args, units, build, ops):
    """End-to-end metrics over a fixed number of passes."""
    n_passes = pass_count(args.workload, args.seconds)
    setup_times = [timed_set_up(build, args.seed)]
    every = max(1, n_passes * len(ops) // (SETUP_REPS - 1))
    done = itertools.count(1)

    def between():
        if next(done) % every == 0 and len(setup_times) < SETUP_REPS:
            setup_times.append(timed_set_up(build, args.seed))

    # The first pass finds the operations that miss their deadline; later
    # passes count them as failed without running them again.
    passes = [run_pass(ops, between=between)]
    skip = abandoned(passes[0])
    while len(passes) < n_passes:
        passes.append(run_pass(ops, skip=skip, between=between))
    s = summarize(passes, skip)
    metrics, notes = end_to_end(s, setup_times)
    check_declared(metrics, units)
    lines = [f"{name:<16} {metrics[name]:>14.6g} {unit:<4} ({notes[name]})"
             for name, unit in units.items()]
    lines.append(f"{'ops_failed':<16} {s['failed'] / s['attempted']:>14.6g} {'':<4} "
                 f"({s['failed']} of {s['attempted']} attempted operations)")
    for i in sorted(skip):
        lines.append(f"abandoned: {ops[i].kind} #{i} at its {passes[0][i].wall_s:.1f} s "
                     f"deadline, not in run_s")
    return passes, s, metrics, lines


def run_traced(args, units, probes, lx, ops):
    """Per-layer metrics per traced pass, and the tracing overhead."""
    from tracer import Tracer

    # The warm-up pass also finds the operations that miss their deadline.
    # Then untraced and traced passes alternate, so that a drift in machine
    # speed falls on both sides of the overhead.  Tracing slows operations,
    # so only the warm-up pass has deadlines.
    warm = run_pass(ops)
    skip = abandoned(warm)
    metrics = probes.run(lx)
    tracer = Tracer()
    untraced_passes, passes = [], []
    for _ in range(max(1, pass_count(args.workload, args.seconds) // 2)):
        untraced_passes.append(run_pass(ops, skip=skip, deadlines=False))
        tracer.install()
        try:
            passes.append(run_pass(ops, tracer=tracer, skip=skip, deadlines=False))
        finally:
            tracer.uninstall()
    metrics.update(tracer.layer_metrics(len(passes)))
    ran = [i for i in range(len(ops)) if i not in skip]
    untraced = pass_seconds(untraced_passes, ran)
    traced = pass_seconds(passes, ran)
    metrics["trace.run_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    check_declared(metrics, units)
    lines = [f"{name:<44} {value:>14.6g}" for name, value in metrics.items()]
    lines.append(f"tracing overhead: {traced - untraced:.3f} s on a {untraced:.3f} s "
                 f"untraced pass ({len(passes)} traced and untraced passes, "
                 f"{len(tracer.sp_name)} spans kept, {tracer.dropped_spans} dropped)")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv"))
    return passes, summarize(passes, skip), metrics, lines


def run_one(args) -> dict:
    sys.path.insert(0, HERE)
    import probes
    import workloads

    sys.path.insert(0, SRC)
    build = workloads.WORKLOADS[args.workload]
    lx, ops = set_up(build, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        units = declared_metrics("per_layer")
        passes, s, metrics, lines = run_traced(args, units, probes, lx, ops)
    else:
        units = declared_metrics("end_to_end")
        passes, s, metrics, lines = run_untraced(args, units, build, ops)

    by_kind: dict[str, list[float]] = {}
    for r in s["records"]:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    for kind, secs in by_kind.items():
        lines.append(f"op {kind:<22} {len(secs):>5} runs, median {statistics.median(secs) * 1e3:10.3f} ms")
    for key, count in sorted(s["failures"].items()):
        lines.append(f"failed: {count} x {key}")
    result = {
        "correct": s["wrong"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    op_seconds = [[r.seconds for r in p] for p in passes]
    op_wall_s = [[r.wall_s for r in p] for p in passes]
    return {"lines": lines, "result": result, "op_seconds": op_seconds, "op_wall_s": op_wall_s,
            "op_kinds": [op.kind for op in ops]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "lineact", "__init__.py")):
        print(f"error: no lineact sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results, status = {}, 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            out = proc.stdout.splitlines()
            print(f"== {name}")
            print("\n".join(out[:-1]))
            status = status or proc.returncode
            if proc.returncode == 0 and out:
                results[name] = json.loads(out[-1])
        print(json.dumps(results))
        return status

    env = environment(args)
    out = run_one(args)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(out["lines"]))
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, **out["result"], "op_kinds": out["op_kinds"],
                   "op_seconds": out["op_seconds"], "op_wall_s": out["op_wall_s"]},
                  fh, indent=1)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
