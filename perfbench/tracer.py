"""Span tracing of lineact's layers from outside the program.

:class:`Tracer` rebinds the public functions of each layer at run time: the
module attribute itself and every other lineact module global bound to the
same function object (``dynamics`` imports ``evaluate``, ``realize`` and
``precision`` by name; ``homeo.evaluate`` recurses through its own module
global).  ``Real`` and ``Interval`` methods are rebound on the classes.
Nothing in ``src/lineact`` changes; :meth:`Tracer.uninstall` restores every
binding.

Each wrapped call is a span.  Spans nest by caller through one stack, and a
span's self time is its duration minus the time of the spans it caused.
Scalar (``reals``) calls are too many to keep one by one, so they are
aggregated in place; the spans of every other layer are kept in memory, up
to a cap, and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

REALS, HOMEO, WORDS, ACTIONS, DYNAMICS, CLI = range(6)

# Real methods by span name (reals.<group>).
REAL_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "div", "__neg__": "neg", "__abs__": "abs",
    "pow_int": "pow", "pow_fraction": "pow", "pow_real": "pow", "root": "pow",
    "exp": "exp", "log": "log", "bounds": "bounds",
    "cmp": "compare", "cmp_fraction": "compare", "definitely_lt": "compare",
    "definitely_gt": "compare", "definitely_le": "compare", "leq": "compare",
    "approx_eq": "compare", "contains_zero": "compare",
}
REAL_RESULT_GROUPS = {"add", "sub", "mul", "div", "neg", "abs", "pow", "exp", "log"}

# (layer, span prefix, module, public functions)
LAYER_FUNCTIONS = [
    (HOMEO, "homeo", "lineact.homeo",
     ["eval_interval", "inverse", "simplify", "is_identity_on", "fixed_points"]),
    (WORDS, "words", "lineact.words",
     ["ball", "free_reduced_words", "reduce_letters", "normal_form_key", "multiply"]),
    (ACTIONS, "actions", "lineact.actions",
     ["realize", "check_relations", "homomorphism_residual"]),
    (DYNAMICS, "dynamics", "lineact.dynamics",
     ["orbit", "transitivity_search", "wandering_certificate",
      "find_wandering_interval", "cantor_ladder", "check_ladder",
      "classify_orbit_closure", "coverage_gap"]),
    (CLI, "cli", "lineact.cli", ["main"]),
    (CLI, "parse", "lineact.parse", ["parse_real", "parse_expr", "parse_action_file"]),
    (CLI, "report", "lineact.report", None),  # None: every name in __all__
]

class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.stack: list[list] = []        # frames: [child time, layer, span id]
        self.stats = defaultdict(lambda: [0, 0.0])   # span name -> [calls, self s]
        self.counters: Counter = Counter()
        self.max_spans = max_spans
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name, self.sp_parent = array("i"), array("i")
        self.sp_start, self.sp_end = array("d"), array("d")
        self.dropped_spans = 0
        self.rat_bits_max = 0
        self.precision_bits_max = 0
        self._dyn_depth = 0
        self._keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- span records ------------------------------------------------------

    def _open(self, name: str, parent: int, start: float) -> int:
        """Record a span and return its id, or -1 once the cap is reached."""
        if len(self.sp_name) >= self.max_spans:
            self.dropped_spans += 1
            return -1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        self.sp_name.append(nid)
        self.sp_parent.append(parent)
        self.sp_start.append(start)
        self.sp_end.append(0.0)
        return len(self.sp_name) - 1

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i, (nid, parent) in enumerate(zip(self.sp_name, self.sp_parent)):
                fh.write(f"{i},{self.span_names[nid]},{parent},"
                         f"{self.sp_start[i]!r},{self.sp_end[i]!r}\n")

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: int, name: str, fn, namer=None, on_result=None):
        """A spanning wrapper; `namer(args)` picks the span name per call."""
        stack, stats, clock = self.stack, self.stats, time.perf_counter
        record = layer != REALS
        st_fixed = None if namer else stats[name]
        dynamics = layer == DYNAMICS
        homeo = layer == HOMEO
        exhausted = self._exhausted

        def wrapper(*args, **kwargs):
            span = namer(args) if namer else name
            st = st_fixed or stats[span]
            parent = stack[-1] if stack else None
            start = clock()
            psid = parent[2] if parent else -1
            sid = self._open(span, psid, start) if record else -1
            if dynamics:
                outer = self._dyn_depth == 0
                if outer:
                    saved, self._keys = self._keys, set()
                self._dyn_depth += 1
            frame = [0.0, layer, sid if sid >= 0 else psid]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if homeo and isinstance(exc, exhausted) and (
                        parent is None or parent[1] != HOMEO):
                    self.counters["homeo.precision_exhausted"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st[0] += 1
                st[1] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if sid >= 0:
                    self.sp_end[sid] = end
                if dynamics:
                    self._dyn_depth -= 1
                    if outer:
                        self.counters["words.distinct_keys"] += len(self._keys)
                        self._keys = saved
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, layer: int, name: str, fn):
        """Generators do their work on each resume, so each resume is a span."""
        step = self._wrap(layer, name, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                yield value

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks ------------------------------------------------------

    def _real_result(self, r) -> None:
        if type(r) is not self._real_cls:
            return
        self.counters["reals.results"] += 1
        if r.is_rational:
            self.counters["reals.exact_results"] += 1
            q = r.as_fraction()
            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
            if bits > self.rat_bits_max:
                self.rat_bits_max = bits

    def _normal_key(self, key) -> None:
        self.counters["words.keys_computed"] += 1
        self._keys.add(key)

    def _certificate(self, cert) -> None:
        self.counters["dynamics.undecidable"] += sum(
            1 for v in cert.verdicts
            if v.verdict == "violation" and "undecidable" in v.reason)

    def end_scope(self) -> None:
        """Close the dedup scope of work done outside any sweep call."""
        self.counters["words.distinct_keys"] += len(self._keys)
        self._keys = set()

    # -- install / uninstall -----------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "lineact" and not modname.startswith("lineact."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _rebind_method(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        reals = sys.modules["lineact.reals"]
        homeo = sys.modules["lineact.homeo"]
        self._real_cls = reals.Real
        self._exhausted = reals.PrecisionExhausted
        self.precision_bits_max = max(self.precision_bits_max,
                                      reals.current_precision().bits)

        for attr, group in REAL_METHODS.items():
            fn = reals.Real.__dict__.get(attr)
            if callable(fn):
                hook = self._real_result if group in REAL_RESULT_GROUPS else None
                self._rebind_method(reals.Real, attr,
                                    self._wrap(REALS, f"reals.{group}", fn, on_result=hook))
        for attr, fn in list(vars(reals.Interval).items()):
            if attr.startswith("certainly_") and callable(fn):
                self._rebind_method(reals.Interval, attr,
                                    self._wrap(REALS, "reals.compare", fn))

        original_precision = reals.precision

        def precision(bits, ceiling=None):
            if bits > reals.current_precision().bits:
                self.counters["reals.precision_escalations"] += 1
            self.precision_bits_max = max(self.precision_bits_max, bits)
            return original_precision(bits, ceiling)

        self._rebind(original_precision, precision)

        evaluate = homeo.evaluate
        self._rebind(evaluate, self._wrap(
            HOMEO, "homeo.evaluate", evaluate,
            namer=lambda args: "homeo.evaluate." + type(args[0]).__name__))

        hooks = {"normal_form_key": self._normal_key,
                 "wandering_certificate": self._certificate}
        for layer, prefix, modname, names in LAYER_FUNCTIONS:
            mod = sys.modules[modname]
            for attr in names if names is not None else mod.__all__:
                fn = getattr(mod, attr, None)
                if not callable(fn) or isinstance(fn, type):
                    continue
                span = f"{prefix}.{attr}"
                if getattr(fn, "__code__", None) and fn.__code__.co_flags & 0x20:
                    wrapped = self._wrap_generator(layer, span, fn)
                else:
                    wrapped = self._wrap(layer, span, fn, on_result=hooks.get(attr))
                self._rebind(fn, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.stack.clear()

    # -- metrics -----------------------------------------------------------

    def _sum(self, prefix: str, field: int) -> float:
        return sum(v[field] for k, v in self.stats.items()
                   if k == prefix or k.startswith(prefix + "."))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts and times are averaged)."""
        c, per = self.counters, 1.0 / passes
        m: dict[str, float] = {}
        m["reals.self_s"] = self._sum("reals", 1) * per
        m["reals.calls"] = self._sum("reals", 0) * per
        m["reals.pow.self_s"] = self._sum("reals.pow", 1) * per
        m["reals.rat_bits_max"] = self.rat_bits_max
        m["reals.exact_share"] = (c["reals.exact_results"] / c["reals.results"]
                                  if c["reals.results"] else 0.0)
        m["reals.compare.calls"] = self._sum("reals.compare", 0) * per
        m["reals.precision_escalations"] = c["reals.precision_escalations"] * per
        m["reals.precision_bits_max"] = self.precision_bits_max
        m["homeo.self_s"] = self._sum("homeo", 1) * per
        for node in NODES:
            m[f"homeo.evaluate.{node}.calls"] = self._sum(f"homeo.evaluate.{node}", 0) * per
            m[f"homeo.evaluate.{node}.self_s"] = self._sum(f"homeo.evaluate.{node}", 1) * per
        m["homeo.eval_interval.calls"] = self._sum("homeo.eval_interval", 0) * per
        m["homeo.inverse.calls"] = self._sum("homeo.inverse", 0) * per
        m["homeo.precision_exhausted"] = c["homeo.precision_exhausted"] * per
        m["words.self_s"] = self._sum("words", 1) * per
        m["words.reduce_letters.calls"] = self._sum("words.reduce_letters", 0) * per
        m["words.normal_form_key.calls"] = self._sum("words.normal_form_key", 0) * per
        m["words.dedup_share"] = (c["words.distinct_keys"] / c["words.keys_computed"]
                                  if c["words.keys_computed"] else 0.0)
        m["actions.self_s"] = self._sum("actions", 1) * per
        m["actions.realize.calls"] = self._sum("actions.realize", 0) * per
        m["actions.realize.self_s"] = self._sum("actions.realize", 1) * per
        for fn in DYNAMICS_FUNCTIONS:
            m[f"dynamics.{fn}.self_s"] = self._sum(f"dynamics.{fn}", 1) * per
        m["dynamics.undecidable"] = c["dynamics.undecidable"] * per
        m["cli.self_s"] = self._sum("cli", 1) * per
        m["parse.self_s"] = self._sum("parse", 1) * per
        m["report.self_s"] = self._sum("report", 1) * per
        m["cli.payload_bytes"] = c["cli.payload_bytes"] * per
        return m


NODES = ["Affine", "OddPower", "UnitPowerLadder", "BoundedConjugate",
         "ExtensionCell", "Compose", "Inverse"]
DYNAMICS_FUNCTIONS = LAYER_FUNCTIONS[3][3]
