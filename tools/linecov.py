"""Statement coverage of ``src/lineact`` under the test suite, with no
coverage package.

Runs pytest in this process under a ``sys.settrace`` line collector, takes
the statements of ``src/lineact`` from ``ast`` (docstrings left out) and
writes the statements no test reached, per function, as JSON, with the
run's outcome counts (passed, failed, xfailed and any other that occurs).
A statement counts as reached when any line of its own (its lines, less
those of the statements nested in it) runs.  An unreached ``raise`` is
marked as an accepted guard: an argument check or a can't-happen refusal.

    python tools/linecov.py --out COVERAGE.json [pytest args ...]

With no pytest args it runs tier-1 (``-q --continue-on-collection-errors``)
from the repository root.  Tracing slows the suite about threefold.
Subprocesses that tests start (the demos) are not traced.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lineact")
TIER1 = ["-q", "--continue-on-collection-errors"]


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _children(node: ast.stmt) -> list[ast.stmt]:
    """The statements nested one level inside node, except handlers' own
    lines, which stay node's."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += getattr(node, field, None) or []
    for handler in getattr(node, "handlers", None) or []:
        out += handler.body
    for case in getattr(node, "cases", None) or []:
        out += case.body
    return out


def statements(path: str) -> list[dict]:
    """Each statement of the file: its first line, function, own lines and
    whether it is a raise."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out: list[dict] = []

    def visit(body: list[ast.stmt], scope: str, has_docstring: bool) -> None:
        for i, node in enumerate(body):
            if i == 0 and has_docstring and _is_docstring(node):
                continue
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            own = set(range(start, node.end_lineno + 1))
            kids = _children(node)
            for kid in kids:
                own -= set(range(kid.lineno, kid.end_lineno + 1))
            out.append({"line": start, "function": scope, "own": own,
                        "guard": isinstance(node, ast.Raise)})
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
                visit(node.body, inner, True)
            elif kids:
                visit(kids, scope, False)

    visit(tree.body, "<module>", True)
    return out


class LineCollector:
    """Records (file, line) for every line event in the given files."""

    def __init__(self, files: set[str]):
        self.files = files
        self.hits: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.files else None

    def start(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


class OutcomeCounts:
    """A pytest plugin that keeps the summary line's outcome counts."""

    OUTCOMES = ("passed", "failed", "xfailed", "xpassed", "skipped", "error")

    def __init__(self):
        self.counts = dict.fromkeys(self.OUTCOMES[:3], 0)

    def pytest_terminal_summary(self, terminalreporter):
        stats = terminalreporter.stats
        self.counts.update({k: len(stats[k]) for k in self.OUTCOMES if stats.get(k)})


def report(hits: set[tuple[str, int]], files: list[str]) -> dict:
    """Counts, and per file and function the unreached statements as
    "line: code", split into ``unreached`` and accepted ``guards``."""
    total = reached = guards = 0
    unreached: dict = {}
    for path in files:
        per_function: dict = defaultdict(lambda: {"unreached": [], "guards": []})
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for st in statements(path):
            total += 1
            if any((path, n) in hits for n in st["own"]):
                reached += 1
                continue
            guards += st["guard"]
            entry = f"{st['line']}: {text[st['line'] - 1].strip()}"
            per_function[st["function"]]["guards" if st["guard"] else "unreached"].append(entry)
        if per_function:
            unreached[os.path.relpath(path, ROOT)] = dict(per_function)
    return {"statements": total, "reached": reached, "unreached": total - reached,
            "accepted_guards": guards, "unreached_by_function": unreached}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="statement coverage of src/lineact under pytest")
    ap.add_argument("--out", required=True, help="JSON report to write")
    args, pytest_args = ap.parse_known_args(argv)
    pytest_args = pytest_args or TIER1
    files = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE)
                   if f.endswith(".py"))

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    collector = LineCollector(set(files))
    outcomes = OutcomeCounts()
    t0 = time.perf_counter()
    collector.start()
    try:
        status = pytest.main(pytest_args, plugins=[outcomes])
    finally:
        collector.stop()
    elapsed = time.perf_counter() - t0

    result = {"command": "python tools/linecov.py " + " ".join(
                  ["--out", args.out] + pytest_args),
              "pytest_exit": int(status), "traced_run_s": round(elapsed, 1),
              "outcomes": outcomes.counts,
              **report(collector.hits, files)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"{result['reached']} of {result['statements']} statements reached, "
          f"{result['unreached']} not ({result['accepted_guards']} accepted guards); "
          f"{args.out}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
