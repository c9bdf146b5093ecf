"""Each demo script runs to completion and prints its pinned stdout.

The expected output of ``demos/<name>.py`` is ``tests/golden/demos/<name>.out``,
compared byte for byte.  To rewrite the files after an intended change::

    PYTHONPATH=src python tests/test_demos.py

Demo 02 is also the only caller of ``ball`` and ``free_reduced_words``
outside the tests.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "golden", "demos")

SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def run_demo(script: str) -> subprocess.CompletedProcess:
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def golden_path(script: str) -> str:
    return os.path.join(GOLDEN, script[:-len(".py")] + ".out")


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(golden_path(script), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for script in SCRIPTS:
        proc = run_demo(script)
        proc.check_returncode()
        with open(golden_path(script), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
        print(script, file=sys.stderr)
