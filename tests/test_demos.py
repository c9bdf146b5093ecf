"""Smoke test: each demo script runs to completion.

Demo 02 is also the only caller of ``ball`` and ``free_reduced_words``
outside the tests.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

# 07_cantor_ladder.py is left out: it builds the depth-3 ladder at radius 7,
# about a minute on its own, and tests/test_acceptance.py already runs that
# construction (criterion 7).
SCRIPTS = sorted(name for name in os.listdir(DEMOS)
                 if name.endswith(".py") and not name.startswith("07_"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
