"""Test-suite configuration: Hypothesis draws the same examples on every run.

A derandomized profile derives each test's examples from the test itself, so
a property either holds on its fixed draw or fails on every run; no result
depends on a lucky seed.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
