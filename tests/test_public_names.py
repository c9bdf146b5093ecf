"""Every name a lineact module lists in ``__all__``, and every lineact name
the README quotes, resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lineact
from lineact import reals

MODULES = [m.name for m in pkgutil.iter_modules(lineact.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"lineact.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


README = Path(__file__).resolve().parents[1] / "README.md"
# a backticked `lineact.<module>[.<name>]`, `Real.<attr>` or `Interval.<attr>`,
# perhaps called, as in `Real.shift(n)`
DOTTED = re.compile(r"`((?:lineact|Real|Interval)(?:\.\w+)+)(?:\([^`]*\))?`")


def _resolves(dotted: str) -> bool:
    head, *attrs = dotted.split(".")
    if head == "lineact":
        obj = importlib.import_module(f"lineact.{attrs.pop(0)}")
    else:
        obj = getattr(reals, head)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    names = DOTTED.findall(README.read_text(encoding="utf-8"))
    assert names
    assert [n for n in names if not _resolves(n)] == []
