"""Guard on the public API: each exported name resolves, is listed once, and
is read by the library itself or by the benchmark, so that code kept only
for the tests' sake stays in tests/."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import bellkit

ROOT = Path(__file__).resolve().parents[1]
READERS = sorted((ROOT / "src" / "bellkit").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _reads() -> Counter:
    """Names read in the library modules (not __init__.py, whose imports only
    re-export) and in bench/: every attribute, and every bare name that its
    module defines or imports, so a local variable of the same name does not
    count.  Reads inside a name's own top-level definition do not count."""
    counts: Counter = Counter()
    for path in READERS:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        known = {getattr(top, "name", None) for top in tree.body}
        known |= {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Name) and node.id in known:
                    name = node.id
                else:
                    continue
                if name != getattr(top, "name", None):
                    counts[name] += 1
    return counts


READ = _reads()


def test_every_export_listed_once():
    assert [name for name, k in Counter(bellkit.__all__).items() if k > 1] == []


@pytest.mark.parametrize("name", bellkit.__all__)
def test_export_resolves(name):
    assert getattr(bellkit, name) is not None


@pytest.mark.parametrize("name", bellkit.__all__)
def test_export_read_outside_tests(name):
    assert READ[name] > 0, f"{name} is read only by the tests"
