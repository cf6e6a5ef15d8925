"""Every name a module imports is used in it, and importing the package
stays cheap: no package metadata, no pool machinery and no ``dataclasses``
(with the ``inspect`` it pulls in) at start-up."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "ugconn").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def _unused_imports(source: str) -> list[str]:
    """The names bound by import statements that never occur as a Name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    assert _unused_imports("from x import a, b\nimport c.d\nimport e as f\nb(f)\n") == [
        "a (line 1)",
        "c (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


# Compares against the modules loaded before the import, so a site hook
# that loads one of them does not count against the package.
_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import ugconn, ugconn.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_metadata_nor_multiprocessing():
    """Nor dataclasses and inspect: the records are NamedTuples."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    new = json.loads(out)
    assert "ugconn.cli" in new
    heavy = ("importlib.metadata", "multiprocessing", "dataclasses", "inspect")
    assert [m for m in new if m.startswith(heavy)] == []
