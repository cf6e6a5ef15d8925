"""Every name a module imports is used in it, and importing the package
stays cheap: no package metadata, no pool machinery and no ``dataclasses``
(with the ``inspect`` it pulls in) at start-up, no ``argparse`` or
``json`` before the cli parses or writes, and neither the scans nor the
checks until a command or a caller uses them."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ugconn

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


def _fresh(script: str):
    """The JSON that script prints last, run in a new interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return json.loads(out.splitlines()[-1])


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
    new = _fresh(_NEW_MODULES)
    assert "ugconn.cli" in new
    heavy = ("importlib.metadata", "multiprocessing", "dataclasses", "inspect")
    assert [m for m in new if m.startswith(heavy)] == []


def test_import_loads_neither_the_scans_nor_the_checks():
    """Without bytecode files every process compiles what it imports."""
    new = _fresh(_NEW_MODULES)
    assert [m for m in new if m.startswith("ugconn")] == [
        "ugconn",
        "ugconn.cayley",
        "ugconn.cli",
        "ugconn.flows",
        "ugconn.genset",
        "ugconn.perms",
    ]


# Imports json only to print its result, after the import it measures and
# the commands it runs.
_NO_JSON = """
import contextlib, io, sys
before = set(sys.modules)
import ugconn, ugconn.cli
new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("argparse", "json"))
with contextlib.redirect_stdout(io.StringIO()) as version:
    try:
        ugconn.cli.main(["--version"])
    except SystemExit as exc:
        exit_code = exc.code
argv = ["verify", "--spec", "mb:4", "--checks", "cross-edge-count", "--workers", "1"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    verified = ugconn.cli.main(argv + ["--out", path])
with contextlib.redirect_stdout(io.StringIO()) as text:
    reported = ugconn.cli.main(["report", path])
import json
print(json.dumps([new, exit_code, version.getvalue(), verified, reported, text.getvalue()]))
"""


def test_import_loads_neither_argparse_nor_json(tmp_path):
    """The parser and the JSON commands load them, and still work."""
    path = str(tmp_path / "rep.json")
    new, exit_code, version, verified, reported, text = _fresh(
        f"path = {path!r}\n" + _NO_JSON
    )
    assert new == []
    assert (exit_code, version) == (0, ugconn.__version__ + "\n")
    assert (verified, reported) == (0, 0)
    assert "cross-edge-count" in text
    assert text.splitlines()[-1] == "PASS: 1 checks run, 0 skipped"


_COMMANDS = """
import contextlib, io, json, sys
import ugconn, ugconn.cli
before = set(sys.modules)
for argv in (
    ["connectivity", "--spec", "mb:4"],
    ["info", "--spec", "mb:4"],
    ["gen", "--spec", "mb:4", "--format", "graph6"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ugconn.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("ugconn"))))
"""


def test_gen_info_and_connectivity_load_no_further_module():
    """A timed connectivity request compiles nothing: flows came with the cli."""
    assert _fresh(_COMMANDS) == []


_CUT_SEARCH = """
import contextlib, io, json, sys
import ugconn.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ugconn.cli.main(["cut-search", "--spec", "mb:4", "--max-size", "3"])
print(json.dumps([code, "ugconn.cuts" in sys.modules, "ugconn.lemmas" in sys.modules]))
"""


def test_cut_search_loads_the_scans_but_not_the_checks():
    """The search's trial count lives in cuts, beside TRIAL_BLOCK."""
    assert _fresh(_CUT_SEARCH) == [0, True, False]


_BUILD_AND_CUT_SEARCH = """
import contextlib, io, json, sys
import ugconn, ugconn.cli
ugconn.build_cayley(ugconn.cli.parse_spec("ug:5:c=4")).dense.masks
with contextlib.redirect_stdout(io.StringIO()):
    code = ugconn.cli.main(["cut-search", "--spec", "mb:4", "--max-size", "3"])
print(json.dumps([code, "ugconn.cyclic" in sys.modules]))
"""


def test_graph_builds_and_cut_search_leave_the_case_split_unloaded():
    """``cyclic`` loads with the checks: only ``lemmas`` imports it."""
    assert _fresh(_BUILD_AND_CUT_SEARCH) == [0, False]


def _package_imports(source: str) -> set[str]:
    """The ugconn submodules that a module's import statements name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ugconn."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("ugconn.")
            )
    return out


def test_the_scan_reads_package_imports():
    source = "from .a import x\nfrom . import b\nimport ugconn.c\nfrom ugconn.d import y\n"
    assert _package_imports(source) == {"a", "b", "c", "d"}


def _unread_definitions(source: str, readers: list[str], public) -> list[str]:
    """The top-level functions and classes of source that no reader reads by name.

    A name in public counts as read: the package exports it.
    """
    read = {
        node.id
        for text in readers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Name)
    }
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read
        and node.name not in public
    ]


def test_the_scan_finds_an_unread_definition():
    source = "def a(): pass\ndef b(): a()\nclass C: pass\ndef d(): pass\n"
    assert _unread_definitions(source, [source, "C()\n"], ("d",)) == ["b"]


def test_cayley_holds_only_what_building_a_graph_needs():
    """Scan code belongs with the scans: cayley loads with every process.

    Everything cayley defines is read by cayley itself, by the cli or by
    flows, the modules that load with it, or is exported by the package.
    """
    src = ROOT / "src" / "ugconn"
    source = (src / "cayley.py").read_text()
    readers = [(src / name).read_text() for name in ("cayley.py", "cli.py", "flows.py")]
    assert _unread_definitions(source, readers, ugconn._EXPORTS["cayley"]) == []
    assert _package_imports(source) == {"genset", "perms"}


def test_no_module_unwraps_a_cayley_graph():
    """A CayleyGraph is a DenseGraph, so every routine takes the graph itself.

    Only cayley, which defines ``CayleyGraph.dense``, reads ``.dense``, and
    the unwrapping helpers ``_as_dense`` and ``_transitive`` stay gone.
    """
    gone = {"_as_dense", "_transitive"}
    found = []
    for path in MODULES + [ROOT / "src" / "ugconn" / "__init__.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "dense":
                if path.parent.name == "ugconn" and path.name != "cayley.py":
                    found.append(f"{path.name}:{node.lineno} reads .dense")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone:
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name in gone
                ]
    assert found == []


def _check_functions() -> dict:
    """{name: function node} of every function that ``lemmas.CHECKS`` lists."""
    tree = ast.parse((ROOT / "src" / "ugconn" / "lemmas.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["CHECKS"]
    ]
    names = [row.elts[1].id for row in table.elts]
    checks = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert len(checks) == len(names) == len(ugconn.CHECK_IDS)
    return checks


def test_only_verify_all_skips_a_check():
    """Where a check's claim is stated lives in ``lemmas._SCOPES`` alone.

    No function listed in ``CHECKS`` calls ``_skip`` or names ``SKIPPED``;
    ``verify_all`` reads the scope before it prices or runs a check.
    """
    checks = _check_functions()
    found = [
        f"{name}:{node.lineno} names {node.id}"
        for name, fn in checks.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in ("_skip", "SKIPPED")
    ]
    assert found == []


def test_only_verify_all_decides_gating():
    """Whether a check gates lives in ``lemmas._EXPLORATORY`` alone.

    No function listed in ``CHECKS`` names ``gating``, as a variable or a
    keyword, or holds a string containing "exploratory"; ``verify_all``
    sets the record's gating and appends the exploratory reason.
    """
    found = []
    for name, fn in _check_functions().items():
        for node in ast.walk(fn):
            if getattr(node, "id", getattr(node, "arg", None)) == "gating":
                found.append(f"{name}:{node.lineno} names gating")
            elif isinstance(node, ast.Constant) and "exploratory" in str(node.value):
                found.append(f"{name}:{node.lineno} says exploratory")
    assert found == []


def test_flows_imports_only_cayley_and_perms():
    """The flows stand below the scans and the checks, as a certificate checker needs."""
    source = (ROOT / "src" / "ugconn" / "flows.py").read_text()
    assert _package_imports(source) == {"cayley", "perms"}


# --- the lazy package ---------------------------------------------------------


def test_every_public_name_is_its_modules_object():
    resolved = _fresh("""
import importlib, json, ugconn
print(json.dumps([
    name for home, names in ugconn._EXPORTS.items() for name in names
    if getattr(ugconn, name) is not getattr(importlib.import_module("ugconn." + home), name)
]))
""")
    assert resolved == []


def test_dir_lists_every_public_name_before_it_loads():
    missing = _fresh("""
import json, ugconn
print(json.dumps([n for n in ugconn.__all__ + ["flows", "cuts", "lemmas"] if n not in dir(ugconn)]))
""")
    assert missing == []


def test_star_import_binds_every_name():
    unbound = _fresh("""
import json
import ugconn
from ugconn import *
print(json.dumps([n for n in ugconn.__all__ if n not in globals()]))
""")
    assert unbound == []


def test_lazy_submodules_resolve_as_attributes():
    """perfbench reads ``ugconn.lemmas`` after importing only the package."""
    loaded = _fresh("""
import json, sys
import ugconn
print(json.dumps([
    getattr(ugconn, name) is sys.modules["ugconn." + name]
    for name in ("lemmas", "cuts", "flows")
]))
""")
    assert loaded == [True, True, True]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ugconn.no_such_name
    assert not hasattr(ugconn, "TOOL_VERSION")
