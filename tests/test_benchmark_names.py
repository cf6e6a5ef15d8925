"""The names the benchmark's tracer looks up in ugconn are still bound.

``perfbench/layers.py`` wraps functions that ``ugconn.lemmas`` and
``ugconn.cli`` bind, by name.  A rename would fail only a traced benchmark
run, so this reads that file as a syntax tree (without importing it) and
looks each name up where the tracer does.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import ugconn.cli
import ugconn.lemmas

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
OWNERS = {"lemmas": ugconn.lemmas, "cli": ugconn.cli}


def _lookups(tree: ast.AST) -> tuple[set, set]:
    """({(owner, name)} the tracer reads, {(owner, name, parameter)} it binds)."""
    names = set()
    aliases = {}  # local name -> (owner, attribute) it was assigned from
    params = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in OWNERS
        ):
            names.add((node.value.id, node.attr))
        elif (  # (owner, "attribute", traced value) patch triples
            isinstance(node, ast.Tuple)
            and len(node.elts) == 3
            and isinstance(node.elts[0], ast.Name)
            and node.elts[0].id in OWNERS
            and isinstance(node.elts[1], ast.Constant)
        ):
            names.add((node.elts[0].id, node.elts[1].value))
        elif (  # layer_calls: each key is looked up on lemmas with getattr
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["layer_calls"]
        ):
            names.update(("lemmas", key.value) for key in node.value.keys)
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and getattr(node.value.value, "id", None) in OWNERS
        ):
            aliases[node.targets[0].id] = (node.value.value.id, node.value.attr)
    for node in ast.walk(tree):
        if (  # _arg(fn, args, kwargs, "parameter") binds fn's signature
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_arg"
            and node.args[0].id in aliases
        ):
            params.add((*aliases[node.args[0].id], node.args[3].value))
    return names, params


def test_the_scan_reads_the_tracer_lookups():
    names, params = _lookups(ast.parse(LAYERS.read_text()))
    assert {
        ("lemmas", "vertex_connectivity_detail"),
        ("lemmas", "disconnection_census"),
        ("lemmas", "CHECKS"),
        ("cli", "vertex_connectivity_detail"),
        ("cli", "build_cayley"),
    } <= names
    assert ("lemmas", "min_cyclic_cut_exhaustive", "max_size") in params


def test_every_name_the_tracer_looks_up_is_bound():
    names, params = _lookups(ast.parse(LAYERS.read_text()))
    missing = [f"{o}.{n}" for o, n in sorted(names) if not hasattr(OWNERS[o], n)]
    assert not missing
    unbound = [
        f"{o}.{n}({p})"
        for o, n, p in sorted(params)
        if p not in inspect.signature(getattr(OWNERS[o], n)).parameters
    ]
    assert not unbound
