"""Each mutant of ``mutants.py`` fails the tests it names.

A mutant is made in a copy of ``src/ugconn`` under the test's temporary
directory, and the named tests run against the copy in a fresh
interpreter.  The named tests pass on an unmutated copy, so a kill is the
mutant's doing, not a broken id or a failing test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent

#: pytest's exit code when tests ran and some failed (not a usage or
#: collection error)
TESTS_FAILED = 1


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(
        ROOT / "src" / "ugconn",
        tmp_path / "ugconn",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return tmp_path / "ugconn"


def _run(tmp_path: Path, ids) -> subprocess.CompletedProcess:
    """The named tests, run from the repository root on the copy in tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_named_tests_kill_the_mutant(tmp_path, mutant):
    path = _copy(tmp_path) / mutant.module
    source = path.read_text()
    assert source.count(mutant.fragment) == 1, f"{mutant.module} moved the fragment"
    path.write_text(source.replace(mutant.fragment, mutant.replacement))
    res = _run(tmp_path, mutant.killers)
    assert res.returncode == TESTS_FAILED, res.stdout[-2000:] + res.stderr[-2000:]


def test_the_named_tests_pass_on_the_unmutated_package(tmp_path):
    _copy(tmp_path)
    ids = sorted({i for m in MUTANTS for i in m.killers})
    res = _run(tmp_path, ids)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert f"{len(ids)} passed" in res.stdout
