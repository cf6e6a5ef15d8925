"""Deliberate faults that the suite must catch: one row per mutant.

A row names a module of ``src/ugconn``, a source fragment that occurs in
it exactly once, the fragment's replacement, the test ids that must fail
on a copy of the package with that replacement made, and why the fault
matters.  ``test_mutants.py`` applies each row; when a refactor moves the
fragment, the row fails until it is updated, so a kill is never lost
without notice.  Standard library only.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/ugconn
    fragment: str  # occurs exactly once in the module
    replacement: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root
    why: str


MUTANTS = (
    Mutant(
        name="packing-counts-overlapping-remnants",
        module="cyclic.py",
        fragment="                if not remnant & used:\n",
        replacement="                if remnant:\n",
        killers=("tests/test_cyclic.py::test_n5_values_and_work[mb:5]",),
        why="two overlapping remnants Q - A may share their one vertex of the "
        "final N(A), so counting both overstates the bound and may prune a "
        "live side; no value tried moves, so the node count is the kill",
    ),
    Mutant(
        name="census-counts-twin-singletons",
        module="cuts.py",
        fragment="single = split & ~several if order - size >= 3 else 0",
        replacement="single = split & ~several",
        killers=(
            "tests/test_cuts.py::test_scans_match_a_per_set_reach_loop[bare twins]",
        ),
        why="a set that leaves two non-adjacent twins u, w with N(u) = N(w) "
        "equal to the fault would count two neighbourhood matches by "
        "popcount where the walk counts one",
    ),
    Mutant(
        name="falsifier-tests-the-empty-fault",
        module="cuts.py",
        fragment="        if not fmask:\n            return False\n",
        replacement="",
        killers=(
            "tests/test_cuts.py::"
            "test_searches_skip_the_empty_fault_on_a_disconnected_graph",
        ),
        why="on a disconnected graph the kernel flags the empty fault, which "
        "removes nothing and is no cut",
    ),
)
