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
    Mutant(
        name="escape-gates-on-the-whole-family",
        module="lemmas.py",
        fragment='    "out-neighbor-escape": (_CYCLE_ONLY,),\n',
        replacement="",
        killers=(
            "tests/test_lemmas.py::test_mb_scoped_checks_run_exploratory_on_ug5",
        ),
        why="the escape claim is stated for the cycle generator; on ug:5:c=4 a "
        "vertex of blocks 1-2 has no out-neighbor beyond block 2, so a gating "
        "check there would fail a report the paper does not contradict",
    ),
    Mutant(
        name="triple-gates-above-n4",
        module="lemmas.py",
        fragment='"common-neighbor-triple": (_CYCLE_ONLY, 4, _TRIPLE_N5),',
        replacement='"common-neighbor-triple": (_CYCLE_ONLY,),',
        killers=("tests/test_lemmas.py::test_common_neighbor_triple_gates_at_n4_only",),
        why="from n=5 on two pairs of commuting generators can share a "
        "generator, so the triple exclusion fails on mb:5; gating there "
        "would fail the cycle generator's own report",
    ),
)
