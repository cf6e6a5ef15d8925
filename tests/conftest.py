"""Shared fixtures: the small Cayley graphs every test module leans on.

Graphs are session-scoped because building the n=7 instance (5040
vertices) is not free and none of the tests mutate them.
"""

from __future__ import annotations

import pytest

from ugconn import build_cayley, build_generating_graph
from ugconn.cayley import DenseGraph

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cycle_graph(n: int):
    pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return build_cayley(build_generating_graph(n, pairs, allow_triangle=(n == 3)))


def unicyclic_graph(n: int, c: int):
    """Cycle 1..c plus the pendant path c, c+1, ..., n."""
    pairs = [(i, i + 1) for i in range(1, c)] + [(1, c)]
    pairs += [(i, i + 1) for i in range(c, n)]
    return build_cayley(build_generating_graph(n, pairs))


def path_graph(n: int):
    return build_cayley(build_generating_graph(n, [(i, i + 1) for i in range(1, n)]))


def star_graph(n: int):
    return build_cayley(build_generating_graph(n, [(1, i) for i in range(2, n + 1)]))


def reach(masks, alive: int, start_bit: int) -> int:
    """Bitmask of the component of alive containing start_bit: a plain BFS.

    The tests' reference for the package's component walks, kept apart
    from the code under test.
    """
    seen = frontier = start_bit
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            nxt |= masks[b.bit_length() - 1]
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def hypercube(dim: int) -> DenseGraph:
    nbrs = tuple(
        tuple(sorted(v ^ (1 << b) for b in range(dim))) for v in range(1 << dim)
    )
    return DenseGraph(nbrs)


@pytest.fixture(scope="session")
def mb3():
    return cycle_graph(3)


@pytest.fixture(scope="session")
def mb4():
    return cycle_graph(4)


@pytest.fixture(scope="session")
def mb5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def mb6():
    return cycle_graph(6)


@pytest.fixture(scope="session")
def ug5():
    return unicyclic_graph(5, 4)


@pytest.fixture(scope="session")
def ug6():
    return unicyclic_graph(6, 4)


@pytest.fixture(scope="session")
def ug7():
    return unicyclic_graph(7, 4)


@pytest.fixture(scope="session")
def b3():
    return path_graph(3)


@pytest.fixture(scope="session")
def b4():
    return path_graph(4)


@pytest.fixture(scope="session")
def star4():
    return star_graph(4)


@pytest.fixture(scope="session")
def q3():
    return hypercube(3)
