"""Transposition generating graphs on positions [n].

The generating set of each Cayley graph is described by a simple graph on
the positions 1..n with one edge per transposition.  This module builds and
validates that graph, classifies its shape, and picks the position to peel
for the hierarchical block decomposition.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

Edge = tuple[int, int]

STAR = "Star"
PATH = "Path"
OTHER_TREE = "OtherTree"
CYCLE = "Cycle"
UNICYCLIC_TF = "UnicyclicTriangleFree"
OTHER = "Other"

#: the classification vocabulary, stable across versions
CLASSES = (STAR, PATH, OTHER_TREE, CYCLE, UNICYCLIC_TF, OTHER)

#: classes that admit a peel position (trees and the unicyclic family)
PEELABLE = (STAR, PATH, OTHER_TREE, CYCLE, UNICYCLIC_TF)


class GeneratingGraphError(ValueError):
    """The edge list does not describe a usable generating graph."""


def describe(g: "GeneratingGraph") -> str:
    """One-line descriptor used in reports and witness files."""
    edges = ",".join(f"{a}-{b}" for a, b in g.edges)
    return f"class={g.cls} n={g.n} edges={edges}"


class GeneratingGraph(NamedTuple):
    """Validated generating graph with its computed class tag."""

    n: int
    edges: tuple[Edge, ...]  # sorted pairs in sorted order
    cls: str

    def neighbors(self, k: int) -> tuple[int, ...]:
        out = [b if a == k else a for a, b in self.edges if k in (a, b)]
        return tuple(sorted(out))

    def degree(self, k: int) -> int:
        return len(self.neighbors(k))


class PeelChoice(NamedTuple):
    """Position removed by one decomposition step and its anchors in G."""

    position: int
    anchors: tuple[int, ...]


def _normalize_edges(n: int, pairs: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    seen: set[Edge] = set()
    out: list[Edge] = []
    for pair in pairs:
        if len(pair) != 2:
            raise GeneratingGraphError(f"edge must have two endpoints: {tuple(pair)!r}")
        a, b = int(pair[0]), int(pair[1])
        if a == b:
            raise GeneratingGraphError(f"loop edge {a}-{b} not allowed")
        if not (1 <= a <= n and 1 <= b <= n):
            raise GeneratingGraphError(f"edge {a}-{b} out of range 1..{n}")
        e = (min(a, b), max(a, b))
        if e in seen:
            raise GeneratingGraphError(f"duplicate edge {e[0]}-{e[1]}")
        seen.add(e)
        out.append(e)
    return tuple(sorted(out))


def _adjacency(n: int, edges: Iterable[Edge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {k: set() for k in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _is_connected(n: int, adj: dict[int, set[int]]) -> bool:
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _find_triangle(adj: dict[int, set[int]]) -> tuple[int, int, int] | None:
    for a in adj:
        for b in adj[a]:
            if b <= a:
                continue
            common = adj[a] & adj[b]
            for c in sorted(common):
                if c != a and c != b:
                    return (a, b, c)
    return None


def _classify(n: int, edges: tuple[Edge, ...], adj: dict[int, set[int]]) -> str:
    m = len(edges)
    degrees = [len(adj[k]) for k in range(1, n + 1)]
    if m == n - 1:
        # spanning tree
        if n >= 2 and max(degrees) == n - 1:
            return STAR
        if degrees.count(1) == 2:
            return PATH
        return OTHER_TREE
    if m == n:
        if _find_triangle(adj) is not None:
            return OTHER
        if all(d == 2 for d in degrees):
            return CYCLE
        return UNICYCLIC_TF
    return OTHER


def build_generating_graph(
    n: int,
    pairs: Iterable[Sequence[int]],
    allow_triangle: bool = False,
) -> GeneratingGraph:
    """Validate an edge list on positions [n] and classify its shape.

    Disconnected inputs are rejected outright: a transposition set only
    generates the full symmetric group when its graph spans the positions.
    Triangles are rejected by default because the unicyclic family studied
    here is triangle-free; ``allow_triangle=True`` is the explicit opt-in
    used by the complete-cycle preset at n=3, and such graphs classify as
    Other.
    """
    if n < 2:
        raise GeneratingGraphError("need at least two positions")
    edges = _normalize_edges(n, pairs)
    if not edges:
        raise GeneratingGraphError("edge list is empty")
    adj = _adjacency(n, edges)
    if not _is_connected(n, adj):
        raise GeneratingGraphError(
            "generating graph is disconnected; it would not generate Sym(n)"
        )
    tri = _find_triangle(adj)
    if tri is not None and not allow_triangle:
        raise GeneratingGraphError(f"triangle {tri[0]}-{tri[1]}-{tri[2]} present")
    return GeneratingGraph(n=n, edges=edges, cls=_classify(n, edges, adj))


def classify(g: GeneratingGraph) -> str:
    """Recompute the class tag of an already-built graph."""
    return _classify(g.n, g.edges, _adjacency(g.n, g.edges))


def automorphisms(g: GeneratingGraph) -> tuple[tuple[int, ...], ...]:
    """Position permutations that map g's edge set onto itself, identity first.

    sigma is given in one-line form, sigma[i - 1] being the image of
    position i, and the permutations come in lexicographic order.  Found by
    backtracking over the positions in order: position i may take image x
    only when their degrees match and x is adjacent to each earlier image
    exactly when i is adjacent to that position, so every full assignment
    maps edges to edges and non-edges to non-edges.
    """
    adj = _adjacency(g.n, g.edges)
    out = []
    sigma: list[int] = []

    def extend(i: int) -> None:
        if i > g.n:
            out.append(tuple(sigma))
            return
        for x in range(1, g.n + 1):
            if (
                x not in sigma
                and len(adj[x]) == len(adj[i])
                and all((y in adj[x]) == (j in adj[i]) for j, y in enumerate(sigma, 1))
            ):
                sigma.append(x)
                extend(i + 1)
                sigma.pop()

    extend(1)
    return tuple(out)


def choose_peel(g: GeneratingGraph) -> PeelChoice:
    """Pick the position removed by one decomposition step.

    Trees and non-cycle unicyclic graphs peel a leaf, preferring position n
    when it is a leaf and the largest-numbered leaf otherwise, so repeated
    peeling of a canonical input is deterministic.  A pure cycle peels
    position n with both of its cycle neighbors as anchors.
    """
    if g.cls not in PEELABLE:
        raise GeneratingGraphError(f"class {g.cls} has no peel position")
    if g.cls == CYCLE:
        return PeelChoice(position=g.n, anchors=g.neighbors(g.n))
    leaves = [k for k in range(1, g.n + 1) if g.degree(k) == 1]
    pos = g.n if g.n in leaves else max(leaves)
    return PeelChoice(position=pos, anchors=g.neighbors(pos))


def relabel_to_canonical(g: GeneratingGraph) -> tuple[GeneratingGraph, dict[int, int]]:
    """Relabel positions so the chosen peel position is literally n.

    Returns the relabeled graph plus the full old-to-new position mapping.
    The mapping is the identity when the graph is already canonical and a
    single label swap otherwise, so the two Cayley graphs are isomorphic.
    """
    peel = choose_peel(g)
    mapping = {k: k for k in range(1, g.n + 1)}
    if peel.position != g.n:
        mapping[peel.position] = g.n
        mapping[g.n] = peel.position
    edges = [(mapping[a], mapping[b]) for a, b in g.edges]
    return build_generating_graph(g.n, edges), mapping

