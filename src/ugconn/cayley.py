"""Materialized Cayley graphs of Sym(n) over transposition generators.

Vertices are lexicographic permutation ranks and adjacency lives in
sorted neighbor tuples, which every routine here reads at every order.
For orders up to 7! each vertex also gets a neighbor bitmask, built on
first use; only the scan kernels of ``cuts`` read it, since exhaustive
cut searches are dominated by set intersections.  Those kernels and the
scans that only the checks read live beside their callers in ``cuts``
and ``lemmas``: every process loads this module, and without bytecode
files compiles it.
"""

from __future__ import annotations

import functools
import itertools

from .genset import (
    PEELABLE,
    GeneratingGraph,
    GeneratingGraphError,
    PeelChoice,
    automorphisms,
    choose_peel,
)
from .perms import CapacityError, MAX_ARITY, Perm, perm_string

#: neighbor bitmasks are materialized lazily up to this order (7! = 5040);
#: an 8!-vertex mask table would cost ~200 MB, so n = 8 walks the table
MASK_ORDER_LIMIT = 5040


class DenseGraph:
    """Undirected graph on vertices 0..order-1 with optional bitset adjacency.

    ``transitive`` marks a vertex-transitive graph, on which routines may
    fix a source at vertex 0 (``_anchors``); only ``build_cayley`` sets it.
    """

    transitive = False

    def __init__(self, neighbors):
        self.neighbors: list[tuple[int, ...]] = [tuple(sorted(ns)) for ns in neighbors]
        self.order = len(self.neighbors)
        self.size = sum(len(ns) for ns in self.neighbors) // 2
        self._masks: list[int] | None = None

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @property
    def masks(self) -> list[int]:
        """Per-vertex neighbor bitmask; built on first use."""
        if self._masks is None:
            if self.order > MASK_ORDER_LIMIT:
                raise CapacityError(
                    f"bitmasks unavailable beyond order {MASK_ORDER_LIMIT}"
                )
            out = []
            for ns in self.neighbors:
                m = 0
                for v in ns:
                    m |= 1 << v
                out.append(m)
            self._masks = out
        return self._masks

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]


def girth(g) -> int | None:
    """Length of a shortest cycle, or None for a forest.

    Only the 2-core can carry a cycle.  Each anchor of the 2-core
    (``_anchors``) is a source in turn and is then deleted, peeling again:
    some shortest cycle runs through an anchor, it is still whole when the
    first of its anchors becomes the source, and that BFS finds it.
    """
    nbrs = g.neighbors
    alive = bytearray(b"\x01") * g.order
    degree = [len(ns) for ns in nbrs]

    def delete(v: int) -> None:
        # v goes, and so does every vertex left with fewer than two neighbors
        alive[v] = 0
        stack = [v]
        while stack:
            for w in nbrs[stack.pop()]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] < 2:
                        alive[w] = 0
                        stack.append(w)

    for v in range(g.order):
        if alive[v] and degree[v] < 2:
            delete(v)
    best: int | None = None
    for s in _anchors(g):
        if not alive[s]:
            continue
        dist = [-1] * g.order
        parent = [-1] * g.order
        dist[s] = 0
        queue = [s]
        while queue:
            nxt = []
            for v in queue:
                dv = dist[v]
                if best is not None and 2 * dv >= best:
                    continue
                for w in nbrs[v]:
                    if not alive[w]:
                        continue
                    if dist[w] < 0:
                        dist[w] = dv + 1
                        parent[w] = v
                        nxt.append(w)
                    elif w != parent[v] and v < w:
                        # non-tree edge closes a walk through s
                        cand = dv + dist[w] + 1
                        if best is None or cand < best:
                            best = cand
            queue = nxt
        delete(s)
    return best


def _anchors(g) -> range:
    """The starts of every translation-invariant scan and draw.

    ``range(1)`` on a graph from ``build_cayley``, every vertex otherwise.
    Fixing vertex 0 is exact: the property under test is invariant under
    translation (left multiplication is an automorphism); every set, pair
    or triple has a translate with 0 in any chosen position; and 0 is the
    least vertex, so first hits and lexicographically least witnesses do
    not change.  A count over k-sets scales by order/k.
    """
    return range(1) if g.transitive else range(g.order)


class CayleyGraph(DenseGraph):
    """Cay(Sym(n), T) with vertices indexed by lexicographic rank.

    ``transitive`` is True for graphs from ``build_cayley``; modified
    copies set it False and get the full treatment of an arbitrary graph.
    """

    def __init__(
        self,
        gen: GeneratingGraph,
        perms: tuple[Perm, ...],
        index: dict[Perm, int],
        neighbors,
        transitive: bool,
        peel: PeelChoice | None,
        block_of: tuple[int, ...] | None,
    ):
        super().__init__(neighbors)
        self.gen = gen
        self.perms = perms
        self.index = index
        self.transitive = transitive
        self.peel = peel
        self.block_of = block_of

    @property
    def n(self) -> int:
        return self.gen.n

    @property
    def degree(self) -> int:
        return len(self.gen.edges)

    @functools.cached_property
    def dense(self) -> DenseGraph:
        """This graph without its symmetry: a bare ``DenseGraph``.

        It shares the neighbor tuples, so it costs no copy, but keeps its
        own mask cache; every routine treats it as an arbitrary graph.
        """
        bare = object.__new__(DenseGraph)
        bare.neighbors, bare.order, bare.size = self.neighbors, self.order, self.size
        bare._masks = None
        return bare

    def perm_str(self, u: int) -> str:
        return perm_string(self.perms[u])

    def vertex(self, p: Perm) -> int:
        return self.index[tuple(p)]

    def block_members(self, i: int) -> tuple[int, ...]:
        if self.block_of is None:
            raise GeneratingGraphError("graph was built without a block decomposition")
        if not 1 <= i <= self.n:
            raise ValueError(f"block index {i} out of range 1..{self.n}")
        return tuple(u for u in range(self.order) if self.block_of[u] == i)


def build_cayley(g: GeneratingGraph) -> CayleyGraph:
    """Materialize the Cayley graph of Sym(n) generated by g's edges."""
    n = g.n
    if n > MAX_ARITY:
        raise CapacityError(f"n={n} exceeds the materialization cap {MAX_ARITY}")
    perms = tuple(itertools.permutations(range(1, n + 1)))
    index = {p: r for r, p in enumerate(perms)}
    gens = [(k - 1, l - 1) for k, l in g.edges]
    rows = []
    for p in perms:
        row = []
        lst = list(p)
        for k, l in gens:
            lst[k], lst[l] = lst[l], lst[k]
            row.append(index[tuple(lst)])
            lst[k], lst[l] = lst[l], lst[k]
        rows.append(row)
    peel: PeelChoice | None = None
    block_of: tuple[int, ...] | None = None
    if g.cls in PEELABLE:
        peel = choose_peel(g)
        pos = peel.position - 1
        block_of = tuple(p[pos] for p in perms)
    return CayleyGraph(
        gen=g,
        perms=perms,
        index=index,
        neighbors=rows,
        transitive=True,
        peel=peel,
        block_of=block_of,
    )


def conjugation_maps(G: CayleyGraph, vertices=None) -> tuple[tuple[int, ...], ...]:
    """Vertex maps p -> sigma^-1 p sigma, one per automorphism sigma of T.

    Each map is an automorphism of G that fixes vertex 0: the neighbor
    p (k l) goes to sigma^-1 p sigma (s(k) s(l)) with s = sigma^-1, and s
    maps the edge k-l of T onto an edge of T.  The identity comes first.
    Map i lists the images of vertices in their order, every vertex by
    default.  Built on demand, never by ``build_cayley``.
    """
    perms = G.perms if vertices is None else [G.perms[v] for v in vertices]
    out = []
    for sigma in automorphisms(G.gen):
        s = _inverse(sigma)
        out.append(
            tuple(G.index[tuple(s[p[x - 1] - 1] for x in sigma)] for p in perms)
        )
    return tuple(out)


def inverse_map(G: CayleyGraph, vertices=None) -> tuple[int, ...]:
    """Vertex map p -> p^-1, on vertices in their order (every vertex by default).

    Not an automorphism, but translating by w^-1 maps the pair (0, w) onto
    the pair (w^-1, 0), so both pairs have the same separations.
    """
    perms = G.perms if vertices is None else [G.perms[v] for v in vertices]
    return tuple(G.index[_inverse(p)] for p in perms)


def _inverse(p: Perm) -> Perm:
    q = [0] * len(p)
    for i, x in enumerate(p):
        q[x - 1] = i + 1
    return tuple(q)


def out_neighbors(G: CayleyGraph, u: int) -> tuple[int, ...]:
    """Neighbors of u outside u's own block, in rank order."""
    if G.block_of is None:
        raise GeneratingGraphError("graph was built without a block decomposition")
    bu = G.block_of[u]
    return tuple(v for v in G.neighbors[u] if G.block_of[v] != bu)


def with_redirected_cross_edge(G: CayleyGraph) -> CayleyGraph:
    """Deterministically corrupted copy: one cross edge redirected.

    The two lowest-rank vertices of vertex 0's block end up sharing an
    out-neighbor, which a correct graph never allows.  Degree uniformity is
    deliberately broken; the copy exists so negative-control tests and the
    CLI can demonstrate that failing graphs actually fail.
    """
    if G.block_of is None:
        raise GeneratingGraphError("corruption needs a block decomposition")
    b0 = G.block_of[0]
    block = [u for u in range(G.order) if G.block_of[u] == b0]
    if len(block) < 2:
        raise GeneratingGraphError("corruption needs two vertices in vertex 0's block")
    u, v = block[0], block[1]
    u_out = out_neighbors(G, u)[0]
    v_out = out_neighbors(G, v)[0]
    neighbors = [set(ns) for ns in G.neighbors]
    neighbors[u].discard(u_out)
    neighbors[u_out].discard(u)
    neighbors[u].add(v_out)
    neighbors[v_out].add(u)
    return CayleyGraph(
        gen=G.gen,
        perms=G.perms,
        index=G.index,
        neighbors=neighbors,
        transitive=False,
        peel=G.peel,
        block_of=G.block_of,
    )


# ---------------------------------------------------------------------------
# export formats


def to_dot(G: CayleyGraph, name: str = "G") -> str:
    """DOT text with one-line permutation strings as vertex labels."""
    lines = [f"graph {name} {{"]
    for u in range(G.order):
        lines.append(f'  v{u} [label="{G.perm_str(u)}"];')
    for u in range(G.order):
        for v in G.neighbors[u]:
            if u < v:
                lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_graph6(g) -> str:
    """Standard graph6 encoding; defined for order <= 62 only."""
    nv = g.order
    if nv > 62:
        raise CapacityError(f"graph6 supports order <= 62, got {nv}")
    bits = []
    for j in range(1, nv):
        row = g.neighbors[j]
        for i in range(j):
            bits.append(1 if i in row else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + nv)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)


def to_edgelist(G: CayleyGraph) -> str:
    """Sparse edge list: a header line, then one "u v" line per edge."""
    lines = [f"n={G.n} order={G.order} degree={G.degree}"]
    for u in range(G.order):
        for v in G.neighbors[u]:
            if u < v:
                lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
