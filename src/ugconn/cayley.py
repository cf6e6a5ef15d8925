"""Materialized Cayley graphs of Sym(n) over transposition generators.

Vertices are lexicographic permutation ranks and adjacency lives in
sorted neighbor tuples, which every routine here reads at every order.
For orders up to 7! each vertex also gets a neighbor bitmask, built on
first use; only the scan kernels of ``cuts`` read it, since exhaustive
cut searches are dominated by set intersections.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

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

#: component member lists are reported only up to this size
MEMBER_LIMIT = 24


class DenseGraph:
    """Undirected graph on vertices 0..order-1 with optional bitset adjacency."""

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


class ComponentInfo(NamedTuple):
    vertices: int
    edges: int
    contains_cycle: bool
    members: tuple[int, ...] | None  # listed only for small components


class CutAnalysis(NamedTuple):
    """Component profile of a graph minus a fault set."""

    component_count: int
    components: tuple[ComponentInfo, ...]  # ordered by smallest member
    largest_index: int

    def largest(self) -> int:
        if not self.components:
            return 0
        return self.components[self.largest_index].vertices

    def residual(self) -> int:
        return sum(c.vertices for c in self.components) - self.largest()

    def cyclic_component_count(self) -> int:
        return sum(1 for c in self.components if c.contains_cycle)


def _validate_fault(order: int, fault) -> list[int]:
    fs = sorted(set(int(v) for v in fault))
    if fs and (fs[0] < 0 or fs[-1] >= order):
        raise ValueError(f"fault vertex out of range [0, {order})")
    return fs


#: (shift, mask) of the three delta swaps that transpose the 8x8 bit matrix
#: of a 64-bit word, bit 8i + b holding bit b of byte i; the mask marks the
#: bits that trade places with the bits shift above them
_TRANSPOSE_8X8 = (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
)


def _disconnected(
    neighbors, order: int, faults: list[int], apart: int = 1
) -> list[int]:
    """counts[i], i < apart: bit j set when faults[j] leaves > i survivors unreached.

    A survivor is unreached when it lies outside the component of the
    fault's start: its highest survivor that keeps a surviving neighbour,
    or its highest survivor if no surviving edge is left.  faults is a
    non-empty list of fault masks, evaluated together by
    ``_disconnected_columns`` once they are transposed into its survivor
    columns: vertex v gets one int whose bit j says that v survives fault
    j.  These ints come from one byte string of the fault masks, a
    little-endian row of ``int.to_bytes`` per fault.
    Byte column k, read down as one int, holds in each 64-bit word the 8x8
    bit matrix of 8 faults' bytes; three delta swaps over the whole int
    transpose every such matrix (``_TRANSPOSE_8X8``), after which every
    eighth byte from byte b on, complemented, is the int of vertex 8k + b.
    The falsifier and the sampled p1 probe draw their faults at random and
    come here; the exhaustive scans build the columns directly.
    """
    # one little-endian row of width bytes per fault: byte column k, read
    # down, holds vertices 8k..8k+7, byte j of it fault j
    count = len(faults)
    width = (order + 7) // 8
    repeat = itertools.repeat
    rows = b"".join(map(int.to_bytes, faults, repeat(width), repeat("little")))
    words = (count + 7) // 8
    swaps = [
        (shift, int.from_bytes(mask.to_bytes(8, "little") * words, "little"))
        for shift, mask in _TRANSPOSE_8X8
    ]
    everyone = (1 << count) - 1
    alive = []
    for k in range((order + 7) // 8):
        x = int.from_bytes(rows[k::width], "little")
        for shift, mask in swaps:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        # byte b of word w now holds bit b of faults 8w..8w+7
        spread = x.to_bytes(8 * words, "little")
        for b in range(min(8, order - 8 * k)):
            alive.append(everyone ^ int.from_bytes(spread[b::8], "little"))
    return _disconnected_columns(neighbors, alive, apart)


def _disconnected_columns(neighbors, alive: list[int], apart: int = 1) -> list[int]:
    """counts[i], i < apart: bit j set when fault set j leaves > i survivors unreached.

    Bit-sliced over a family of fault sets: bit j of alive[v] says that
    vertex v survives set j.  Each set's search starts at its highest
    survivor that keeps a surviving neighbour, or at its highest survivor
    if no surviving edge is left, and one BFS over the columns sweeps the
    vertices down, then up, in turn until nothing changes; a survivor it
    never reaches lies in another component.  A sweep carries reach along
    any path that runs in its own direction, so alternating saves a pass
    on most families, and the fixed point, each start's component, does
    not depend on the order.  The starts are seeded from the top vertex
    down, which stops once every set with a survivor has one.  apart
    saturating bit-sliced counters count the unreached survivors: bit j
    of counter i is set once more than i survivors of set j are
    unreached.  The first counter flags exactly the sets that leave a
    disconnected graph.  A start with a surviving neighbour lies in a
    component of at least 2, so a set of at least 3 survivors that leaves
    one unreached isolates that vertex beside one component of the rest.

    A caller passes as apart the least size of a component its exact test
    needs on each of two sides: two such components cannot both hold the
    start, so one of them is unreached, and no set that passes the test
    goes unflagged by the last counter.  Scans and draws go through vertex
    0 (``_anchors``), so the small pieces a set cuts off sit near 0;
    starting high puts them on the unreached side, where a larger apart
    skips them.  Callers give only the flagged sets their exact per-set
    tests.
    """
    order = len(alive)
    down = range(order - 1, -1, -1)
    reach = [0] * order
    somebody = 0
    for a in alive:
        somebody |= a
    seen = 0
    for v in down:
        if seen == somebody:
            break
        r = 0
        for u in neighbors[v]:
            r |= alive[u]
        reach[v] = r & alive[v] & ~seen
        seen |= reach[v]
    else:
        # the sets with no surviving edge start at their highest survivor
        for v in down:
            reach[v] |= alive[v] & ~seen
            seen |= alive[v]
    sweep, back = down, range(order)
    changed = True
    while changed:
        changed = False
        for v in sweep:
            r = reach[v]
            for u in neighbors[v]:
                r |= reach[u]
            r &= alive[v]
            if r != reach[v]:
                reach[v] = r
                changed = True
        sweep, back = back, sweep
    counts = [0] * apart
    carries = range(apart - 1, 0, -1)
    for a, r in zip(alive, reach):
        x = a & ~r
        for i in carries:
            counts[i] |= counts[i - 1] & x
        counts[0] |= x
    return counts


def _components(masks, alive: int) -> list[tuple[int, bool]]:
    """The components of alive by least vertex, as (mask, carries_cycle) pairs.

    One BFS per component sums the degrees in alive of the vertices it
    visits; a neighbour in alive lies in the same component.  A component
    carries a cycle when that sum is at least twice its vertex count
    (edges >= vertices).
    """
    out = []
    rem = alive
    while rem:
        reach = frontier = rem & -rem
        degrees = 0
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                m = masks[b.bit_length() - 1] & alive
                nxt |= m
                degrees += m.bit_count()
            frontier = nxt & ~reach
            reach |= frontier
        rem ^= reach
        out.append((reach, degrees >= 2 * reach.bit_count()))
    return out


def _two_cyclic_components(masks, alive: int) -> bool:
    """True iff at least two components of alive carry a cycle."""
    return sum(cyclic for _, cyclic in _components(masks, alive)) >= 2


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def component_analysis(dense: DenseGraph, fault) -> CutAnalysis:
    """Component census of ``dense`` minus ``fault``, with cycle flags.

    A connected component contains a cycle exactly when its edge count is
    at least its vertex count.
    """
    fs = _validate_fault(dense.order, fault)
    dead = bytearray(dense.order)
    for v in fs:
        dead[v] = 1
    infos = []
    # starts in increasing order yield the components by smallest member
    for start in range(dense.order):
        if dead[start]:
            continue
        stack = [start]
        dead[start] = 1
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in dense.neighbors[v]:
                if not dead[w]:
                    dead[w] = 1
                    stack.append(w)
        members.sort()
        mset = set(members)
        edges = sum(1 for v in members for w in dense.neighbors[v] if w in mset) // 2
        infos.append(
            ComponentInfo(
                vertices=len(members),
                edges=edges,
                contains_cycle=edges >= len(members),
                members=tuple(members) if len(members) <= MEMBER_LIMIT else None,
            )
        )
    largest_index = 0
    for i, c in enumerate(infos):
        if c.vertices > infos[largest_index].vertices:
            largest_index = i
    return CutAnalysis(
        component_count=len(infos),
        components=tuple(infos),
        largest_index=largest_index,
    )


def common_neighbor_count(g, u: int, v: int) -> int:
    """|N(u) ∩ N(v)| for distinct vertices."""
    dense = _as_dense(g)
    if u == v:
        raise ValueError("common neighbors of a vertex with itself are undefined")
    return len(set(dense.neighbors[u]).intersection(dense.neighbors[v]))


def girth(g) -> int | None:
    """Length of a shortest cycle, or None for a forest.

    Only the 2-core can carry a cycle.  Each anchor of the 2-core
    (``_anchors``) is a source in turn and is then deleted, peeling again:
    some shortest cycle runs through an anchor, it is still whole when the
    first of its anchors becomes the source, and that BFS finds it.
    """
    dense = _as_dense(g)
    nbrs = dense.neighbors
    alive = bytearray(b"\x01") * dense.order
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

    for v in range(dense.order):
        if alive[v] and degree[v] < 2:
            delete(v)
    best: int | None = None
    for s in _anchors(g):
        if not alive[s]:
            continue
        dist = [-1] * dense.order
        parent = [-1] * dense.order
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


def _transitive(g) -> bool:
    """True for graphs from ``build_cayley``, which are vertex-transitive."""
    return isinstance(g, CayleyGraph) and g.transitive


def _anchors(g) -> range:
    """The starts of every translation-invariant scan and draw.

    ``range(1)`` on a graph from ``build_cayley``, every vertex otherwise.
    Fixing vertex 0 is exact: the property under test is invariant under
    translation (left multiplication is an automorphism); every set, pair
    or triple has a translate with 0 in any chosen position; and 0 is the
    least vertex, so first hits and lexicographically least witnesses do
    not change.  A count over k-sets scales by order/k.
    """
    return range(1) if _transitive(g) else range(_as_dense(g).order)


class CayleyGraph:
    """Cay(Sym(n), T) with vertices indexed by lexicographic rank.

    ``transitive`` is True for graphs from ``build_cayley``, which are
    vertex-transitive, so routines may fix a source at vertex 0; modified
    copies set it False and get the full treatment of an arbitrary graph.
    """

    def __init__(
        self,
        gen: GeneratingGraph,
        perms: tuple[Perm, ...],
        index: dict[Perm, int],
        dense: DenseGraph,
        transitive: bool,
        peel: PeelChoice | None,
        block_of: tuple[int, ...] | None,
    ):
        self.gen = gen
        self.perms = perms
        self.index = index
        self.dense = dense
        self.transitive = transitive
        self.peel = peel
        self.block_of = block_of

    @property
    def n(self) -> int:
        return self.gen.n

    @property
    def order(self) -> int:
        return self.dense.order

    @property
    def size(self) -> int:
        return self.dense.size

    @property
    def degree(self) -> int:
        return len(self.gen.edges)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.dense.neighbors[u]

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
    dense = DenseGraph(rows)
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
        dense=dense,
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
    return tuple(v for v in G.neighbors(u) if G.block_of[v] != bu)


class CrossEdgeSet(NamedTuple):
    i: int
    j: int
    edges: tuple[tuple[int, int], ...]  # (u in block i, v in block j)

    def count(self) -> int:
        return len(self.edges)


def cross_edges(G: CayleyGraph, i: int, j: int) -> CrossEdgeSet:
    """All edges joining block i to block j."""
    if i == j:
        raise ValueError("cross edges need two distinct blocks")
    if G.block_of is None:
        raise GeneratingGraphError("graph was built without a block decomposition")
    if not (1 <= i <= G.n and 1 <= j <= G.n):
        raise ValueError(f"block index out of range 1..{G.n}")
    block_of = G.block_of
    found = []
    for u in range(G.order):
        if block_of[u] != i:
            continue
        for v in G.neighbors(u):
            if block_of[v] == j:
                found.append((u, v))
    return CrossEdgeSet(i=i, j=j, edges=tuple(sorted(found)))


def edge_label(G: CayleyGraph, u: int, v: int) -> tuple[int, int]:
    """Generator (k,l) carrying the edge uv, as 1-based positions."""
    pu, pv = G.perms[u], G.perms[v]
    diff = [i for i in range(G.n) if pu[i] != pv[i]]
    if len(diff) != 2 or pu[diff[0]] != pv[diff[1]] or pu[diff[1]] != pv[diff[0]]:
        raise ValueError(f"vertices {u} and {v} do not differ by one transposition")
    return (diff[0] + 1, diff[1] + 1)


def enumerate_4cycles(G: CayleyGraph) -> list[tuple[int, int, int, int]]:
    """All 4-cycles, once each, as (a, b, c, d) in cycle order.

    Canonical form: a is the smallest rank on the cycle and b < d are its
    two cycle neighbors.
    """
    neighbors = G.dense.neighbors
    out = []
    for a, ns in enumerate(neighbors):
        later = [x for x in ns if x > a]
        for bi, b in enumerate(later):
            for d in later[bi + 1 :]:
                nd = neighbors[d]
                out.extend((a, b, c, d) for c in neighbors[b] if c > a and c in nd)
    return out


def canonical_four_cycle(G: CayleyGraph) -> tuple[int, int, int, int]:
    """A fixed 4-cycle through the identity, for deterministic witnesses.

    Uses the lexicographically first pair of generators with disjoint
    supports; two such swaps commute, which closes the cycle.
    """
    gens = sorted(G.gen.edges)
    for x in range(len(gens)):
        for y in range(x + 1, len(gens)):
            (k1, l1), (k2, l2) = gens[x], gens[y]
            if {k1, l1} & {k2, l2}:
                continue
            p0 = G.perms[0]
            p1 = _swapped(p0, k1, l1)
            p2 = _swapped(p1, k2, l2)
            p3 = _swapped(p0, k2, l2)
            v1, v2, v3 = G.vertex(p1), G.vertex(p2), G.vertex(p3)
            b, d = min(v1, v3), max(v1, v3)
            return (0, b, v2, d)
    raise GeneratingGraphError("no two generators have disjoint supports")


def _swapped(p: Perm, k: int, l: int) -> Perm:
    lst = list(p)
    lst[k - 1], lst[l - 1] = lst[l - 1], lst[k - 1]
    return tuple(lst)


def _cn_row(neighbors, u: int) -> Counter:
    """cn(u, v) for every v != u with a common neighbor, all of which lie in N(N(u))."""
    row = Counter(v for w in neighbors[u] for v in neighbors[w])
    del row[u]
    return row


def find_edge_cn_violation(g) -> tuple[int, int, int] | None:
    """First (p, q, s) with pq an edge and s sharing neighbors with both.

    Returns None when for every edge pq and outside vertex s at least one
    of cn(s,p), cn(s,q) is zero.  p runs over ``_anchors``.
    """
    neighbors = _as_dense(g).neighbors
    for p in _anchors(g):
        near_p = _cn_row(neighbors, p).keys()
        for q in neighbors[p]:
            if q <= p:
                continue
            both = near_p & _cn_row(neighbors, q).keys()
            if both:
                return (p, q, min(both))
    return None


def find_cn_triple_violation(g) -> tuple[int, int, int] | None:
    """First triple (u, v, w) with cn(u,v)=2, cn(v,w)=2 and cn(u,w) >= 1.

    v is the middle vertex of both cn=2 pairs, u < w, and v is an anchor.
    """
    neighbors = _as_dense(g).neighbors
    for v in _anchors(g):
        ps = sorted(u for u, c in _cn_row(neighbors, v).items() if c == 2)
        for i, u in enumerate(ps):
            near_u = _cn_row(neighbors, u)
            for w in ps[i + 1 :]:
                if w in near_u:
                    return (u, v, w)
    return None


def max_common_neighbors(g) -> tuple[int, tuple[int, int]]:
    """Max cn over vertex pairs and the first pair attaining it, via ``_anchors``.

    Pairs run in order (u, v), u an anchor and v > u; a pair without a
    common neighbor has cn 0, and (u, u + 1) is the first of u's pairs.
    """
    dense = _as_dense(g)
    best = -1
    arg = (0, 1)
    for u in _anchors(g):
        if u + 1 == dense.order:
            continue
        row = {v: c for v, c in _cn_row(dense.neighbors, u).items() if v > u}
        c = max(row.values(), default=0)
        if c > best:
            best = c
            arg = (u, min((v for v in row if row[v] == c), default=u + 1))
    return best, arg


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
    u, v = block[0], block[1]
    u_out = out_neighbors(G, u)[0]
    v_out = out_neighbors(G, v)[0]
    neighbors = [set(ns) for ns in G.dense.neighbors]
    neighbors[u].discard(u_out)
    neighbors[u_out].discard(u)
    neighbors[u].add(v_out)
    neighbors[v_out].add(u)
    return CayleyGraph(
        gen=G.gen,
        perms=G.perms,
        index=G.index,
        dense=DenseGraph(neighbors),
        transitive=False,
        peel=G.peel,
        block_of=G.block_of,
    )


def _as_dense(g) -> DenseGraph:
    return g.dense if isinstance(g, CayleyGraph) else g


# ---------------------------------------------------------------------------
# export formats


def to_dot(G: CayleyGraph, name: str = "G") -> str:
    """DOT text with one-line permutation strings as vertex labels."""
    lines = [f"graph {name} {{"]
    for u in range(G.order):
        lines.append(f'  v{u} [label="{G.perm_str(u)}"];')
    for u in range(G.order):
        for v in G.neighbors(u):
            if u < v:
                lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_graph6(g) -> str:
    """Standard graph6 encoding; defined for order <= 62 only."""
    dense = _as_dense(g)
    nv = dense.order
    if nv > 62:
        raise CapacityError(f"graph6 supports order <= 62, got {nv}")
    bits = []
    for j in range(1, nv):
        row = dense.neighbors[j]
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
        for v in G.neighbors(u):
            if u < v:
                lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
