"""Vertex connectivity and edge separation by vertex-disjoint paths (Menger).

Imports only ``cayley`` and ``perms``, so a command that needs kappa loads
neither the subset scans of ``cuts`` nor the checks of ``lemmas``.
"""

from __future__ import annotations

from typing import NamedTuple

from .cayley import DenseGraph, conjugation_maps, inverse_map
from .perms import CapacityError

#: without the vertex-0 symmetry the flows follow ``_even_plan``, about
#: (kappa+1)*order flows: 35,210 flows and 386 s for kappa on a corrupted
#: mb:7 (one process, 2-CPU host), so it refuses orders above 7!
FLOW_ORDER_LIMIT = 5040


class ConnectivityResult(NamedTuple):
    value: int
    complete: bool  # complete graphs get the |V|-1 convention
    cut: tuple[int, ...] | None  # a minimum vertex cut, when one exists
    flows: int


def _unit_flow(into, first, second, cutoff):
    """Vertex-disjoint paths from unit first to unit second, stopping at cutoff.

    Every vertex outside the two units has capacity one.  Each vertex v
    has an in-state 2v and an out-state 2v+1; ``into[v]`` lists the
    in-states of v's neighbors.  The flow is kept as one state per vertex,
    ``exit_of[v]``: the out-state that feeds v if v carries a path, else
    v's own out-state 2v+1.  Residual moves:

    - an out-state reaches the in-state of every neighbor, and its own
      in-state if the vertex carries a path;
    - an in-state reaches only ``exit_of`` of its vertex.

    The out-states of the first unit are the source.  A search stops at
    the first out-state next to the second unit, whose in-states are the
    sink.  Returns (flow, cut).  The cut is None when the flow reached
    cutoff; otherwise the last search failed, and the vertices whose
    in-state it reached but whose out-state it did not form a minimum cut.
    That set is the same for every maximum flow.
    """
    order = len(into)
    base = [-1] * (2 * order)  # label: the state a search reached this one from
    for a in first:
        base[2 * a] = base[2 * a + 1] = -2  # source: never relabeled
    near = bytearray(2 * order)
    for t in second:
        base[2 * t] = -2
        for w in into[t]:
            near[w + 1] = 1
    exit_of = [2 * v + 1 for v in range(order)]  # the one move of each in-state
    starts = [2 * a + 1 for a in first]
    flow = 0
    while flow < cutoff:
        label = base[:]
        queue = starts[:]
        hit = -1
        for st in queue:
            if st & 1:
                for w in into[st >> 1]:
                    if label[w] == -1:
                        label[w] = st
                        queue.append(w)
                if exit_of[st >> 1] != st and label[st - 1] == -1:
                    label[st - 1] = st
                    queue.append(st - 1)
            else:
                u = exit_of[st >> 1]
                if label[u] == -1:
                    label[u] = st
                    if near[u]:
                        hit = u
                        break
                    queue.append(u)
        if hit < 0:
            return flow, tuple(
                v
                for v in range(order)
                if label[2 * v] >= 0 and label[2 * v + 1] == -1
            )
        st = hit
        while st >= 0:
            prev = label[st]
            if not st & 1:  # prev now feeds v, or is 2v+1 where the path frees v
                exit_of[st >> 1] = prev
            st = prev
        flow += 1
    return flow, None


class EdgeSeparation(NamedTuple):
    """A minimum separation of two units (edges, or single vertices for kappa)."""

    value: int | None  # None when no two units can be separated
    edges: tuple[tuple[int, ...], tuple[int, ...]] | None  # a pair attaining it
    cut: tuple[int, ...] | None  # a minimum cut separating that pair
    flows: int


def _least_images(g, vertices) -> dict[int, int]:
    """{w: the least vertex of w's orbit under the conjugations and w -> w^-1}.

    The two maps commute, so the orbit of w is the conjugation images of w
    and of w^-1.  Only vertices and their inverses are mapped, so the
    tables grow with |Aut(T)| times their number, not times the order.
    """
    vertices = list(vertices)
    partner = dict(zip(vertices, inverse_map(g, vertices)))
    mapped = list(set(vertices).union(partner.values()))
    least = dict(zip(mapped, map(min, zip(*conjugation_maps(g, mapped)))))
    return {w: min(least[w], least[partner[w]]) for w in vertices}


def _ring(dense: DenseGraph) -> set[int]:
    """R = N(N(0)) - N[0], the vertices at distance exactly 2 from vertex 0.

    Ring rule, for vertex and edge units on a graph from ``build_cayley``
    (Watkins, "Connectivity of transitive graphs", JCT 1970): some pair
    that attains the least separation has a first unit through 0 and a
    second unit through R.  Let a minimum cut S separate units U and W,
    in components C1 and C2 of G - S.  S - s is too small to separate any
    two units, so every s in S has a neighbor a in C1 and a neighbor b in
    C2.  Each component is connected and holds a unit, so a lies on a unit
    inside C1 and b on a unit inside C2, and S separates those two units.
    Translating a to 0 maps them onto a pair whose first unit contains 0
    and whose second unit contains the image of b, at distance 2 from 0.
    Conjugations and w -> w^-1 keep the distance from 0, so R is a union
    of their orbits.  The rule needs two conditions: every vertex of a
    component that holds a unit lies on a unit inside that component (true
    of vertices and of edges, not of 4-cycles for free), and G is
    connected (``genset`` rejects a disconnected T).
    """
    near = {0, *dense.neighbors[0]}
    return {w for v in near for w in dense.neighbors[v]} - near


def _even_plan(dense: DenseGraph, units):
    """(plan, family size) for a graph without the vertex-0 symmetry.

    A greedy family of pairwise disjoint units comes first, then the rest,
    and each unit is planned against every unit after it; the driver stops
    once more family units than the best value are done (Even 1975).  A
    minimum cut S misses one of any |S|+1 disjoint units; let U be the
    first it misses.  S separates two units, and one of them, W, lies in
    another component than U.  Every family unit before U meets S and W
    does not, so W comes after U and the pair (U, W) is flowed.  Raises
    CapacityError above order FLOW_ORDER_LIMIT.
    """
    if dense.order > FLOW_ORDER_LIMIT:
        raise CapacityError(
            f"separation flows without vertex-transitivity capped at order "
            f"{FLOW_ORDER_LIMIT}"
        )
    covered: set[int] = set()
    family, rest = [], []
    for u in units:
        if covered.isdisjoint(u):
            covered.update(u)
            family.append(u)
        else:
            rest.append(u)
    ordered = family + rest
    return ((u, ordered[i + 1 :]) for i, u in enumerate(ordered)), len(family)


def _min_separation(dense: DenseGraph, plan, family: int = 0) -> EdgeSeparation:
    """The least separation over a plan of (first unit, second units) pairs.

    A unit is a vertex tuple that a cut must leave whole.  Two units can be
    separated only if neither has a vertex in the other's closed
    neighborhood, and then, by Menger, the fewest vertices separating them
    is the number of vertex-disjoint paths between them (``_unit_flow``).
    The pairs are flowed in plan order, each stopped at the best value so
    far, and a flow that stops below it ran to completion, so its cut
    comes with it: the pair and cut are those of the first planned pair
    that attains the value.  With a family (``_even_plan``), the loop stops
    before first unit i once i and family both exceed the best value.
    Each caller proves that its plan holds a pair of least separation.
    """
    into = [tuple(2 * w for w in ns) for ns in dense.neighbors]
    best = dense.order  # every flow path crosses a vertex outside both units
    arg = None
    cut = None
    flows = 0
    for i, (first, seconds) in enumerate(plan):
        if min(i, family) > best:
            break
        closed = set(first)
        for v in first:
            closed.update(dense.neighbors[v])
        for second in seconds:
            if not closed.isdisjoint(second):
                continue
            f, found = _unit_flow(into, first, second, best)
            flows += 1
            if f < best:
                best, arg, cut = f, (first, second), found
    return EdgeSeparation(
        value=best if arg is not None else None, edges=arg, cut=cut, flows=flows
    )


def vertex_connectivity_detail(g) -> ConnectivityResult:
    """kappa(G) by Menger: the fewest vertices separating two non-adjacent ones.

    A complete graph has no such pair and gets the |V|-1 convention.  On
    a graph from ``build_cayley`` the plan is vertex 0 against each ring
    vertex (``_ring``) that is least in its orbit under the conjugations
    and w -> w^-1 (``_least_images``).  Conjugation by an automorphism of
    T fixes 0 and maps T to itself, so it is an automorphism of the graph
    (``conjugation_maps``), and translating by w^-1 maps the pair (0, w)
    onto (w^-1, 0): the separation of (0, w) is constant on orbits.  A
    ring vertex that is not least has its orbit's least vertex flowed
    before it, so flowing it could not improve the best value, and the
    plan gives the value, pair and cut of flowing the whole ring.  On any
    other graph it is the Even plan (``_even_plan``).
    """
    order = g.order
    if all(len(g.neighbors[v]) == order - 1 for v in range(order)):
        return ConnectivityResult(
            value=max(order - 1, 0), complete=True, cut=None, flows=0
        )
    if g.transitive:
        least = _least_images(g, _ring(g))
        ring = [(w,) for w in sorted(least) if least[w] == w]
        sep = _min_separation(g, [((0,), ring)])
    else:
        sep = _min_separation(g, *_even_plan(g, [(v,) for v in range(order)]))
    return ConnectivityResult(
        value=sep.value, complete=False, cut=sep.cut, flows=sep.flows
    )


def vertex_connectivity(g) -> int:
    return vertex_connectivity_detail(g).value


def edge_separation_connectivity(g) -> EdgeSeparation:
    """kappa_1(G): the fewest vertices whose removal separates two edges.

    Separated edges keep both ends and land in different components; this
    is the restricted connectivity of Esfahanian and Hakimi ("On computing
    a conditional edge-connectivity of a graph", IPL 1988).  On a graph
    from ``build_cayley`` the plan is each first edge (0, s) with s least
    in its conjugation orbit against every edge through the ring
    (``_ring``).  s is a transposition, its own inverse, so its least image
    under ``_least_images`` is its least conjugation image m(s).  A first
    edge (0, s) that is not least is skipped: a conjugation m maps each of
    its pairs onto ((0, m(s)), m(B)), flowed earlier with the same value,
    so the plan gives the value, pair and cut of flowing every first edge.
    On any other graph it is the Even plan (``_even_plan``).
    """
    edges = [(u, v) for u in range(g.order) for v in g.neighbors[u] if u < v]
    if not g.transitive:
        return _min_separation(g, *_even_plan(g, edges))
    ring = _ring(g)
    seconds = [e for e in edges if not ring.isdisjoint(e)]
    least = _least_images(g, g.neighbors[0])
    return _min_separation(
        g, [((0, s), seconds) for s in g.neighbors[0] if least[s] == s]
    )
