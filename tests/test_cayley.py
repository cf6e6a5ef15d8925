"""Cayley graph construction, block structure, censuses, exports.

networkx is used here as an independent oracle for adjacency-level
facts (girth, 4-cycle counts, graph6); the package itself never
imports it.
"""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import pytest

from conftest import hypercube, path_graph, reach
import ugconn.cuts as cuts
from ugconn.cayley import (
    MASK_ORDER_LIMIT,
    CapacityError,
    CayleyGraph,
    DenseGraph,
    _anchors,
    conjugation_maps,
    girth,
    inverse_map,
    out_neighbors,
    to_dot,
    to_edgelist,
    to_graph6,
    with_redirected_cross_edge,
)
from ugconn.genset import GeneratingGraphError
from ugconn.perms import apply_swap, parse_perm_string, rank_perm
from ugconn import build_cayley, build_generating_graph
from ugconn.cuts import (
    MEMBER_LIMIT,
    TRIAL_BLOCK,
    build_cycle_neighborhood_cut,
    component_analysis,
    enumerate_4cycles,
)
from ugconn.lemmas import (
    canonical_four_cycle,
    common_neighbor_count,
    cross_edges,
    edge_label,
    find_cn_triple_violation,
    find_edge_cn_violation,
    max_common_neighbors,
)


def _nx_of(g) -> nx.Graph:
    dense = g.dense if hasattr(g, "dense") else g
    H = nx.Graph()
    H.add_nodes_from(range(dense.order))
    for u in range(dense.order):
        for v in dense.neighbors[u]:
            if u < v:
                H.add_edge(u, v)
    return H


def _girth_oracle(H: nx.Graph) -> int | None:
    best = math.inf
    for u, v in list(H.edges):
        H.remove_edge(u, v)
        try:
            best = min(best, nx.shortest_path_length(H, u, v) + 1)
        except nx.NetworkXNoPath:
            pass
        H.add_edge(u, v)
    return None if best is math.inf else best


def _four_cycle_oracle(H: nx.Graph) -> int:
    total = 0
    nodes = sorted(H)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            c = sum(1 for _ in nx.common_neighbors(H, u, v))
            total += c * (c - 1) // 2
    return total // 2


def test_basic_counts(mb4, ug5, b4, star4):
    assert (mb4.order, mb4.size, mb4.degree) == (24, 48, 4)
    assert (ug5.order, ug5.size, ug5.degree) == (120, 300, 5)
    assert (b4.order, b4.size, b4.degree) == (24, 36, 3)
    assert (star4.order, star4.size, star4.degree) == (24, 36, 3)


def test_a_cayley_graph_is_a_dense_graph_and_dense_is_its_bare_view(mb4):
    assert isinstance(mb4, DenseGraph) and mb4.transitive
    bare = mb4.dense
    assert isinstance(bare, DenseGraph) and not isinstance(bare, CayleyGraph)
    assert bare is mb4.dense and not bare.transitive
    assert bare.neighbors is mb4.neighbors
    assert (bare.order, bare.size) == (mb4.order, mb4.size)
    assert _anchors(mb4) == range(1)
    assert _anchors(bare) == range(mb4.order)


def test_vertices_are_rank_ordered(mb4):
    assert mb4.perms[0] == (1, 2, 3, 4)
    for v in (0, 1, 7, 23):
        assert rank_perm(mb4.perms[v]) == v
    assert mb4.vertex((2, 1, 4, 3)) == rank_perm((2, 1, 4, 3))
    assert mb4.perm_str(mb4.vertex(parse_perm_string("4321"))) == "4321"


def test_adjacency_matches_generator_action(mb4, ug5):
    for G in (mb4, ug5):
        for u in range(0, G.order, 7):
            expected = sorted(
                G.vertex(apply_swap(G.perms[u], k, l)) for k, l in G.gen.edges
            )
            assert list(G.neighbors[u]) == expected


def test_bipartite_by_parity(mb4):
    # every generator is a transposition, so edges flip parity
    from ugconn.perms import parity

    for u in range(mb4.order):
        for v in mb4.neighbors[u]:
            assert parity(mb4.perms[u]) != parity(mb4.perms[v])


def test_block_decomposition(mb4, ug5):
    for G in (mb4, ug5):
        pos = G.peel.position
        assert pos == G.n
        for i in range(1, G.n + 1):
            members = G.block_members(i)
            assert len(members) == math.factorial(G.n - 1)
            assert all(G.perms[v][pos - 1] == i for v in members)
            assert all(G.block_of[v] == i for v in members)
    for i in (0, mb4.n + 1):
        with pytest.raises(ValueError, match="out of range"):
            mb4.block_members(i)


def test_mb4_blocks_are_six_cycles(mb4):
    for i in range(1, 5):
        members = set(mb4.block_members(i))
        for v in members:
            inside = [w for w in mb4.neighbors[v] if w in members]
            assert len(inside) == 2


def test_out_neighbors_counts_and_examples(mb4, ug5):
    for v in range(mb4.order):
        outs = out_neighbors(mb4, v)
        assert len(outs) == 2
        assert all(mb4.block_of[w] != mb4.block_of[v] for w in outs)
    for v in range(0, ug5.order, 11):
        assert len(out_neighbors(ug5, v)) == 1
    assert {mb4.perm_str(v) for v in out_neighbors(mb4, 0)} == {"1243", "4231"}
    assert {ug5.perm_str(v) for v in out_neighbors(ug5, 0)} == {"12354"}


def test_graphs_without_blocks_refuse_block_operations(mb3):
    assert mb3.peel is None
    with pytest.raises(GeneratingGraphError):
        mb3.block_members(1)
    with pytest.raises(GeneratingGraphError):
        out_neighbors(mb3, 0)


def test_cross_edge_counts(mb4, mb5, ug5):
    for G, expected in ((mb4, 4), (mb5, 12), (ug5, 6)):
        for i in range(1, G.n + 1):
            for j in range(i + 1, G.n + 1):
                ce = cross_edges(G, i, j)
                assert len(ce.edges) == expected
                for u, v in ce.edges:
                    assert G.block_of[u] == i and G.block_of[v] == j
                    assert G.dense.adjacent(u, v)


def test_cross_edges_argument_errors(mb3, mb4):
    with pytest.raises(ValueError, match="two distinct blocks"):
        cross_edges(mb4, 2, 2)
    with pytest.raises(GeneratingGraphError, match="block decomposition"):
        cross_edges(mb3, 1, 2)
    for i, j in ((0, 1), (1, mb4.n + 1)):
        with pytest.raises(ValueError, match="out of range"):
            cross_edges(mb4, i, j)


def test_edge_label_identifies_the_generator(mb4):
    u = 0
    for v in mb4.neighbors[u]:
        k, l = edge_label(mb4, u, v)
        assert (k, l) in mb4.gen.edges
        assert apply_swap(mb4.perms[u], k, l) == mb4.perms[v]
    with pytest.raises(ValueError):
        edge_label(mb4, 0, 23)  # 4321 is not adjacent to 1234


def test_common_neighbor_count_example(mb4):
    u = mb4.vertex((1, 2, 3, 4))
    v = mb4.vertex((2, 1, 4, 3))
    assert common_neighbor_count(mb4.dense, u, v) == 2
    value, pair = max_common_neighbors(mb4.dense)
    assert value == 2
    assert common_neighbor_count(mb4.dense, *pair) == 2
    with pytest.raises(ValueError, match="itself"):
        common_neighbor_count(mb4.dense, u, u)


def test_four_cycle_census_against_oracle(mb4, mb5, ug5):
    for G, expected in ((mb4, 12), (mb5, 150), (ug5, 120)):
        cycles = enumerate_4cycles(G)
        assert len(cycles) == expected
        assert len(set(cycles)) == expected
        assert _four_cycle_oracle(_nx_of(G)) == expected
        for a, b, c, d in cycles[:20]:
            assert G.dense.adjacent(a, b) and G.dense.adjacent(b, c)
            assert G.dense.adjacent(c, d) and G.dense.adjacent(d, a)
            assert a == min((a, b, c, d))
            assert b < d


def test_canonical_four_cycle_runs_through_identity(mb4, ug5):
    for G in (mb4, ug5):
        cyc = canonical_four_cycle(G)
        assert cyc[0] == 0
        labels = []
        for idx in range(4):
            u, v = cyc[idx], cyc[(idx + 1) % 4]
            assert G.dense.adjacent(u, v)
            labels.append(edge_label(G, u, v))
        # opposite edges carry the same generator, adjacent ones disjoint
        assert labels[0] == labels[2] and labels[1] == labels[3]
        assert not set(labels[0]) & set(labels[1])
    assert {mb4.perm_str(v) for v in canonical_four_cycle(mb4)} == {
        "1234",
        "1243",
        "2143",
        "2134",
    }


def test_canonical_four_cycle_needs_disjoint_generators(star4):
    # every generator of a star moves position 1
    with pytest.raises(GeneratingGraphError, match="disjoint supports"):
        canonical_four_cycle(star4)


def test_girth_matches_oracle(mb4, ug5, b3, b4, star4):
    for G, expected in ((mb4, 4), (ug5, 4), (b3, 6), (b4, 4), (star4, 6)):
        assert girth(G) == expected
        assert _girth_oracle(_nx_of(G)) == expected


def test_girth_off_vertex_transitive_graphs(mb4):
    # a pendant vertex 0 on the triangle 1-2-3: no cycle passes through 0
    pendant = DenseGraph(((1,), (0, 2, 3), (1, 3), (1, 2)))
    assert girth(pendant) == _girth_oracle(_nx_of(pendant)) == 3
    bad = with_redirected_cross_edge(mb4)
    assert not bad.transitive
    assert girth(bad) == _girth_oracle(_nx_of(bad))


def test_girth_of_a_forest_is_none():
    k2 = build_cayley(build_generating_graph(2, [(1, 2)]))
    assert girth(k2) is None


def test_component_analysis_whole_graph(mb4):
    an = component_analysis(mb4.dense, ())
    assert an.component_count == 1
    assert an.largest() == 24 and an.residual() == 0
    assert an.cyclic_component_count() == 1
    assert an.components[0].members == tuple(range(24))


def test_component_analysis_after_cycle_neighborhood_cut(mb4, ug5):
    cut4 = build_cycle_neighborhood_cut(mb4, canonical_four_cycle(mb4))
    an = component_analysis(mb4.dense, cut4)
    assert an.component_count == 4
    assert [c.vertices for c in an.components] == [4, 4, 4, 4]
    assert all(c.contains_cycle for c in an.components)
    assert (an.largest(), an.residual()) == (4, 12)
    assert an.cyclic_component_count() == 4

    cut5 = build_cycle_neighborhood_cut(ug5, canonical_four_cycle(ug5))
    an5 = component_analysis(ug5.dense, cut5)
    assert (an5.largest(), an5.residual()) == (104, 4)
    big = an5.components[an5.largest_index]
    assert big.members is None  # withheld above MEMBER_LIMIT
    assert MEMBER_LIMIT == 24
    small = [c for c in an5.components if c.vertices == 4]
    assert small and all(c.members is not None and c.contains_cycle for c in small)


def test_component_analysis_isolating_cut(mb4):
    fault = tuple(mb4.neighbors[5])
    an = component_analysis(mb4.dense, fault)
    assert an.component_count == 2
    assert an.residual() == 1
    assert (5,) in [c.members for c in an.components]


def test_component_analysis_and_girth_beyond_mask_limit():
    order = MASK_ORDER_LIMIT + 100
    nbrs = tuple(
        tuple(w for w in (v - 1, v + 1) if 0 <= w < order) for v in range(order)
    )
    big = DenseGraph(nbrs)
    with pytest.raises(CapacityError):
        big.masks
    assert girth(big) is None  # both walk the neighbor lists
    an = component_analysis(big, (order // 2,))
    assert an.component_count == 2
    assert an.largest() > MEMBER_LIMIT
    assert an.components[an.largest_index].members is None
    ring = DenseGraph(
        tuple(
            tuple(sorted(((v - 1) % order, (v + 1) % order))) for v in range(order)
        )
    )
    assert girth(ring) == order


def _unreached_by_reach(dense: DenseGraph, faults) -> list[int]:
    """The reference for ``_disconnected``: one plain BFS per fault.

    Entry j counts the survivors of faults[j] outside the component of
    its start: its highest survivor that keeps a surviving neighbour, or
    its highest survivor if no surviving edge is left.
    ``_disconnected(..., apart)`` sets bit j of its counter i < apart
    exactly when the count is at least i + 1.
    """
    out = []
    for fmask in faults:
        alive = dense.full_mask ^ fmask
        paired = (
            v
            for v in range(dense.order - 1, -1, -1)
            if alive >> v & 1 and dense.masks[v] & alive
        )
        start = next(paired, None)
        top = 1 << alive.bit_length() >> 1 if start is None else 1 << start
        out.append((alive & ~reach(dense.masks, alive, top)).bit_count())
    return out


def _at_least(counts: list[int], apart: int) -> int:
    return sum(1 << j for j, count in enumerate(counts) if count >= apart)


def _scattered(dense: DenseGraph, rng: random.Random) -> int:
    """A fault that leaves a random maximal independent set: no surviving edge."""
    free, kept = dense.full_mask, 0
    for v in rng.sample(range(dense.order), dense.order):
        if free >> v & 1:
            kept |= 1 << v
            free &= ~dense.masks[v]
    return dense.full_mask ^ kept


@pytest.mark.parametrize(
    "graph",
    [
        "mb4",
        "ug5",
        "gnp split",
        "gnp isolated 0",
        "gnp isolated top",
        # orders at and around a byte edge of the kernel's fault rows
        "ring 7",
        "ring 8",
        "ring 9",
        "ring 16",
        "ring 17",
        # rows packed as 64-bit words up to order 64, byte strings above
        "ring 64",
        "ring 65",
        "ug6",  # order 720, 90 bytes per fault
    ],
)
def test_disconnected_agrees_with_one_reach_per_fault(request, graph):
    if graph.startswith("ring "):
        order = int(graph.removeprefix("ring "))
        dense = DenseGraph(
            tuple(tuple(sorted({(v - 1) % order, (v + 1) % order})) for v in range(order))
        )
    elif graph.startswith("gnp"):
        seed = 0
        while True:
            H = nx.gnp_random_graph(30, 0.1 if graph == "gnp split" else 0.2, seed=seed)
            if graph.startswith("gnp isolated"):
                # one end alone, the rest in one piece
                lone = 0 if graph == "gnp isolated 0" else 29
                H.remove_edges_from(list(H.edges(lone)))
                if nx.is_connected(H.subgraph(set(H) - {lone})):
                    break
            elif nx.number_connected_components(H) >= 2 and H.degree(0):
                break
            seed += 1
        dense = DenseGraph(tuple(tuple(sorted(H[v])) for v in range(30)))
    else:
        dense = request.getfixturevalue(graph).dense
    order, full = dense.order, dense.full_mask
    # the empty fault, faults that leave one vertex, and one that leaves none;
    # the empty fault cuts exactly the disconnected graphs
    edge = [0, full ^ 1, full ^ 1 << (order - 1), full]
    split = graph.startswith("gnp")
    assert cuts._disconnected(dense.neighbors, order, edge) == [split]
    rng = random.Random(graph)
    # fault counts inside, across and at a whole number of 8-fault words
    for width in (1, 5, 13, TRIAL_BLOCK):
        for family in ("random", "scattered", "deep"):
            faults = [
                sum(1 << v for v in rng.sample(range(order), rng.randrange(order // 2)))
                for _ in range(width)
            ]
            if family == "deep":
                # every fault holds the top vertex and more of the top, so
                # the starts are seeded far down
                faults = [
                    fmask | full ^ ((1 << rng.randrange(order // 2, order)) - 1)
                    for fmask in faults
                ]
            elif width > 1:
                # edge cases at the front, in the middle and last
                for i, fmask in zip((0, width // 2, width - 1), rng.sample(edge, 3)):
                    faults[i] = fmask
            if family == "scattered":
                # sets with no surviving edge start at their highest survivor
                for i in range(1 if width > 1 else 0, width, 4):
                    faults[i] = _scattered(dense, rng)
            got = cuts._disconnected(dense.neighbors, order, faults)
            unreached = _unreached_by_reach(dense, faults)
            assert got == [_at_least(unreached, 1)], (width, family)
            for apart in (1, 2, 3):
                counted = cuts._disconnected(dense.neighbors, order, faults, apart)
                assert len(counted) == apart
                for i, count in enumerate(counted):
                    assert count == _at_least(unreached, i + 1), (width, family, apart, i)
            if width == TRIAL_BLOCK and family == "random":
                assert 0 < got[0].bit_count() < width


@pytest.mark.parametrize("graph", ["mb4", "ug5", "small pieces", "ug6"])
def test_two_cyclic_components_agrees_with_component_analysis(request, graph):
    if graph == "small pieces":
        # triangles, a lone edge, a path, a 4-cycle with a tail, a lone vertex
        H = nx.disjoint_union_all(
            [
                nx.cycle_graph(3),
                nx.path_graph(2),
                nx.cycle_graph(3),
                nx.path_graph(4),
                nx.lollipop_graph(4, 2),
                nx.empty_graph(1),
            ]
        )
        dense = DenseGraph(tuple(tuple(sorted(H[v])) for v in range(len(H))))
        cut = []
    else:
        G = request.getfixturevalue(graph)
        dense = G.dense
        # a 4-cycle's neighbourhood cuts it off, and the rest carries cycles
        cut = build_cycle_neighborhood_cut(G, canonical_four_cycle(G))
    rng = random.Random(graph)
    seen = set()
    for i in range(400):
        fault = rng.sample(range(dense.order), rng.randrange(dense.order // 2))
        if i % 2:
            fault = sorted({*cut, *fault[: len(fault) // 4]})
        alive = dense.full_mask ^ sum(1 << v for v in fault)
        an = component_analysis(dense, fault)
        comps = cuts._components(dense.masks, alive)
        # each mask is the component of its least vertex, by least vertex,
        # with the sizes, the members where listed and the cycle flags
        assert sum(mask for mask, _ in comps) == alive, fault
        leasts = [mask & -mask for mask, _ in comps]
        assert leasts == sorted(leasts), fault
        for (mask, _), least in zip(comps, leasts):
            assert reach(dense.masks, alive, least) == mask, fault
        got = [(mask.bit_count(), cyclic) for mask, cyclic in comps]
        assert got == [(c.vertices, c.contains_cycle) for c in an.components], fault
        for (mask, _), c in zip(comps, an.components):
            assert c.members in (None, cuts._mask_members(mask)), fault
        expected = an.cyclic_component_count() >= 2
        assert cuts._two_cyclic_components(dense.masks, alive) == expected, fault
        seen.add(expected)
    assert seen == {False, True}


def test_component_analysis_agrees_with_networkx(mb4):
    rng = random.Random(4)
    faults = [rng.sample(range(24), rng.randrange(3, 12)) for _ in range(200)]
    faults.append(build_cycle_neighborhood_cut(mb4, canonical_four_cycle(mb4)))
    H = _nx_of(mb4)
    counts = set()
    for fault in faults:
        rest = H.subgraph(set(H) - set(fault))
        # components by least member: members, vertices, edges, cycle flag
        expected = [
            (tuple(sorted(c)), len(c), sub.number_of_edges(), not nx.is_tree(sub))
            for c in sorted(nx.connected_components(rest), key=min)
            for sub in [rest.subgraph(c)]
        ]
        an = component_analysis(mb4.dense, fault)
        got = [
            (c.members, c.vertices, c.edges, c.contains_cycle) for c in an.components
        ]
        assert got == expected, fault
        counts.add(an.component_count)
    assert counts >= {1, 2, 3, 4}


def test_structure_probes_pass_on_mb4_and_fire_on_q3(mb4, q3):
    assert find_edge_cn_violation(mb4.dense) is None
    assert find_cn_triple_violation(mb4.dense) is None
    # the 3-cube realizes the forbidden triple: two cn=2 pairs whose
    # outer vertices still share a neighbor
    assert find_edge_cn_violation(q3) is None
    triple = find_cn_triple_violation(q3)
    assert triple is not None
    u, v, w = triple
    # v is the middle vertex of both cn=2 pairs, so the order is not sorted
    assert triple == (3, 0, 5)
    assert common_neighbor_count(q3, u, v) == 2
    assert common_neighbor_count(q3, v, w) == 2
    assert common_neighbor_count(q3, u, w) >= 1


def _cn_scans_by_brute_force(H: nx.Graph):
    """(max cn with its first pair, first edge hit, first triple hit), brute force."""
    vs = sorted(H)

    def cn(a, b):
        return len(set(H[a]) & set(H[b]))

    pairs = list(itertools.combinations(vs, 2))
    best = max(cn(u, v) for u, v in pairs)
    first = next(p for p in pairs if cn(*p) == best)
    edge = next(
        (
            (p, q, s)
            for p, q in pairs
            if H.has_edge(p, q)
            for s in vs
            if s not in (p, q) and cn(s, p) and cn(s, q)
        ),
        None,
    )
    partners = {v: [x for x in vs if x != v and cn(x, v) == 2] for v in vs}
    triple = next(
        (
            (u, v, w)
            for v in vs
            for u, w in itertools.combinations(partners[v], 2)
            if cn(u, w)
        ),
        None,
    )
    return (best, first), edge, triple


def test_cn_scans_on_bare_graphs_match_a_brute_force():
    # vertex 0 is isolated in half the graphs, so every hit lies elsewhere
    for seed in range(6):
        H = nx.gnp_random_graph(12, 0.35, seed=seed)
        if seed % 2:
            H.remove_edges_from(list(H.edges(0)))
        g = DenseGraph(tuple(tuple(sorted(H[v])) for v in range(12)))
        scans = (max_common_neighbors, find_edge_cn_violation, find_cn_triple_violation)
        assert tuple(scan(g) for scan in scans) == _cn_scans_by_brute_force(H), seed


def test_cn_triple_takes_no_vertex_as_its_own_partner():
    # on the 4-cycle 0-1-2-3 each vertex has cn=2 with itself (degree 2) and
    # with its opposite vertex only, so no triple of distinct vertices exists
    square = DenseGraph(((1, 3), (0, 2), (1, 3), (0, 2)))
    assert find_cn_triple_violation(square) is None


def test_q3_helper_is_the_hypercube(q3):
    assert q3.order == 8
    assert girth(q3) == 4
    assert _girth_oracle(_nx_of(q3)) == 4


def test_redirected_cross_edge_breaks_the_counts(mb4):
    bad = with_redirected_cross_edge(mb4)
    assert bad.order == mb4.order
    # routines may fix a source at vertex 0 only on the built graph
    assert mb4.transitive and not bad.transitive
    sizes = {
        (i, j): len(cross_edges(bad, i, j).edges)
        for i in range(1, 5)
        for j in range(i + 1, 5)
    }
    assert any(v != 4 for v in sizes.values())
    overlap = [
        (u, v)
        for u in range(bad.order)
        for v in range(u + 1, bad.order)
        if bad.block_of[u] == bad.block_of[v]
        and set(out_neighbors(bad, u)) & set(out_neighbors(bad, v))
    ]
    assert overlap


def test_build_capacity_is_n8():
    with pytest.raises(CapacityError):
        build_cayley(
            build_generating_graph(
                9, [(i, i + 1) for i in range(1, 9)] + [(1, 9)]
            )
        )
    b8 = path_graph(8)
    assert b8.order == math.factorial(8)
    with pytest.raises(CapacityError):
        b8.dense.masks


def test_graph6_roundtrip_and_capacity(mb4, b4, ug5):
    for G in (mb4, b4):
        parsed = nx.from_graph6_bytes(to_graph6(G).encode())
        assert set(parsed.edges) == set(_nx_of(G).edges)
    with pytest.raises(CapacityError):
        to_graph6(ug5)  # graph6 stops at 62 vertices


def test_dot_and_edgelist_formats(mb4):
    dot = to_dot(mb4)
    assert dot.startswith("graph G {") and dot.rstrip().endswith("}")
    assert dot.count(" -- ") == mb4.size
    assert 'v0 [label="1234"]' in dot

    lines = to_edgelist(mb4).splitlines()
    assert lines[0] == "n=4 order=24 degree=4"
    assert len(lines) == 1 + mb4.size
    seen = set()
    for line in lines[1:]:
        a, b = (int(x) for x in line.split())
        seen.add((a, b))
        assert a < b
        assert mb4.dense.adjacent(a, b)
    assert len(seen) == mb4.size


def test_hypercube_conftest_helper_sorted():
    q4 = hypercube(4)
    assert q4.order == 16
    assert all(list(t) == sorted(t) for t in q4.neighbors)


@pytest.mark.parametrize("spec", ["mb:4", "mb:5", "ug:5:c=4", "star:4", "bubble:4"])
def test_conjugations_are_automorphisms_fixing_0(spec):
    from ugconn import build_cayley
    from ugconn.cli import parse_spec

    G = build_cayley(parse_spec(spec))
    maps = conjugation_maps(G)
    assert maps[0] == tuple(range(G.order))
    for m in maps:
        assert m[0] == 0 and sorted(m) == list(range(G.order))
        for u in range(G.order):
            assert sorted(m[w] for w in G.neighbors[u]) == list(G.neighbors[m[u]])
    inv = inverse_map(G)
    for u in range(G.order):
        assert inv[inv[u]] == u
        # translating by u^-1 takes u to 0, and 0 to u^-1
        p = G.perms[u]
        assert tuple(G.perms[inv[u]][x - 1] for x in p) == G.perms[0]
