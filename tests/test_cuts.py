"""Cut predicates, exhaustive searches, the census, and max-flow connectivity.

Golden numbers in here were frozen from independent recomputation
(plain BFS census vs the bitmask engine); networkx supplies the oracle
for the flow-based connectivity values.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import multiprocessing.pool
import random
import threading
import time
import tracemalloc
from functools import partial
from unittest import mock

import networkx as nx
import pytest

from conftest import reach

from ugconn import build_cayley, cuts, flows
from ugconn.cayley import (
    CayleyGraph,
    DenseGraph,
    conjugation_maps,
    inverse_map,
    with_redirected_cross_edge,
)
from ugconn.cuts import (
    TRIAL_BLOCK,
    _disconnected,
    _disconnected_columns,
    _falsify_block,
    _keeps_degree,
    _make_witness,
    _mask_members,
    _mask_of,
    _run,
    _subset_tasks,
    _task_columns,
    build_cycle_neighborhood_cut,
    component_analysis,
    disconnection_census,
    is_cyclic_cut,
    is_good_neighbor_cut,
    is_vertex_cut,
    large_component_profile,
    min_cyclic_cut_exhaustive,
    min_good_neighbor_cut_exhaustive,
    min_neighborhood_over_4subsets,
    randomized_cut_falsifier,
    render_witness,
    resolve_workers,
    sampled_residual_check,
    verify_connected_under_removal,
    vertex_boundary,
)
from ugconn.flows import (
    _least_images,
    _min_separation,
    _unit_flow,
    edge_separation_connectivity,
    vertex_connectivity,
    vertex_connectivity_detail,
)
from ugconn.cli import parse_spec
from ugconn.lemmas import (
    FAIL,
    RANDOM_TRIALS,
    canonical_four_cycle,
    find_cn_triple_violation,
    find_edge_cn_violation,
    max_common_neighbors,
    verify_all,
)
from ugconn.perms import CapacityError, apply_swap


def _dense_of_nx(H: nx.Graph) -> DenseGraph:
    order = H.number_of_nodes()
    assert sorted(H) == list(range(order))
    return DenseGraph(tuple(tuple(sorted(H[v])) for v in range(order)))


def _nx_of(g) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(g.order))
    H.add_edges_from((u, v) for u in range(g.order) for v in g.neighbors[u])
    return H


def _perms(G, fault):
    return [G.perm_str(v) for v in fault]


# --- predicates ---------------------------------------------------------


def test_vertex_cut_predicate_on_a_path():
    p4 = DenseGraph(((1,), (0, 2), (1, 3), (2,)))
    assert is_vertex_cut(p4, (1,))
    assert not is_vertex_cut(p4, ())
    assert not is_vertex_cut(p4, (0,))
    assert not is_cyclic_cut(p4, (1,))  # paths have no cycles to keep


def test_cyclic_and_good_neighbor_predicates_on_mb4(mb4):
    cut = build_cycle_neighborhood_cut(mb4, canonical_four_cycle(mb4))
    assert len(cut) == 8
    assert is_vertex_cut(mb4, cut)
    assert is_cyclic_cut(mb4, cut)
    assert is_good_neighbor_cut(mb4, cut, 2)
    assert not is_good_neighbor_cut(mb4, cut, 3)
    iso = tuple(mb4.neighbors[0])
    assert is_vertex_cut(mb4, iso)
    assert not is_cyclic_cut(mb4, iso)
    assert not is_good_neighbor_cut(mb4, iso, 1)  # vertex 0 loses everything


# Guards left without a test on purpose: the acyclic-side RuntimeError of
# min_good_neighbor_cut_exhaustive and the bad-cycle branch of
# check_four_cycle_labels guard theorems (minimum degree 2 forces a cycle;
# every 4-cycle of a triangle-free transposition graph alternates two
# commuting generators), and the bodies of cuts._install and _call run only
# in pool workers, outside the test process.
def test_cut_predicates_guard_their_arguments(mb4):
    for fault in ((-1,), (mb4.order,)):
        with pytest.raises(ValueError, match="out of range"):
            component_analysis(mb4.dense, fault)
    an = component_analysis(mb4.dense, range(mb4.order))
    assert (an.component_count, an.largest(), an.residual()) == (0, 0, 0)
    with pytest.raises(ValueError, match=">= 0"):
        is_good_neighbor_cut(mb4, (0,), -1)
    assert not is_good_neighbor_cut(mb4, (0,), 0)  # mb4 - 0 stays connected


def test_good_neighbor_predicate_degree_counts_survivors_only(mb4):
    cut = build_cycle_neighborhood_cut(mb4, canonical_four_cycle(mb4))
    an = component_analysis(mb4.dense, cut)
    for comp in an.components:
        assert comp.vertices == 4 and comp.edges == 4


def test_large_component_profile(mb4, ug5):
    cut = build_cycle_neighborhood_cut(mb4, canonical_four_cycle(mb4))
    assert large_component_profile(mb4, cut) == (4, 12)
    cut5 = build_cycle_neighborhood_cut(ug5, canonical_four_cycle(ug5))
    assert large_component_profile(ug5, cut5) == (104, 4)


def test_vertex_boundary_matches_cycle_neighborhood(mb4):
    cyc = canonical_four_cycle(mb4)
    cut = build_cycle_neighborhood_cut(mb4, cyc)
    assert sorted(cut) == sorted(vertex_boundary(mb4.dense, cyc))
    assert not set(cut) & set(cyc)


def test_build_cycle_neighborhood_cut_validates_the_cycle(mb4):
    with pytest.raises(ValueError):
        build_cycle_neighborhood_cut(mb4, (0, 1, 2, 3))  # not a 4-cycle
    with pytest.raises(ValueError):
        build_cycle_neighborhood_cut(mb4, (0, 1, 7, 7))


# --- connectivity via flow ----------------------------------------------


def test_connectivity_values_on_the_families(mb3, mb4, mb5, b3, b4, star4, ug5):
    assert vertex_connectivity(mb3) == 3
    assert vertex_connectivity(mb4) == 4
    assert vertex_connectivity(mb5) == 5
    assert vertex_connectivity(b3) == 2
    assert vertex_connectivity(b4) == 3
    assert vertex_connectivity(star4) == 3
    assert vertex_connectivity(ug5) == 5


def test_connectivity_witness_is_a_real_cut(mb4):
    det = vertex_connectivity_detail(mb4)
    assert det.value == 4 and not det.complete
    assert _perms(mb4, det.cut) == ["1243", "1324", "2134", "4231"]
    assert is_vertex_cut(mb4, det.cut)
    assert nx.node_connectivity(_nx_of(mb4)) == 4
    # vertex 0 against one vertex at distance 2 per orbit of the
    # conjugations by Aut(T) and w -> w^-1: 2 of the 24 - 1 - 4 non-neighbors
    assert det.flows == 2


def test_connectivity_matches_networkx_on_random_graphs():
    # a bare DenseGraph is not assumed vertex-transitive
    for seed in (1, 2, 3, 4):
        H = nx.gnp_random_graph(18, 0.28, seed=seed)
        if not nx.is_connected(H):
            continue
        dense = _dense_of_nx(H)
        det = vertex_connectivity_detail(dense)
        assert det.value == nx.node_connectivity(H)
        if det.cut is not None:
            assert len(det.cut) == det.value
            assert is_vertex_cut(dense, det.cut)


def test_connectivity_of_the_corrupted_graph_scans_past_vertex_0(mb4):
    bad = with_redirected_cross_edge(mb4)
    det = vertex_connectivity_detail(bad)
    assert det.value == nx.node_connectivity(_nx_of(bad)) == 3
    assert len(det.cut) == 3 and is_vertex_cut(bad, det.cut)
    # a hub adjacent to everything hides every cut from a fixed source
    hub = nx.wheel_graph(8)
    assert vertex_connectivity_detail(_dense_of_nx(hub)).value == 3


def test_flow_order_limit_binds_only_without_vertex_transitivity(mb4, monkeypatch):
    bad = with_redirected_cross_edge(mb4)
    monkeypatch.setattr(flows, "FLOW_ORDER_LIMIT", mb4.order)
    assert vertex_connectivity_detail(bad).value == 3
    monkeypatch.setattr(flows, "FLOW_ORDER_LIMIT", mb4.order - 1)
    for units in (vertex_connectivity_detail, edge_separation_connectivity):
        with pytest.raises(CapacityError, match="capped at order 23"):
            units(bad)
    # the flows from vertex 0 of a graph from build_cayley have no cap
    assert vertex_connectivity_detail(mb4).value == 4


@pytest.mark.parametrize(
    "spec, expected",
    [("mb:4", 6), ("ug:4:c=4", 6), ("star:4", 4), ("bubble:4", 4)],
)
def test_edge_separation_against_the_census(spec, expected):
    # the census is the oracle: the first fault size that strands two
    # vertices is min(kappa_1, 2*degree - max_cn) on these regular graphs
    g = build_cayley(parse_spec(spec))
    sep = edge_separation_connectivity(g)
    max_cn, _ = max_common_neighbors(g.dense)
    first = next(r.size for r in disconnection_census(g, 7) if r.max_residual >= 2)
    assert first == min(sep.value, 2 * g.degree - max_cn) == expected
    assert len(sep.cut) == sep.value
    assert sep.flows > 0
    an = component_analysis(g.dense, sep.cut)
    home = {}
    for i, comp in enumerate(an.components):
        for v in comp.members:
            home[v] = i
    (a, b), (c, d) = sep.edges
    assert g.dense.adjacent(a, b) and g.dense.adjacent(c, d)
    assert home[a] == home[b] != home[c] == home[d]


def test_edge_separation_on_ug5(mb4, ug5):
    sep = edge_separation_connectivity(ug5)
    assert sep.value == 8 == len(sep.cut)
    assert sep.edges[0][0] == 0  # the first edge is fixed at vertex 0
    assert large_component_profile(ug5, sep.cut)[1] >= 2
    # one flow per far edge through a vertex at distance 2 from 0, after
    # each edge at vertex 0 that is least in its Aut(T) orbit: 3 of the 5
    # first edges on ug:5:c=4, 1 of 4 on mb:4
    assert sep.flows == 137
    assert edge_separation_connectivity(mb4).flows == 20


# (value, cut) of kappa and (value, pair, cut) of kappa_1, frozen from the
# loop that flowed every non-neighbor of vertex 0 and every first edge at
# 0; the orbit and ring rules must reproduce them.  The one exception is
# star:4's kappa_1 pair: its old second edge (1, 7) has no vertex at
# distance 2 from 0, so the first flowed pair that attains 4 is the next
# one, with the same cut.  The last number is the flow count with both
# rules (713 for each n=6 kappa without them).
PINNED_KAPPA = {
    "mb:4": (4, (1, 2, 6, 21), 2),
    "mb:5": (5, (1, 2, 6, 24, 105), 2),
    "ug:4:c=4": (4, (1, 2, 6, 21), 2),
    "ug:5:c=4": (5, (1, 2, 6, 24, 80), 6),
    "star:4": (3, (6, 14, 21), 1),
    "bubble:4": (3, (1, 2, 6), 2),
    "mb:6": (6, (1, 2, 6, 24, 120, 633), 3),
    "ug:6:c=4": (6, (1, 2, 6, 24, 120, 390), 9),
    "ug:6:c=5": (6, (1, 2, 6, 24, 120, 512), 9),
}
PINNED_KAPPA_1 = {
    "mb:4": (6, ((0, 1), (3, 5)), (2, 4, 6, 7, 15, 21), 20),
    "mb:5": (8, ((0, 1), (3, 5)), (2, 4, 6, 7, 24, 25, 81, 105), 41),
    "ug:4:c=4": (6, ((0, 1), (3, 5)), (2, 4, 6, 7, 15, 21), 20),
    "ug:5:c=4": (8, ((0, 1), (3, 5)), (2, 4, 6, 7, 24, 25, 80, 104), 137),
    "star:4": (4, ((0, 6), (1, 15)), (12, 14, 19, 21), 8),
    "bubble:4": (4, ((0, 1), (3, 5)), (2, 4, 6, 7), 11),
}


@pytest.mark.parametrize("spec", sorted(PINNED_KAPPA))
def test_kappa_matches_the_all_pairs_values(spec):
    det = vertex_connectivity_detail(build_cayley(parse_spec(spec)))
    assert (det.value, det.cut, det.flows) == PINNED_KAPPA[spec]


@pytest.mark.parametrize("spec", sorted(PINNED_KAPPA_1))
def test_kappa_1_matches_the_all_first_edges_values(spec):
    sep = edge_separation_connectivity(build_cayley(parse_spec(spec)))
    assert (sep.value, sep.edges, sep.cut, sep.flows) == PINNED_KAPPA_1[spec]


def _separation_by_every_pair(g, units):
    """(value, cut) from every unit through 0 against every unit after it.

    A reference loop without the orbit and ring rules of the kappa and
    kappa_1 plans: the same unit order, the same cutoffs, and a pair is
    flowed whenever its second unit misses the first unit's closed
    neighborhood.
    """
    firsts = [u for u in units if 0 in u]
    ordered = firsts + [u for u in units if 0 not in u]
    into = [tuple(2 * w for w in ns) for ns in g.neighbors]
    best, cut = g.order, None
    for i, first in enumerate(firsts):
        closed = set(first).union(*(g.neighbors[v] for v in first))
        for second in ordered[i + 1 :]:
            if closed.isdisjoint(second):
                f, found = _unit_flow(into, first, second, best)
                if f < best:
                    best, cut = f, found
    return best, cut


@pytest.mark.parametrize(
    "spec", ["mb:4", "ug:4:c=4", "ug:5:c=4", "mb:5", "bubble:4", "star:4"]
)
def test_ring_rule_matches_the_loop_over_every_pair(spec):
    g = build_cayley(parse_spec(spec))
    dense = g.dense
    near = {0, *dense.neighbors[0]}
    ring = {w for v in near for w in dense.neighbors[v]} - near
    det = vertex_connectivity_detail(g)
    vertices = [(v,) for v in range(g.order)]
    assert _separation_by_every_pair(g, vertices) == (det.value, det.cut)
    edges = [(u, v) for u in range(g.order) for v in dense.neighbors[u] if u < v]
    sep = edge_separation_connectivity(g)
    assert _separation_by_every_pair(g, edges) == (sep.value, sep.cut)
    assert 0 in sep.edges[0] and not ring.isdisjoint(sep.edges[1])


@pytest.mark.parametrize("spec", ["mb:4", "ug:5:c=4"])
def test_a_plan_of_every_pair_flows_every_separable_pair(spec):
    """The driver adds no filter beyond the closed-neighborhood test."""
    g = build_cayley(parse_spec(spec))
    dense = g.dense
    vertices = [(v,) for v in range(g.order)]
    edges = [(u, v) for u in range(g.order) for v in dense.neighbors[u] if u < v]
    for units in (vertices, edges):
        firsts = [u for u in units if 0 in u]
        ordered = firsts + [u for u in units if 0 not in u]
        plan = [(u, ordered[i + 1 :]) for i, u in enumerate(firsts)]
        separable = sum(
            set(first).union(*(dense.neighbors[v] for v in first)).isdisjoint(second)
            for first, seconds in plan
            for second in seconds
        )
        sep = _min_separation(dense, plan)
        assert (sep.value, sep.cut) == _separation_by_every_pair(g, units)
        assert sep.flows == separable


@pytest.mark.parametrize("spec", ["mb:5", "ug:5:c=4", "star:5"])
def test_least_images_match_the_maps_over_every_vertex(spec):
    """The orbit minima the kappa and kappa_1 plans read, against full maps.

    On N(0) they are the conjugation-only minima: every neighbor of 0 is a
    transposition, its own inverse.
    """
    g = build_cayley(parse_spec(spec))
    dense = g.dense
    near = {0, *dense.neighbors[0]}
    ring = sorted({w for v in near for w in dense.neighbors[v]} - near)
    maps, inverse = conjugation_maps(g), inverse_map(g)
    assert len(maps) > 1 and {inverse[w] for w in ring} == set(ring)
    assert _least_images(g, ring) == {
        w: min(m[x] for m in maps for x in (w, inverse[w])) for w in ring
    }
    assert _least_images(g, dense.neighbors[0]) == {
        s: min(m[s] for m in maps) for s in dense.neighbors[0]
    }


# kappa as (value, cut, flows) and kappa_1 as (value, pair, cut, flows) on
# graphs that are not vertex-transitive, where neither rule applies; frozen
# from the driver without the ring rule, which must not change them
PINNED_OFF_TRANSITIVE = {
    "corrupted mb:4": (
        (3, (4, 7, 15), 73),
        (5, ((0, 2), (1, 4)), (3, 6, 12, 21, 23), 141),
    ),
    "gnp seed 1": ((1, (0,), 18), (3, ((0, 1), (5, 12)), (2, 7, 13), 27)),
    "gnp seed 2": ((2, (0, 13), 32), (3, ((1, 6), (0, 4)), (3, 12, 13), 43)),
    "gnp seed 3": ((0, (), 10), (2, ((2, 11), (10, 14)), (0, 15), 17)),
    "gnp seed 23": ((1, (6,), 22), (2, ((1, 6), (8, 9)), (0, 5), 19)),
}


@pytest.mark.parametrize("name", sorted(PINNED_OFF_TRANSITIVE))
def test_off_transitive_graphs_flow_every_pair_as_before(mb4, name):
    if name == "corrupted mb:4":
        g = with_redirected_cross_edge(mb4)
    else:
        seed = int(name.rsplit(" ", 1)[1])
        g = _dense_of_nx(nx.gnp_random_graph(16, 0.3, seed=seed))
    det = vertex_connectivity_detail(g)
    sep = edge_separation_connectivity(g)
    assert (
        (det.value, det.cut, det.flows),
        (sep.value, sep.edges, sep.cut, sep.flows),
    ) == PINNED_OFF_TRANSITIVE[name]


# A trap for augmenting paths: 0 is the source, 5 the sink.  The first
# search finds 0-1-3-5, which blocks 2, so the second path 0-2-3-1-4-5 must
# enter 3 and cancel the arc 1 -> 3 of the first.  Units 6 and 7 hang off
# the ends to make edge units (0, 6) and (5, 7) of the same trap.
TRAP = ((1, 2, 6), (0, 3, 4), (0, 3), (1, 2, 5), (1, 5), (3, 4, 7), (0,), (5,))


def test_unit_flow_cancels_an_arc_of_an_earlier_path():
    into = [tuple(2 * w for w in ns) for ns in TRAP]
    H = nx.Graph((v, w) for v, ns in enumerate(TRAP) for w in ns)
    # without the cancellation the flow would stop at 1; the cut is N(0)
    # minus the unit, the minimum cut next to the source
    assert _unit_flow(into, (0,), (5,), 8) == (nx.node_connectivity(H, 0, 5), (1, 2))
    assert _unit_flow(into, (0,), (5,), 1) == (1, None)  # stopped at the cutoff
    K = nx.contracted_nodes(nx.contracted_nodes(H, 0, 6), 5, 7)
    flow, cut = _unit_flow(into, (0, 6), (5, 7), 8)
    assert (flow, cut) == (nx.node_connectivity(K, 0, 5), (1, 2)) == (2, (1, 2))
    # here the third path from 2 to 5 cancels both arcs of vertex 4's path,
    # so 4 is freed (exit_of back to its own out-state)
    H = nx.Graph(
        tuple(map(int, e.split("-")))
        for e in "0-1 0-9 0-10 1-3 2-6 2-9 2-10 3-4 3-5 4-6 5-8 5-10 6-7 6-10 7-8 7-11".split()
    )
    into = [tuple(2 * w for w in sorted(H[v])) for v in range(12)]
    flow, cut = _unit_flow(into, (2,), (5,), 12)
    assert (flow, cut) == (nx.node_connectivity(H, 2, 5), (6, 9, 10)) == (3, (6, 9, 10))


def _edge_separation_by_all_pairs(H: nx.Graph):
    """kappa_1 by brute force: contract each far edge pair, take the local cut."""
    best = None
    edges = list(H.edges)
    for i, (a, b) in enumerate(edges):
        closed = set(H[a]) | set(H[b])
        for c, d in edges[i + 1 :]:
            if c in closed or d in closed:
                continue
            K = nx.contracted_nodes(H, a, b, self_loops=False)
            K = nx.contracted_nodes(K, c, d, self_loops=False)
            k = nx.node_connectivity(K, a, c)
            best = k if best is None else min(best, k)
    return best


def test_edge_separation_off_transitive_graphs_is_the_all_pairs_minimum(mb4):
    bad = with_redirected_cross_edge(mb4)
    H = _nx_of(bad)
    sep = edge_separation_connectivity(bad)
    assert sep.value == _edge_separation_by_all_pairs(H) == 5
    assert len(sep.cut) == 5
    # at seed 23 the first edges by index share vertices: the stop after
    # more disjoint edges than the best value needs the greedy family first
    for seed in (1, 2, 3, 23):
        H = nx.gnp_random_graph(16, 0.3, seed=seed)
        if nx.is_connected(H):
            sep = edge_separation_connectivity(_dense_of_nx(H))
            assert sep.value == _edge_separation_by_all_pairs(H)


def test_edge_separation_needs_two_far_edges():
    # in a 5-cycle every edge touches the closed neighborhood of every other
    c5 = DenseGraph(tuple(((v - 1) % 5, (v + 1) % 5) for v in range(5)))
    sep = edge_separation_connectivity(c5)
    assert (sep.value, sep.edges, sep.cut) == (None, None, None)
    assert sep.flows == 0


def test_connectivity_complete_graph_convention():
    k5 = DenseGraph(tuple(tuple(w for w in range(5) if w != v) for v in range(5)))
    det = vertex_connectivity_detail(k5)
    assert (det.value, det.complete, det.cut) == (4, True, None)
    assert nx.node_connectivity(nx.complete_graph(5)) == 4


# --- census and exhaustive searches --------------------------------------

MB4_CENSUS = {
    # size: (disconnecting, isolating, neighborhood, max_residual, worst)
    1: (0, 0, 0, 0, None),
    2: (0, 0, 0, 0, None),
    3: (0, 0, 0, 0, None),
    4: (24, 24, 24, 1, (0, 3, 12, 23)),
    5: (456, 456, 0, 1, (0, 1, 3, 12, 23)),
    6: (4128, 4056, 0, 2, (0, 1, 8, 10, 13, 19)),
    7: (23592, 22296, 0, 3, (0, 3, 7, 14, 16, 18, 23)),
}


def test_disconnection_census_golden_values(mb4):
    rows = disconnection_census(mb4, 7)
    assert [r.size for r in rows] == list(range(1, 8))
    for r in rows:
        disc, iso, nbhd, res, worst = MB4_CENSUS[r.size]
        assert r.subsets == math.comb(24, r.size)
        assert r.disconnecting == disc
        assert r.isolating == iso
        assert r.neighborhood_faults == nbhd
        assert r.max_residual == res
        assert r.worst_fault == worst


def test_census_worst_faults_actually_disconnect(mb4):
    for size, row in MB4_CENSUS.items():
        worst = row[4]
        if worst is None:
            continue
        an = component_analysis(mb4.dense, worst)
        assert an.component_count >= 2
        assert an.residual() == row[3]


@pytest.mark.parametrize("graph", ["mb4", "corrupted mb4"])
def test_census_walks_only_sets_with_three_survivors_off_the_start(
    mb4, monkeypatch, graph
):
    # one or two survivors outside the start's component settle a set by
    # popcount; the start is the highest survivor that keeps a neighbour
    g = mb4 if graph == "mb4" else with_redirected_cross_edge(mb4)
    masks = g.masks
    walked = []
    real = cuts._components

    def walk(masks, alive):
        walked.append(alive)
        return real(masks, alive)

    monkeypatch.setattr(cuts, "_components", walk)
    disconnection_census(g, 7)
    assert len(walked) == (55 if graph == "mb4" else 264)
    for alive in walked:
        start = max(v for v in _mask_members(alive) if masks[v] & alive)
        assert (alive & ~reach(masks, alive, 1 << start)).bit_count() >= 3


def test_min_cyclic_cut_none_up_to_seven(mb4):
    assert min_cyclic_cut_exhaustive(mb4, 7) is None


def test_min_cyclic_cut_witness_at_eight(mb4):
    w = min_cyclic_cut_exhaustive(mb4, 8)
    assert w is not None and w.kind == "cyclic-cut"
    assert _perms(mb4, w.fault) == [
        "1234", "1342", "2143", "2431", "3214", "3421", "4123", "4312",
    ]
    assert [c.vertices for c in w.analysis.components] == [8, 8]
    assert all(c.contains_cycle for c in w.analysis.components)
    assert is_cyclic_cut(mb4, w.fault)
    # the 145,499 sets of size <= 7 through vertex 0, then size 8 up to the hit
    assert w.scanned == 304_179


@pytest.mark.parametrize("graph", ["mb4", "corrupted mb4"])
def test_census_and_search_agree_on_the_least_cyclic_cut(mb4, graph):
    # lemmas.check_cyclic_cut_exact takes the census's cut below size 8 as
    # its witness, where a search would have found it
    g = mb4 if graph == "mb4" else with_redirected_cross_edge(mb4)
    census = disconnection_census(g, 7)
    full = min_cyclic_cut_exhaustive(g, 8)
    first = next((r.size for r in census if r.cyclic_cut is not None), 8)
    assert first == full.size == (8 if graph == "mb4" else 7)
    if first < 8:
        assert census[first - 1].cyclic_cut == full.fault


def test_min_good_neighbor_searches(mb4):
    w0 = min_good_neighbor_cut_exhaustive(mb4, 0, 4)
    assert w0.kind == "vertex-cut"
    assert w0.fault == (0, 3, 12, 23)
    assert min_good_neighbor_cut_exhaustive(mb4, 2, 7) is None
    w2 = min_good_neighbor_cut_exhaustive(mb4, 2, 8)
    assert w2.kind == "good-neighbor-cut(2)"
    # at n=4 the least 2-good cut coincides with the least cyclic cut
    assert _perms(mb4, w2.fault) == [
        "1234", "1342", "2143", "2431", "3214", "3421", "4123", "4312",
    ]
    assert is_good_neighbor_cut(mb4, w2.fault, 2)
    with pytest.raises(ValueError, match="neighbor requirement"):
        min_good_neighbor_cut_exhaustive(mb4, -1, 5)


def _least_cut_by_brute_force(H: nx.Graph, kind: str, max_size: int):
    """Sizes ascending, lexicographic within a size: the first fault of the kind."""
    for size in range(1, max_size + 1):
        for fault in itertools.combinations(sorted(H), size):
            rest = H.subgraph(set(H) - set(fault))
            sides = [rest.subgraph(c) for c in nx.connected_components(rest)]
            if len(sides) < 2:
                continue
            if kind == "cyclic":
                hit = sum(s.number_of_edges() >= len(s) for s in sides) >= 2
            elif kind == "good2":
                hit = min(d for _, d in rest.degree) >= 2
            else:
                hit = True
            if hit:
                return fault
    return None


@pytest.mark.parametrize("order, seed", [(12, 1), (14, 2), (14, 5)])
def test_searches_return_the_least_cut_of_a_brute_force_scan(order, seed):
    H = nx.random_regular_graph(3, order, seed=seed)
    assert nx.is_connected(H)
    dense = _dense_of_nx(H)
    top = order - 6  # small enough to keep two cyclic sides possible
    searches = {
        "cyclic": lambda: min_cyclic_cut_exhaustive(dense, top),
        "vertex": lambda: min_good_neighbor_cut_exhaustive(dense, 0, top),
        "good2": lambda: min_good_neighbor_cut_exhaustive(dense, 2, top),
    }
    for kind, search in searches.items():
        expected = _least_cut_by_brute_force(H, kind, top)
        assert expected is not None
        assert search().fault == expected


def _scans_by_reach(dense: DenseGraph, max_size: int):
    """(census rows, {search: (scanned, first hit)}) from a plain BFS per set.

    Every set of size <= max_size, sizes ascending and lexicographic within
    a size: the reference for the scans, which test whole blocks of sets
    with the bit-sliced ``_disconnected``.  A census row ends with the
    first cyclic cut of its size.
    """
    masks, full = dense.masks, dense.full_mask

    def two_cyclic(alive, comps):
        # a component carries a cycle when it has as many edges as vertices
        def degrees(c):
            return sum((masks[v] & c).bit_count() for v in _mask_members(c))

        return sum(degrees(c) >= 2 * c.bit_count() for c in comps) >= 2

    preds = {
        "vertex": lambda alive, comps: True,
        "good1": lambda alive, comps: _keeps_degree(masks, alive, 1),
        "good2": lambda alive, comps: _keeps_degree(masks, alive, 2),
        "cyclic": two_cyclic,
    }
    hits = {}
    census = []
    scanned = 0
    for size in range(1, max_size + 1):
        row = [size, 0, 0, 0, 0, 0, None, None]
        for fault in itertools.combinations(range(dense.order), size):
            scanned += 1
            row[1] += 1
            fmask = _mask_of(fault)
            alive = full ^ fmask
            comps = []
            rest = alive
            while rest:
                comps.append(reach(masks, rest, rest & -rest))
                rest &= ~comps[-1]
            if len(comps) == 1:
                continue
            sizes = [c.bit_count() for c in comps]
            residual = sum(sizes) - max(sizes)
            row[2] += 1
            if len(comps) == 2 and residual == 1:
                row[3] += 1
                row[4] += masks[comps[sizes.index(1)].bit_length() - 1] == fmask
            if residual > row[5]:
                row[5], row[6] = residual, fault
            if row[7] is None and two_cyclic(alive, comps):
                row[7] = fault
            for name, pred in preds.items():
                if name not in hits and pred(alive, comps):
                    hits[name] = scanned, fault
        census.append(tuple(row))
    return census, hits


@pytest.mark.parametrize(
    "graph",
    ["corrupted mb4", "bare split", "bare hub", "bare twins", "bare b4", "bare star4"],
)
def test_scans_match_a_per_set_reach_loop(request, mb4, graph):
    top = 7
    if graph in ("bare b4", "bare star4"):
        # bubble:4 and star:4 on every set: beside the sets it counts by
        # popcount, the census walks 73,892 and 23,142 of them
        g = request.getfixturevalue(graph.removeprefix("bare ")).dense
    elif graph == "bare split":
        # an edge on vertices 0 and 1 beside a 14-vertex cubic graph
        H = nx.disjoint_union(nx.path_graph(2), nx.random_regular_graph(3, 14, seed=1))
        g = _dense_of_nx(H)
    elif graph == "bare hub":
        # triangles 1-2-3 and 4-5-6, a hub 7 on all six and a leaf 0 on 1:
        # top = order - 1 reaches N(7), which leaves the singletons 0 and 7,
        # so the census sees sets with 2 survivors, one of them unreached
        H = nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(3))
        H = nx.relabel_nodes(H, {v: v + 1 for v in H})
        H.add_edges_from([(0, 1)] + [(7, v) for v in range(1, 7)])
        g = _dense_of_nx(H)
        assert g.order == top + 1
    elif graph == "bare twins":
        # triangles 0-1-2 and 3-4-5, 6 on 2 and 3, and twins 7 and 8 on
        # 0..6: the size-7 set 0..6 = N(7) = N(8) leaves the twins apart,
        # two survivors with no edge, so it isolates and is one
        # neighborhood fault, for the least singleton 7
        H = nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(3))
        H.add_edges_from([(6, 2), (6, 3)] + [(t, v) for t in (7, 8) for v in range(7)])
        g = _dense_of_nx(H)
        assert g.order == top + 2
    else:
        g = with_redirected_cross_edge(mb4)
    census, hits = _scans_by_reach(g, top)
    assert set(hits) == {"vertex", "good1", "good2", "cyclic"}

    def search(kind):
        if kind == "cyclic":
            return min_cyclic_cut_exhaustive(g, top)
        return min_good_neighbor_cut_exhaustive(
            g, {"vertex": 0, "good1": 1, "good2": 2}[kind], top
        )

    rows = disconnection_census(g, top)
    assert [tuple(r) for r in rows] == census
    for kind, (scanned, fault) in hits.items():
        witness = search(kind)
        assert (witness.scanned, witness.fault) == (scanned, fault), kind
    # p1: clean below the least vertex cut, which it finds at its size
    scanned, fault = hits["vertex"]
    below = sum(row[1] for row in census[: len(fault) - 1])
    for bound, expected in (
        (len(fault) - 1, (True, None, below)),
        (len(fault), (False, fault, scanned)),
    ):
        sweep = verify_connected_under_removal(g, bound)
        assert (sweep.ok, sweep.counterexample, sweep.removals) == expected


def _ring(order: int) -> DenseGraph:
    return DenseGraph(
        tuple(tuple(sorted({(v - 1) % order, (v + 1) % order})) for v in range(order))
    )


@pytest.mark.parametrize("graph", ["mb4", "ring 13"])
def test_task_columns_are_the_prefixed_combinations_in_order(request, graph):
    g = _ring(13) if graph == "ring 13" else request.getfixturevalue(graph)
    order = g.order
    anchors = {0} if graph == "mb4" else set(range(order))
    by_size: dict[int, list] = {}
    for task in _subset_tasks(g, range(1, 9)):
        by_size.setdefault(task[0], []).append(task)
    assert list(by_size) == list(range(1, 9))
    split = False
    for size, tasks in by_size.items():
        counts = []
        decoded = []
        for task in tasks:
            for head, r, s in task[1]:
                # a piece holds 1..TRIAL_BLOCK sets; an unsplit one is an anchor's
                assert 0 < math.comb(order - s, r) <= TRIAL_BLOCK
                low = head & -head
                split |= (head, r, s) != (low, size - 1, low.bit_length())
            alive, count, fault = _task_columns(task, order, {})
            faults = [fault(j) for j in range(count)]
            # column v of a task holds bit j exactly when v survives set j
            assert alive == [
                sum(1 << j for j, f in enumerate(faults) if not f >> v & 1)
                for v in range(order)
            ]
            counts.append(count)
            decoded += faults
        # a task closes once it holds TRIAL_BLOCK sets, from pieces of at
        # most TRIAL_BLOCK each
        assert all(TRIAL_BLOCK <= c < 2 * TRIAL_BLOCK for c in counts[:-1])
        assert 0 < counts[-1] < 2 * TRIAL_BLOCK
        assert decoded == [
            _mask_of(c)
            for c in itertools.combinations(range(order), size)
            if c[0] in anchors
        ]
    # mb4's size-7 sets through 0 number comb(23, 6), and that piece is split
    assert split == (graph == "mb4")


@pytest.mark.parametrize("graph", ["mb4", "ug5", "ring 13"])
def test_column_path_and_mask_kernel_give_the_same_counters(request, graph):
    if graph == "ring 13":
        g, top = _ring(13), 8
    else:
        g, top = request.getfixturevalue(graph), {"mb4": 8, "ug5": 4}[graph]
    by_size: dict[int, list] = {}
    for task in _subset_tasks(g, range(1, top + 1)):
        by_size.setdefault(task[0], []).append(task)
    # the first two tasks of each size; ug5's first size-4 task holds split
    # pieces, and nothing below size 5 disconnects it
    tasks = [t for ts in by_size.values() for t in ts[:2]]
    if graph == "ug5":
        # N(v) isolates v, and N(C4) leaves the 4-cycle unreached beside the
        # rest; each task is one piece, all but the cut's last two vertices
        # joined to each pair after them
        isolating = g.neighbors[g.neighbors[0][0]]
        cyclic = build_cycle_neighborhood_cut(g, canonical_four_cycle(g))
        for cut in (isolating, cyclic):
            tasks.append((len(cut), ((_mask_of(cut[:-2]), 2, cut[-3] + 1),)))
    flagged = [0, 0, 0]
    for task in tasks:
        alive, count, fault = _task_columns(task, g.order, {})
        faults = [fault(j) for j in range(count)]
        for apart in (1, 2, 3):
            got = _disconnected_columns(g.neighbors, alive, apart)
            assert got == _disconnected(g.neighbors, g.order, faults, apart)
        for i, counter in enumerate(got):
            flagged[i] += counter.bit_count()
    assert all(flagged)


def test_each_scan_task_is_one_kernel_call(mb4, monkeypatch):
    calls = []
    real = cuts._disconnected_columns

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cuts, "_disconnected_columns", counted)
    disconnection_census(mb4, 7)
    assert len(calls) == len(list(_subset_tasks(mb4, range(1, 8))))
    calls.clear()
    witness = min_cyclic_cut_exhaustive(mb4, 8)
    # the search stops at the task that holds its hit
    order = mb4.order
    held = itertools.accumulate(
        sum(math.comb(order - s, r) for _, r, s in pieces)
        for _, pieces in _subset_tasks(mb4, range(1, 9))
    )
    assert len(calls) == 1 + sum(h < witness.scanned for h in held)


def test_a_first_hit_search_pays_only_for_the_sizes_it_reaches(mb5):
    """mb:5's least vertex cut has 5 vertices, so a larger bound scans no more.

    The tasks are made as the search takes them, so no size past the hit
    is split, and the search at bound 6 peaks below 8 MB; a task list
    built up front for every size peaks at about 20 MB there.
    """
    tracemalloc.start()
    try:
        witness = min_good_neighbor_cut_exhaustive(mb5, 0, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    least = ((0, 3, 12, 26, 107), 858_691)
    assert (witness.fault, witness.scanned) == least
    for bound in (5, 7):
        witness = min_good_neighbor_cut_exhaustive(mb5, 0, bound)
        assert (witness.fault, witness.scanned) == least


def test_min_neighborhood_over_4subsets(mb4):
    best, arg, scanned = min_neighborhood_over_4subsets(mb4)
    assert best == 8
    assert arg == (0, 1, 6, 7)  # the least 4-cycle wins
    assert len(vertex_boundary(mb4.dense, arg)) == 8
    assert scanned == math.comb(23, 3)  # the sets through vertex 0


def _min_neighborhood_by_brute_force(g):
    return min(
        (len(vertex_boundary(g, quad)), quad)
        for quad in itertools.combinations(range(g.order), 4)
    )


@pytest.mark.parametrize(
    "graph", ["mb4", "ug5", "corrupted mb4", "ug:4:c=4", "star:4", "bubble:4"]
)
def test_four_subset_scan_from_vertex_0_matches_the_full_scan(request, graph):
    if ":" in graph:
        g = build_cayley(parse_spec(graph))
    else:
        g = request.getfixturevalue(graph.split()[-1])
    if graph.startswith("corrupted"):
        g = with_redirected_cross_edge(g)
    # the bare DenseGraph is not assumed vertex-transitive: every set is scanned
    full = min_neighborhood_over_4subsets(g.dense)
    assert full[2] == math.comb(g.order, 4)
    got = min_neighborhood_over_4subsets(g)
    assert got[:2] == full[:2]
    if g.transitive:
        assert got[2] == math.comb(g.order - 1, 3)
    else:
        assert got == full
    if g.order <= 24:
        assert got[:2] == _min_neighborhood_by_brute_force(g.dense)


def _four_subset_reference(g):
    """(min, least witness, sets) by a loop that evaluates every set it covers.

    A graph from ``build_cayley`` covers the 4-sets through vertex 0,
    any other graph every 4-set.
    """
    built = isinstance(g, CayleyGraph) and g.transitive
    firsts = range(1) if built else range(g.order)
    best, arg, sets = None, None, 0
    for a in firsts:
        for rest in itertools.combinations(range(a + 1, g.order), 3):
            quad = (a, *rest)
            near = g.masks[a] | g.masks[rest[0]]
            near |= g.masks[rest[1]] | g.masks[rest[2]]
            count = (near & ~_mask_of(quad)).bit_count()
            sets += 1
            if best is None or count < best:
                best, arg = count, quad
    return best, arg, sets


@pytest.mark.parametrize(
    "graph", ["ug5", "mb5", "corrupted mb4", "gnp 2", "gnp 3", "gnp 7"]
)
def test_bounded_four_subset_scan_matches_an_unbounded_loop(request, graph):
    if graph.startswith("gnp"):
        # bare random graphs on which a bound one too tight changes the answer
        h = nx.gnp_random_graph(10, 0.3, seed=int(graph.split()[1]))
        g = DenseGraph(tuple(tuple(sorted(h[v])) for v in range(10)))
    else:
        g = request.getfixturevalue(graph.split()[-1])
    if graph.startswith("corrupted"):
        g = with_redirected_cross_edge(g)
    # the skipped sets are still covered: value, witness and count agree
    assert min_neighborhood_over_4subsets(g) == _four_subset_reference(g)


@pytest.mark.parametrize("spec", ["mb:4", "ug:4:c=4", "star:4", "bubble:4"])
def test_scans_from_vertex_0_match_the_full_scans(spec):
    g = build_cayley(parse_spec(spec))

    def fault(witness):
        return None if witness is None else witness.fault

    # each scan on the graph, then on its bare DenseGraph, which is not
    # assumed vertex-transitive and so takes the full path
    scans = {
        "census": lambda h: disconnection_census(h, 7),
        "cyclic": lambda h: fault(min_cyclic_cut_exhaustive(h, 8)),
        "vertex": lambda h: fault(min_good_neighbor_cut_exhaustive(h, 0, 5)),
        "good2": lambda h: fault(min_good_neighbor_cut_exhaustive(h, 2, 8)),
        "max_cn": max_common_neighbors,
        "edge_cn": find_edge_cn_violation,
        "cn_triple": find_cn_triple_violation,
    }
    for name, scan in scans.items():
        assert scan(g) == scan(g.dense), name
    for bound in (3, 4):
        got = verify_connected_under_removal(g, bound)
        full = verify_connected_under_removal(g.dense, bound)
        assert (got.ok, got.counterexample) == (full.ok, full.counterexample)
        assert got.removals < full.removals


@pytest.mark.parametrize("spec", ["mb:5", "ug:5:c=4", "mb:6"])
def test_common_neighbor_scans_from_vertex_0_match_the_full_scans(spec):
    g = build_cayley(parse_spec(spec))
    scans = (max_common_neighbors, find_edge_cn_violation, find_cn_triple_violation)
    for scan in scans:
        assert scan(g) == scan(g.dense), scan.__name__
    assert max_common_neighbors(g) == (2, (0, 7))
    # the least triple hit, on mb:5: 13254 and 21354 each have cn=2 with
    # 12345 and share the neighbor 12354
    assert find_cn_triple_violation(g) == (7, 0, 25)
    if g.n == 5:
        assert _perms(g, (7, 0, 25)) == ["13254", "12345", "21354"]


def test_four_subset_scan_needs_four_vertices():
    with pytest.raises(ValueError, match="no 4-subsets"):
        min_neighborhood_over_4subsets(DenseGraph(((1,), (0, 2), (1,))))


# --- removal sweeps -------------------------------------------------------


def test_removal_sweep_on_mb4(mb4):
    sweep = verify_connected_under_removal(mb4, 3)
    assert sweep.ok and sweep.counterexample is None
    assert sweep.removals == 1 + 23 + 253  # the sets through vertex 0
    sweep4 = verify_connected_under_removal(mb4, 4)
    assert not sweep4.ok
    assert sweep4.counterexample == (0, 3, 12, 23)  # N(1234)


def test_removal_sweep_is_the_least_vertex_cut_on_random_graphs():
    for seed in (11, 12, 13):
        H = nx.random_regular_graph(3, 14, seed=seed)
        assert nx.is_connected(H)
        dense = _dense_of_nx(H)
        for bound in (2, 3):
            expected = _least_cut_by_brute_force(H, "vertex", bound)
            sweep = verify_connected_under_removal(dense, bound)
            assert sweep.ok == (nx.node_connectivity(H) > bound)
            assert sweep.counterexample == expected


# --- sampled residual ------------------------------------------------------


def test_sampled_residual_check_passes_within_bound(mb4):
    # kappa(mb4) = 4: no set of at most 3 vertices disconnects it
    res = sampled_residual_check(mb4, max_size=3, trials=2000, seed=0)
    assert res.ok and res.violations == 0 and res.counterexample is None
    assert res.templates == 0  # every N(v) has 4 vertices
    assert res.trials == 2000


def test_sampled_residual_check_finds_violations(mb4):
    for max_size in (4, 5, 6):
        res = sampled_residual_check(mb4, max_size=max_size, trials=4000, seed=0)
        assert not res.ok
        assert res.templates == 24  # every N(v) fits and isolates v
        assert res.violations >= 24
        # the templates come first, in vertex order
        assert res.counterexample == mb4.dense.neighbors[0]
        assert is_vertex_cut(mb4, res.counterexample)


def test_sampled_residual_check_worker_invariant(mb4, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    one = sampled_residual_check(mb4, max_size=6, trials=4000, seed=3)
    two = sampled_residual_check(mb4, max_size=6, trials=4000, seed=3, workers=2)
    assert one == two
    assert one.violations > 24  # random draws disconnect too


@pytest.mark.parametrize(
    "graph, max_size",
    [
        ("mb4", 3),
        ("mb4", 5),
        ("ring 21", 2),
        ("ring 86", 5),
        ("barbell", 3),  # no templates: the counterexample is a drawn set
    ],
)
def test_sampled_residual_check_matches_a_replayed_draw(request, graph, max_size):
    if graph.startswith("ring "):
        order = int(graph.removeprefix("ring "))
        g = DenseGraph(
            tuple(tuple(sorted({(v - 1) % order, (v + 1) % order})) for v in range(order))
        )
    elif graph == "barbell":
        # two 5-cliques joined by one edge: degrees above 3, cut vertices 4 and 5
        g = _dense_of_nx(nx.barbell_graph(5, 0))
    else:
        g = request.getfixturevalue(graph)
    built = isinstance(g, CayleyGraph)
    anchors = range(1) if built else range(g.order)
    trials = 2 * TRIAL_BLOCK + 5
    low = max(1, max_size - 2)
    for seed in (0, 1):
        # the templates, then each block's draws: rng.choice of an anchor,
        # then randrange(order) until the vertex is new
        faults = [g.neighbors[v] for v in range(g.order)]
        faults = [f for f in faults if len(f) <= max_size]
        templates = len(faults)
        for block in range(3):
            rng = random.Random((seed << 20) | block)
            for i in range(min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)):
                fault = [rng.choice(anchors)]
                while len(fault) < low + i % (max_size - low + 1):
                    v = rng.randrange(g.order)
                    if v not in fault:
                        fault.append(v)
                if built:
                    assert fault[0] == 0
                faults.append(tuple(sorted(fault)))
        cuts_ = [f for f in faults if is_vertex_cut(g, f)]
        res = sampled_residual_check(g, max_size, trials, seed=seed, workers=1)
        assert res.templates == templates and res.trials == trials
        assert res.violations == len(cuts_), seed
        assert res.counterexample == (cuts_[0] if cuts_ else None)
        assert res.ok == (not cuts_)
    if graph == "barbell":
        assert templates == 0 and cuts_


def test_sampled_residual_check_starts_one_pool(mb4, monkeypatch):
    fork = multiprocessing.get_context("fork")
    real = fork.Pool
    starts = []

    def pool(*args, **kwargs):
        starts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fork, "Pool", pool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    # three blocks: the first runs in-process, the two left go to the pool
    res = sampled_residual_check(mb4, 4, 3 * TRIAL_BLOCK, workers=2)
    assert res.trials == 3 * TRIAL_BLOCK and res.templates == 24
    assert len(starts) == 1  # the trial blocks; the templates run in-process


# --- randomized falsifier ---------------------------------------------------


def test_falsifier_agrees_with_exhaustive_truth(mb4):
    assert randomized_cut_falsifier(mb4, 7, 20000, seed=0, workers=1) is None
    w = randomized_cut_falsifier(mb4, 8, 20000, seed=0, workers=1)
    assert w is not None and w.kind == "cyclic-cut"
    assert len(w.fault) == 8
    assert is_cyclic_cut(mb4, w.fault)


class _Bound(Exception):
    """Raised by a stand-in for ``_falsify_block`` with the draw bound to it."""


def _falsifier_draw(g, target, trials, seed):
    """The ``partial(_block_faults, ...)`` that randomized_cut_falsifier binds.

    Its args are (dense, anchors, cycles, blobs, grown, target, seed,
    trials); draw(block) gives a block's fault masks.
    """

    def task(dense, draw, memo, block):
        raise _Bound(draw)

    with mock.patch.object(cuts, "_falsify_block", task):
        with pytest.raises(_Bound) as bound:
            randomized_cut_falsifier(g, target, trials, seed, workers=1)
    return bound.value.args[0]


def _replay_first_hit(g, target, trials, seed):
    """(block, trial, fault) of the first replayed fault that is a cyclic cut."""
    draw = _falsifier_draw(g, target, trials, seed)
    for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
        for i, fmask in enumerate(draw(block)):
            fault = _mask_members(fmask)
            if fault and is_cyclic_cut(g, fault):
                return block, i, fault
    return None


def _reference_faults(draw, block):
    """The list-based draw: rng.choice and rng.randrange on vertex lists.

    ``_block_faults`` must spend the same random stream on the same sets;
    this also catches a Python whose ``random`` draws differently.  It
    takes the 4-cycles from draw's arguments, but builds the anchors'
    starts itself.
    """
    dense, anchors, cycles, _, _, target, seed, trials = draw.args
    masks, neighbors, order = dense.masks, dense.neighbors, dense.order
    rng = random.Random((seed << 20) | block)
    randrange = rng.randrange
    ncycles = len(cycles)
    faults = []
    for i in range(min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)):
        strat = i & 3 if ncycles else 0
        if strat == 0:
            fault = [rng.choice(anchors)] if target else []
            while len(fault) < target:
                v = randrange(order)
                while v in fault:
                    v = randrange(order)
                fault.append(v)
            faults.append(fault)
            continue
        if strat == 1:
            fault = cycles[randrange(ncycles)][2]
        else:
            if strat == 2:
                core, bound, fault = cycles[randrange(ncycles)]
                grow = randrange(1, 3)
            else:
                v = rng.choice(anchors)
                core, bound, fault = 1 << v, masks[v], neighbors[v]
                grow = randrange(1, 4)
            for _ in range(grow):
                v = fault[randrange(len(fault))]
                core |= 1 << v
                bound = (bound | masks[v]) & ~core
                fault = _mask_members(bound)
        if len(fault) > target:
            fault = list(fault)
            while len(fault) > target:
                del fault[randrange(len(fault))]
        faults.append(fault)
    return faults


@pytest.mark.parametrize(
    "graph, target",
    [
        ("ug5", 11),
        ("ug5", 12),
        ("mb4", 7),
        ("mb4", 8),
        ("bare mb4", 8),  # no 4-cycles: uniform subsets only
        ("mb4", 0),
        ("ug5", 0),
        ("mb4", 24),
        ("ug5", 120),
        # bare rings of several orders: every vertex an anchor
        ("ring 21", 3),
        ("ring 22", 3),
        ("ring 85", 11),
        ("ring 86", 11),
    ],
)
def test_block_faults_replay_the_list_based_draw(request, graph, target):
    if graph.startswith("ring "):
        order = int(graph.removeprefix("ring "))
        g = DenseGraph(
            tuple(tuple(sorted({(v - 1) % order, (v + 1) % order})) for v in range(order))
        )
    else:
        g = request.getfixturevalue(graph.removeprefix("bare "))
        if graph.startswith("bare "):
            g = g.dense
    built = isinstance(g, CayleyGraph)
    for seed in (0, 1, 7):
        # two full blocks and a partial last block
        draw = _falsifier_draw(g, target, 2 * TRIAL_BLOCK + 5, seed)
        _, anchors, cycles, *_ = draw.args
        assert anchors == range(1 if built else g.order)
        # the 4-cycles are those through vertex 0, as (core, boundary mask,
        # boundary), and strategy 0 draws target vertices with vertex 0
        # among them
        assert all(core & 1 for core, _, _ in cycles)
        assert len(cycles) == {"mb4": 2, "ug5": 4}.get(graph, 0)
        for core, bound, fault in cycles:
            assert core.bit_count() == 4
            assert fault == vertex_boundary(g, _mask_members(core))
            assert bound == _mask_of(fault)
        for block in range(3):
            faults = draw(block)
            ref = [_mask_of(f) for f in _reference_faults(draw, block)]
            assert faults == ref, (seed, block)
            if built:
                for fmask in faults[::4]:
                    assert fmask.bit_count() == target
                    assert fmask & 1 or not target


@pytest.mark.parametrize(
    "graph, target, trials, first",
    [
        ("ug5", 12, 2 * TRIAL_BLOCK, (0, 1)),
        ("ug5", 11, 2 * TRIAL_BLOCK, None),
        ("mb4", 7, 2 * TRIAL_BLOCK, None),
        ("mb4", 8, 2 * TRIAL_BLOCK, (0, 1)),
        ("ug5", 11, TRIAL_BLOCK + 1, None),
        # uniform subsets only: the first hit sits in a later block
        ("bare mb4", 8, 8 * TRIAL_BLOCK, (3, 300)),
    ],
)
def test_falsifier_witness_is_the_first_replayed_hit(
    request, graph, target, trials, first
):
    g = request.getfixturevalue(graph.removeprefix("bare "))
    if graph.startswith("bare "):
        g = g.dense
    replay = _replay_first_hit(g, target, trials, 0)
    for workers in (1, 2):
        w = randomized_cut_falsifier(g, target, trials, seed=0, workers=workers)
        if first is None:
            assert replay is None and w is None
        else:
            assert replay[:2] == first
            assert w.fault == replay[2] and len(w.fault) == target
            assert w.scanned == first[0] * TRIAL_BLOCK + first[1] + 1


def test_falsifier_blocks_do_not_depend_on_their_length(ug5):
    # the partial last block draws the prefix of the same block in a longer run
    short = _falsifier_draw(ug5, 11, TRIAL_BLOCK + 1, 0)
    assert [len(short(block)) for block in range(2)] == [TRIAL_BLOCK, 1]
    longer = _falsifier_draw(ug5, 11, 2 * TRIAL_BLOCK, 0)
    assert short(1) == longer(1)[:1]


def test_falsifier_kernel_takes_each_distinct_set_of_a_block_once(ug5, monkeypatch):
    seen = []
    real = cuts._disconnected

    def kernel(neighbors, order, faults, *apart):
        seen.append(list(faults))
        return real(neighbors, order, faults, *apart)

    monkeypatch.setattr(cuts, "_disconnected", kernel)
    draw = _falsifier_draw(ug5, 11, TRIAL_BLOCK, 0)
    assert _falsify_block(ug5.dense, draw, {}, 0) is None
    distinct = list(dict.fromkeys(draw(0)))
    assert seen == [distinct] and len(distinct) < TRIAL_BLOCK


def test_falsifier_memo_tests_each_flagged_set_once(ug5, monkeypatch):
    # block 0 flags 30 distinct sets and blocks 1-3 repeat them, so with
    # one memo, as in a worker, the exact test runs 30 times in all
    tested = []
    real = cuts._two_cyclic_components

    def exact(masks, alive):
        tested.append(alive)
        return real(masks, alive)

    monkeypatch.setattr(cuts, "_two_cyclic_components", exact)
    draw = _falsifier_draw(ug5, 11, 4 * TRIAL_BLOCK, 0)
    memo = {}
    counts = []
    for block in range(4):
        assert _falsify_block(ug5.dense, draw, memo, block) is None
        counts.append(len(tested))
    assert counts == [30, 30, 30, 30]


# Controls with a known cyclic cut at the falsifier's target.  Its
# strategies other than uniform sets grow and trim 4-cycle boundaries and
# small blobs, so a cut that is not built from a 4-cycle is a blind spot.


@pytest.fixture(scope="module")
def star5():
    return build_cayley(parse_spec("star:5"))


def _six_cycle_boundary(G: CayleyGraph) -> tuple[int, ...]:
    """N(C6) for the 6-cycle through 0 of the generators (1 2) and (1 3)."""
    p, cycle = G.perms[0], []
    for i in range(6):
        cycle.append(G.vertex(p))
        p = apply_swap(p, 1, 3 if i % 2 else 2)
    assert G.vertex(p) == 0 and len(set(cycle)) == 6
    return vertex_boundary(G, cycle)


def test_star5_six_cycle_boundary_is_a_cyclic_cut_of_12(star5):
    cut = _six_cycle_boundary(star5)
    analysis = component_analysis(star5.dense, cut)
    assert len(cut) == 12 and is_cyclic_cut(star5, cut)
    assert sorted(c.vertices for c in analysis.components) == [6, 102]


@pytest.mark.xfail(
    strict=True,
    reason="star:5 has no 4-cycle, so every trial is a uniform set through 0 "
    "and none hits the 12-vertex N(C6)",
)
def test_falsifier_finds_the_star5_six_cycle_cut(star5):
    assert randomized_cut_falsifier(star5, 12, RANDOM_TRIALS, seed=1) is not None


def test_falsifier_finds_the_bubble5_four_cycle_cut():
    G = build_cayley(parse_spec("bubble:5"))
    witness = randomized_cut_falsifier(G, 8, RANDOM_TRIALS, seed=1)
    assert witness is not None and witness.size == 8
    assert is_cyclic_cut(G, witness.fault)


@pytest.mark.parametrize("trials", ["miss hit miss hit", "miss miss hit miss hit"])
def test_falsifier_hit_maps_to_its_first_trial(mb4, monkeypatch, trials):
    hit = _mask_of(build_cycle_neighborhood_cut(mb4, canonical_four_cycle(mb4)))
    miss = mb4.dense.masks[0]  # N(0) cuts off vertex 0 alone: no cyclic cut
    assert is_cyclic_cut(mb4, _mask_members(hit))
    faults = [{"miss": miss, "hit": hit}[t] for t in trials.split()]
    first = faults.index(hit)
    monkeypatch.setattr(cuts, "_block_faults", lambda *args: faults)
    row = (0, first, _mask_members(hit))
    assert _falsify_block(mb4.dense, cuts._block_faults, {}, 0) == row
    w = randomized_cut_falsifier(mb4, 8, len(faults), seed=0, workers=1)
    assert w.scanned == first + 1 and w.fault == _mask_members(hit)


def test_searches_skip_the_empty_fault_on_a_disconnected_graph():
    """Two disjoint 4-cycles: removing nothing leaves two cyclic components."""
    square = ((1, 3), (0, 2), (1, 3), (0, 2))
    g = DenseGraph(square + tuple(tuple(v + 4 for v in ns) for ns in square))
    assert randomized_cut_falsifier(g, 0, 10, workers=1) is None
    assert min_cyclic_cut_exhaustive(g, 2) is None


def test_searches_find_a_cyclic_cut_whose_sides_are_triangles():
    """Triangles 0-1-2 and 4-5-6 joined through the cut vertex 3.

    Removing 3 leaves two cyclic components of exactly 3 vertices each, so
    a kernel that asks for more survivors outside its start misses it.
    """
    g = DenseGraph(((1, 2), (0, 2), (0, 1, 3), (2, 4), (3, 5, 6), (4, 6), (4, 5)))
    assert is_cyclic_cut(g, (3,))
    w = min_cyclic_cut_exhaustive(g, 3)
    assert (w.fault, w.scanned) == ((3,), 4)
    w = randomized_cut_falsifier(g, 1, 100, seed=0, workers=1)
    assert w is not None and w.fault == (3,)


def test_falsifier_rejects_bad_targets_and_seeds(mb4):
    for target in (-2, 25):
        with pytest.raises(ValueError, match="target size"):
            randomized_cut_falsifier(mb4, target, 10, workers=1)
    with pytest.raises(ValueError, match="seed"):
        randomized_cut_falsifier(mb4, 8, 10, seed=-1, workers=1)
    with pytest.raises(ValueError, match="trials"):
        randomized_cut_falsifier(mb4, 8, 0, workers=1)
    with pytest.raises(ValueError, match="seed"):
        sampled_residual_check(mb4, max_size=4, trials=10, seed=-1)
    for max_size in (0, 25):
        with pytest.raises(ValueError, match="max size"):
            sampled_residual_check(mb4, max_size=max_size, trials=10)
    for trials in (0, -5):  # no trial is no evidence, not a pass
        with pytest.raises(ValueError, match="trials"):
            sampled_residual_check(mb4, 3, trials)


def test_falsifier_is_seed_deterministic_and_worker_invariant(mb4):
    a = randomized_cut_falsifier(mb4, 8, 8192, seed=5, workers=1)
    b = randomized_cut_falsifier(mb4, 8, 8192, seed=5, workers=3)
    assert a is not None and b is not None
    assert a.fault == b.fault
    c = randomized_cut_falsifier(mb4, 8, 8192, seed=6, workers=1)
    assert c is None or is_cyclic_cut(mb4, c.fault)


# --- witness rendering and worker resolution --------------------------------


def test_render_witness_format(mb4):
    w = min_cyclic_cut_exhaustive(mb4, 8)
    lines = render_witness(mb4, w).splitlines()
    assert lines[0] == "kind=cyclic-cut"
    assert lines[1] == "size=8"
    assert lines[2].startswith("graph=class=Cycle n=4")
    assert lines[3:] == [
        "1234", "1342", "2143", "2431", "3214", "3421", "4123", "4312",
    ]


def test_pools_start_no_more_workers_than_tasks(monkeypatch):
    fork = multiprocessing.get_context("fork")
    real = fork.Pool
    sizes = []

    def pool(processes, *args, **kwargs):
        sizes.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", pool)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    # the first task runs in-process, the rest on a pool
    assert _run(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert _run(abs, [-3], 8) == [3]  # one task runs in-process
    # the results end at the first that until accepts
    tasks = {0: None, 1: "a", 2: "b", 3: None}
    assert _run(tasks.get, [0, 3, 2, 1], 8, until=_hit) == [None, None, "b"]
    assert sizes == [2, 3]


def _two_rings(m: int) -> DenseGraph:
    """Two m-cycles joined by two paths through one vertex each, 2m and 2m+1.

    {2m, 2m+1} is its only cyclic cut of at most two vertices.
    """
    pairs = [(i, (i + 1) % m) for i in range(m)]
    pairs += [(m + i, m + (i + 1) % m) for i in range(m)]
    pairs += [(0, 2 * m), (2 * m, m), (m // 2, 2 * m + 1), (2 * m + 1, m + m // 2)]
    return _dense_of_nx(nx.Graph(pairs))


def test_pools_close_and_join_without_terminate(mb4, monkeypatch):
    """Early exits and full runs end their pools by close and join."""
    terminated = []
    real = multiprocessing.pool.Pool.terminate

    def terminate(self):
        terminated.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", terminate)
    starts = _counted_pools(monkeypatch)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    rings = _two_rings(30)
    runs = {
        # the first hit is trial 5063, in block 1 of 5: the pool's first result
        "falsifier hit": lambda: randomized_cut_falsifier(
            rings, 2, 5 * TRIAL_BLOCK, seed=5, workers=2
        ),
        "sampler, every block": lambda: sampled_residual_check(
            mb4, 4, 3 * TRIAL_BLOCK, workers=2
        ),
    }
    for i, (name, run) in enumerate(runs.items(), 1):
        assert run() is not None, name
        assert len(starts) == i, name
        assert terminated == [], name
        assert multiprocessing.active_children() == [], name


def _hit(row) -> bool:
    return row is not None


def _counted_task(ran, task):
    """task or None after a short sleep; counts the tasks that run, in any process."""
    with ran.get_lock():
        ran.value += 1
    time.sleep(0.02)
    if task == "raise":
        raise ArithmeticError("task failed")
    return task or None


def test_tasks_after_the_first_hit_are_skipped(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    ran = multiprocessing.get_context("fork").Value("i", 0)
    tasks = [""] * 3 + ["hit"] + [""] * 100
    rows = _run(partial(_counted_task, ran), tasks, 2, until=_hit)
    assert rows == [None] * 3 + ["hit"]
    assert ran.value < 20  # the 100 tasks after the hit return before they run
    assert multiprocessing.active_children() == []


def test_a_task_that_raises_reraises_in_the_parent(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    ran = multiprocessing.get_context("fork").Value("i", 0)
    tasks = [""] * 5 + ["raise"] + [""] * 10
    for until in (None, _hit):
        with pytest.raises(ArithmeticError, match="task failed"):
            _run(partial(_counted_task, ran), tasks, 2, until)
        assert multiprocessing.active_children() == []


def test_run_takes_a_closure_with_per_worker_state(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    memo = {}  # each worker fills its own copy

    def square(x):
        if x not in memo:
            memo[x] = x * x
        return x, memo[x]

    tasks = [3, 1, 3, 2, 1, 0, 2, 3] * 4
    pooled = _run(square, tasks, 2)
    assert memo == {3: 9}  # the first task ran in-process, the workers filled copies
    alone = _run(square, tasks, 1)
    assert alone == pooled == [(x, x * x) for x in tasks]
    assert memo == {0: 0, 1: 1, 2: 4, 3: 9}
    # the pool installed its task and stop event in the workers only, so an
    # in-process run never reads a stale stop event
    assert cuts._TASK is None and cuts._STOP is None
    assert multiprocessing.active_children() == []


def _counted_pools(monkeypatch) -> list[int]:
    """The worker counts of the fork pools started from here on, in order."""
    fork = multiprocessing.get_context("fork")
    real = fork.Pool
    sizes = []

    def pool(processes, *args, **kwargs):
        sizes.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", pool)
    return sizes


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool started")


def test_a_mb4_verify_starts_no_pool(mb4, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    alone = verify_all(mb4, workers=1, seed=1, budget=60).body_bytes()
    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", _no_pool)
    assert verify_all(mb4, workers=2, seed=1, budget=60).body_bytes() == alone


def test_exhaustive_scans_start_no_pool(ug5, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", _no_pool)
    # a first-hit search: the least cut is N(v) of a neighbour v of
    # vertex 0, at size 5
    sweep = verify_connected_under_removal(ug5, 5)
    assert not sweep.ok and sweep.counterexample == ug5.dense.neighbors[2]
    # the corrupted copy's p1 check is the same search, on the full graph
    bad = with_redirected_cross_edge(ug5)
    (c,) = verify_all(bad, workers=2, checks=["residue-bound-p1"]).checks
    assert c.verdict == FAIL and "counterexample" in c.detail


def test_tasks_after_the_first_go_to_one_pool(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    sizes = _counted_pools(monkeypatch)
    here = []  # the tasks that ran in this process

    def task(x):
        here.append(x)
        return x, x * x

    # one or two tasks run in-process
    assert _run(task, [3], 2) == [(3, 9)]
    assert _run(task, [3, 1], 2) == [(3, 9), (1, 1)]
    assert here == [3, 3, 1] and sizes == []
    # with three, the two after the first go to one pool of 2
    assert _run(task, [3, 1, 2], 2) == [(3, 9), (1, 1), (2, 4)]
    assert here == [3, 3, 1, 3] and sizes == [2]
    # one worker runs every task in-process
    assert _run(task, [3, 1, 2], 1) == [(3, 9), (1, 1), (2, 4)]
    assert here == [3, 3, 1, 3, 3, 1, 2] and sizes == [2]


def test_a_hit_in_the_first_task_starts_no_pool(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", _no_pool)
    tasks = {0: "hit", 1: None, 2: "b"}
    assert _run(tasks.get, [0, 1, 2], 2, until=_hit) == ["hit"]


def test_a_falsifier_block_drawn_after_the_stop_skips_the_kernel(mb4, monkeypatch):
    draw = _falsifier_draw(mb4, 8, TRIAL_BLOCK, 0)
    assert _falsify_block(mb4.dense, draw, {}, 0) is not None  # a cyclic cut

    def kernel(*args):
        raise AssertionError("the kernel ran after the stop")

    monkeypatch.setattr(cuts, "_disconnected", kernel)
    stop = threading.Event()
    stop.set()
    monkeypatch.setattr(cuts, "_STOP", stop)
    assert _falsify_block(mb4.dense, draw, {}, 0) is None


def test_resolve_workers(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert resolve_workers(5) == 5
    assert resolve_workers(None) == 8


def test_resolve_workers_caps_at_cpu_count(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert resolve_workers(64) == 2
    assert resolve_workers(0) == 1
    assert resolve_workers(None) == 2
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert resolve_workers(None) == 1


def test_make_witness_rejects_a_fault_that_does_not_cut(mb4):
    with pytest.raises(ValueError, match="does not disconnect"):
        _make_witness(mb4.dense, (0, 1, 2), "vertex-cut")
    isolating = tuple(mb4.neighbors[0])
    assert _make_witness(mb4.dense, isolating, "vertex-cut").size == 4
    with pytest.raises(ValueError, match="two cyclic components"):
        _make_witness(mb4.dense, isolating, "cyclic-cut")
