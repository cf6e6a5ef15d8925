"""Generating-graph validation, classification, peel choice, relabeling."""

from __future__ import annotations

import itertools

import pytest

from ugconn.genset import (
    CLASSES,
    CYCLE,
    OTHER,
    OTHER_TREE,
    PATH,
    PEELABLE,
    STAR,
    UNICYCLIC_TF,
    GeneratingGraphError,
    automorphisms,
    build_generating_graph,
    choose_peel,
    classify,
    describe,
    relabel_to_canonical,
)


def test_class_constants_are_consistent():
    assert set(PEELABLE) == set(CLASSES) - {OTHER}
    assert UNICYCLIC_TF in PEELABLE


def test_classify_star_path_cycle():
    assert build_generating_graph(4, [(1, 2), (1, 3), (1, 4)]).cls == STAR
    assert build_generating_graph(4, [(1, 2), (2, 3), (3, 4)]).cls == PATH
    assert build_generating_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]).cls == CYCLE


def test_classify_other_tree_and_unicyclic():
    spider = build_generating_graph(5, [(1, 2), (1, 3), (1, 4), (4, 5)])
    assert spider.cls == OTHER_TREE
    tadpole = build_generating_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    assert tadpole.cls == UNICYCLIC_TF


def test_classify_edge_cases_for_tiny_n():
    # single edge is both the path and the star on two vertices
    two = build_generating_graph(2, [(1, 2)])
    assert two.cls in (STAR, PATH)


def test_unicyclic_with_triangle_is_rejected_by_default():
    with pytest.raises(GeneratingGraphError):
        build_generating_graph(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(GeneratingGraphError):
        build_generating_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])


def test_triangle_optin_classifies_as_other():
    tri = build_generating_graph(3, [(1, 2), (2, 3), (1, 3)], allow_triangle=True)
    assert tri.cls == OTHER
    k4 = build_generating_graph(
        4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], allow_triangle=True
    )
    assert k4.cls == OTHER


@pytest.mark.parametrize(
    "n,pairs",
    [
        (4, [(1, 2), (2, 3)]),  # disconnected
        (4, [(1, 1), (2, 3), (3, 4)]),  # loop
        (4, [(1, 2), (2, 3), (3, 4), (1, 2)]),  # duplicate
        (4, [(1, 2), (2, 3), (3, 5)]),  # label out of range
        (1, []),  # no edges cannot generate
    ],
)
def test_structural_validation_errors(n, pairs):
    with pytest.raises(GeneratingGraphError):
        build_generating_graph(n, pairs)


def test_edge_list_shape_errors():
    with pytest.raises(GeneratingGraphError, match="two endpoints"):
        build_generating_graph(4, [(1, 2, 3)])
    with pytest.raises(GeneratingGraphError, match="edge list is empty"):
        build_generating_graph(3, [])


def test_edges_are_normalized_and_sorted():
    g = build_generating_graph(4, [(4, 3), (2, 1), (3, 2)])
    assert g.edges == ((1, 2), (2, 3), (3, 4))


def test_classify_matches_build():
    g = build_generating_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    assert classify(g) == g.cls


def test_peel_prefers_a_pendant_far_from_the_cycle():
    tadpole = build_generating_graph(6, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6)])
    pc = choose_peel(tadpole)
    assert pc.position == 6
    assert pc.anchors == (5,)


def test_peel_on_cycle_uses_highest_position_with_two_anchors():
    c4 = build_generating_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    pc = choose_peel(c4)
    assert pc.position == 4
    assert pc.anchors == (1, 3)


def test_peel_on_path_and_star():
    p4 = build_generating_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert choose_peel(p4) == choose_peel(p4)
    assert choose_peel(p4).anchors == (3,)
    s4 = build_generating_graph(4, [(1, 2), (1, 3), (1, 4)])
    assert choose_peel(s4).position == 4
    assert choose_peel(s4).anchors == (1,)


def test_peel_rejects_class_other():
    tri = build_generating_graph(3, [(1, 2), (2, 3), (1, 3)], allow_triangle=True)
    with pytest.raises(GeneratingGraphError):
        choose_peel(tri)


def test_relabel_to_canonical_maps_edges_to_edges():
    g = build_generating_graph(5, [(2, 3), (3, 5), (5, 1), (1, 2), (1, 4)])
    canon, mapping = relabel_to_canonical(g)
    assert canon.cls == g.cls == UNICYCLIC_TF
    assert sorted(mapping) == [1, 2, 3, 4, 5]
    assert sorted(mapping.values()) == [1, 2, 3, 4, 5]
    relabeled = {tuple(sorted((mapping[a], mapping[b]))) for a, b in g.edges}
    assert relabeled == set(canon.edges)


def test_relabel_is_idempotent_on_canonical_input():
    g = build_generating_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    canon, mapping = relabel_to_canonical(g)
    assert canon.edges == g.edges
    assert all(mapping[k] == k for k in mapping)


def test_describe_is_one_line():
    g = build_generating_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    text = describe(g)
    assert "\n" not in text
    assert "Cycle" in text and "n=4" in text


@pytest.mark.parametrize(
    "spec, size",
    [("mb:4", 8), ("mb:5", 10), ("mb:6", 12), ("ug:5:c=4", 2), ("star:4", 6)],
)
def test_automorphism_counts(spec, size):
    from ugconn.cli import parse_spec

    g = parse_spec(spec)
    auts = automorphisms(g)
    assert len(auts) == size  # 2n on the n-cycle, the reflection on ug, S_3 on star
    assert auts[0] == tuple(range(1, g.n + 1))
    edges = set(g.edges)
    for sigma in auts:
        assert {tuple(sorted((sigma[a - 1], sigma[b - 1]))) for a, b in edges} == edges


def _brute_force_automorphisms(g):
    """The permutations of all n! that map the edge set onto itself, in order."""
    edges = set(g.edges)
    return tuple(
        sigma
        for sigma in itertools.permutations(range(1, g.n + 1))
        if all(
            (min(sigma[a - 1], sigma[b - 1]), max(sigma[a - 1], sigma[b - 1])) in edges
            for a, b in g.edges
        )
    )


@pytest.mark.parametrize(
    "spec",
    [f"mb:{n}" for n in range(4, 8)]
    + [f"ug:{n}:c={c}" for n in range(5, 8) for c in range(4, n + 1)]
    + [f"star:{n}" for n in range(4, 7)]
    + [f"bubble:{n}" for n in range(4, 7)]
    + ["edges:1-2,2-3,3-4,4-5,5-6,3-7 n=7"],
)
def test_automorphisms_match_the_brute_force_loop(spec):
    from ugconn.cli import parse_spec

    g = parse_spec(spec.split())
    auts = automorphisms(g)
    assert auts == _brute_force_automorphisms(g)
    if spec.startswith("edges:"):
        assert auts == (tuple(range(1, 8)),)  # arms of lengths 1, 2 and 3 at 3
