"""Exact cyclic connectivity by the split into its two cases.

The n=4 exhaustive search (``min_cyclic_cut_exhaustive``) is the oracle;
the n=5 values and work counts are pinned, so a plan that drops a pair of
4-cycles or a bound that prunes a live side fails here.
"""

from __future__ import annotations

import json

import pytest

from ugconn import build_cayley
from ugconn.cayley import DenseGraph, with_redirected_cross_edge
from ugconn.cli import main, parse_spec
from ugconn.cuts import is_cyclic_cut, min_cyclic_cut_exhaustive
from ugconn.cyclic import (
    _four_cycle_free_side,
    _four_cycle_separation,
    _four_cycles,
    cyclic_connectivity,
)
from ugconn.lemmas import PROVED, verify_all


def _graph(spec: str, corrupt: bool = False):
    G = build_cayley(parse_spec(spec.split()))
    return with_redirected_cross_edge(G) if corrupt else G


@pytest.mark.parametrize(
    "spec, corrupt, value",
    [
        ("mb:4", False, 8),
        ("edges:1-2,2-4,4-3,3-1 n=4", False, 8),
        ("bubble:4", False, 4),
        ("mb:4", True, 7),
    ],
    ids=["mb:4", "relabelled-C4", "bubble:4", "corrupt-mb:4"],
)
def test_n4_values_match_the_exhaustive_search(spec, corrupt, value):
    G = _graph(spec, corrupt)
    answer = cyclic_connectivity(G)
    assert answer.value == min_cyclic_cut_exhaustive(G, 8).size == value
    assert answer.witness.size == value
    assert is_cyclic_cut(G, answer.witness.fault)


def test_each_half_alone_reaches_8_on_mb4(mb4):
    cycles, through = _four_cycles(mb4)
    sep = _four_cycle_separation(mb4, cycles)
    assert (sep.value, sep.flows) == (8, 3)
    assert is_cyclic_cut(mb4, sep.cut)
    side, _ = _four_cycle_free_side(mb4, through, 8)
    assert side is not None and len(side) == 8
    assert is_cyclic_cut(mb4, side)
    assert _four_cycle_free_side(mb4, through, 7)[0] is None


@pytest.mark.parametrize(
    "spec, value, flows, nodes",
    [
        ("ug:5:c=4", 12, 170, 20761),
        ("mb:5", 12, 105, 11285),
        ("ug:5:c=5", 12, 105, 11285),
        ("bubble:5", 8, 146, 1927),
    ],
    ids=["ug:5:c=4", "mb:5", "ug:5:c=5", "bubble:5"],
)
def test_n5_values_and_work(spec, value, flows, nodes):
    G = _graph(spec)
    answer = cyclic_connectivity(G)
    assert (answer.value, answer.case, answer.flows, answer.nodes) == (
        value,
        "a",
        flows,
        nodes,
    )
    analysis = answer.witness.analysis
    assert analysis.cyclic_component_count() >= 2
    assert answer.witness.fault == tuple(sorted(answer.witness.fault))


@pytest.mark.parametrize("spec, k", [("mb:4", 7), ("mb:4", 8), ("bubble:4", 8)])
def test_every_anchor_search_agrees_with_the_vertex_0_search(spec, k):
    G = _graph(spec)
    bare = DenseGraph(G.neighbors)
    from_0, _ = _four_cycle_free_side(G, _four_cycles(G)[1], k)
    from_all, _ = _four_cycle_free_side(bare, _four_cycles(bare)[1], k)
    assert (from_0 is None) == (from_all is None)
    if from_0 is not None:
        assert len(from_0) == len(from_all)
        assert is_cyclic_cut(bare, from_all)


def test_corrupt_ug5_has_a_smaller_cut_with_a_side_without_a_4_cycle():
    G = _graph("ug:5:c=4", corrupt=True)
    answer = cyclic_connectivity(G)
    assert (answer.value, answer.case) == (10, "b")
    assert is_cyclic_cut(G, answer.witness.fault)
    # the cyclic side is a triangle that the redirected edge closes
    assert min(c.vertices for c in answer.witness.analysis.components) == 3
    sep = _four_cycle_separation(G, _four_cycles(G)[0])
    assert (sep.value, sep.flows) == (11, 957)


def test_graphs_without_4_cycles_are_refused(star4):
    with pytest.raises(ValueError, match="lies on no 4-cycle"):
        cyclic_connectivity(star4)


def test_verify_fails_corrupt_ug5_with_a_10_vertex_witness(capsys):
    code = main(
        ["verify", "--spec", "ug:5:c=4", "--corrupt", "--checks", "cyclic-cut-exact"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "failing: cyclic-cut-exact" in captured.err
    (check,) = json.loads(captured.out)["checks"]
    assert check["verdict"] == "FAIL"
    detail = check["detail"]
    assert (detail["cyclic_connectivity"], detail["case"]) == (10, "b")
    assert len(detail["witness"]) == 10
    assert detail["unexpected_small_cut"] == detail["witness"]


def test_the_check_proves_kappa_c_on_ug5_from_the_split(ug5):
    (check,) = verify_all(ug5, workers=1, checks=["cyclic-cut-exact"]).checks
    assert check.verdict == PROVED
    detail = check.detail
    assert detail["cyclic_connectivity"] == detail["expected"] == 12
    assert (detail["case"], detail["flows"], detail["nodes"]) == ("a", 170, 20761)
    assert len(detail["witness"]) == 12 and "unexpected_small_cut" not in detail
    assert detail["witness_components"] == [4, 104]
    assert "(170 flows)" in check.scope and "(20761 search nodes)" in check.scope
