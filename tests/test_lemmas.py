"""Verification report plumbing: check registry, gating, budgets, determinism."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import multiprocessing
import operator

import pytest

from ugconn import build_cayley, cuts, flows, lemmas
from ugconn.cayley import with_redirected_cross_edge
from ugconn.perms import CapacityError
from ugconn.cli import parse_spec
from ugconn.lemmas import (
    CHECK_IDS,
    FAIL,
    PROVED,
    SAMPLED,
    SKIPPED,
    TOOL_VERSION,
    verify_all,
)

VERDICTS = {PROVED, SAMPLED, FAIL, SKIPPED}


def test_check_registry_is_fixed():
    assert len(CHECK_IDS) == 17
    assert len(set(CHECK_IDS)) == 17
    assert all("-" in cid and cid == cid.lower() for cid in CHECK_IDS)


def test_full_mb4_report_passes(mb4):
    rep = verify_all(mb4, workers=1, seed=0)
    assert rep.passed()
    assert rep.failures() == []
    assert [c.check_id for c in rep.checks] == list(CHECK_IDS)
    assert all(c.verdict in VERDICTS for c in rep.checks)
    ran = [c for c in rep.checks if c.verdict != SKIPPED]
    skipped = [c for c in rep.checks if c.verdict == SKIPPED]
    assert len(ran) == 16
    assert [c.check_id for c in skipped] == ["cyclic-cut-falsify"]
    # n=4 is small enough that nothing needs sampling
    assert all(c.verdict == PROVED for c in ran)


def test_full_mb4_pass_sweeps_each_set_once(mb4, monkeypatch):
    sets = []
    drawn = []
    walks = []
    real = cuts._disconnected_columns
    real_walk = cuts._components

    def kernel(neighbors, alive, *apart):
        # every scanned set leaves a survivor, the last one too, so the
        # highest bit of any column gives the number of sets
        sets.append(functools.reduce(operator.or_, alive).bit_length())
        return real(neighbors, alive, *apart)

    def walk(masks, alive):
        walks.append(alive)
        return real_walk(masks, alive)

    monkeypatch.setattr(cuts, "_disconnected_columns", kernel)
    monkeypatch.setattr(cuts, "_disconnected", lambda *args: drawn.append(args))
    monkeypatch.setattr(cuts, "_components", walk)
    rep = verify_all(mb4, workers=1, seed=0)
    assert rep.passed()
    # the census's 145,499 sets of size <= 7 through vertex 0, plus the
    # rest; cyclic-cut-exact takes the verified 4-cycle neighborhood and
    # sweeps no size-8 set
    assert sum(sets) == 145_776
    # nothing is drawn at random, so the mask front end never runs
    assert drawn == []
    # one component walk per census set that leaves 3 or more survivors
    # outside the component of its start, which also gives its cyclic
    # components; the sets that leave one or two are settled by popcount
    assert len(walks) == 55
    detail = {c.check_id: c.detail for c in rep.checks}["cyclic-cut-exact"]
    assert detail == {
        "cyclic_connectivity": 8,
        "expected": 8,
        "witness": ["1324", "1423", "2314", "2413", "3142", "3241", "4132", "4231"],
        "witness_components": [4, 4, 4, 4],
        "scanned": 145_499,
    }


@pytest.mark.parametrize(
    "broken", ["cycle lacks an edge", "not a cyclic cut", "a cyclic cut of size 9"]
)
def test_cyclic_cut_exact_searches_size_8_where_the_four_cycle_fails(
    mb4, monkeypatch, broken
):
    if broken == "cycle lacks an edge":
        assert not mb4.dense.adjacent(3, 0)
        monkeypatch.setattr(lemmas, "canonical_four_cycle", lambda G: (0, 1, 2, 3))
    else:
        if broken == "not a cyclic cut":
            # every 4-cycle of mb:4 has a cyclic-cut neighborhood, so the cut
            # handed on is N(0) and four more vertices: 8 that strand vertex 0
            fault = tuple(sorted({*mb4.dense.neighbors[0], 17, 18, 19, 20}))
            assert len(fault) == 8 and cuts.is_vertex_cut(mb4, fault)
            assert not cuts.is_cyclic_cut(mb4, fault)
        else:
            # N(C4) leaves four 4-cycles; one more vertex breaks one of them
            # and leaves a cyclic cut of size 9
            c4 = lemmas.canonical_four_cycle(mb4)
            cut = cuts.build_cycle_neighborhood_cut(mb4, c4)
            spare = next(v for v in range(mb4.order) if v not in cut)
            fault = tuple(sorted({*cut, spare}))
            assert len(fault) == 9 and cuts.is_cyclic_cut(mb4, fault)
        monkeypatch.setattr(lemmas, "build_cycle_neighborhood_cut", lambda G, c: fault)
    (c,) = verify_all(mb4, workers=1, checks=["cyclic-cut-exact"]).checks
    assert c.verdict == PROVED and c.scope.endswith(", then size 8")
    assert c.detail == {
        "cyclic_connectivity": 8,
        "expected": 8,
        # (0, 3, 7, 11, 14, 17, 18, 22), the least cyclic cut of size 8
        "witness": ["1234", "1342", "2143", "2431", "3214", "3421", "4123", "4312"],
        "witness_components": [8, 8],
        "scanned": 304_179,
    }


def _no_search(*args, **kwargs):
    raise AssertionError("cyclic-cut-exact ran the cut search")


def test_cyclic_cut_exact_names_the_small_cut_of_the_corrupted_graph(mb4, monkeypatch):
    bad = with_redirected_cross_edge(mb4)
    # the census found the 7-cut, so no search runs
    monkeypatch.setattr(lemmas, "min_cyclic_cut_exhaustive", _no_search)
    (c,) = verify_all(bad, workers=1, checks=["cyclic-cut-exact"]).checks
    cut = ["1342", "2134", "2431", "3124", "3421", "4213", "4312"]
    assert c.verdict == FAIL
    assert c.detail == {
        "cyclic_connectivity": 7,
        "expected": 8,
        "unexpected_small_cut": cut,
        "witness": cut,
        "witness_components": [4, 13],
        # every set of size <= 7, all of which the census swept
        "scanned": 536_154,
    }
    assert c.scope == (
        "exhaustive over all 536154 fault sets of size <= 7, "
        "least cyclic cut at size 7"
    )


def test_cyclic_cut_checks_share_one_four_cycle_neighborhood(mb4, monkeypatch):
    analyses = []
    real = cuts.component_analysis

    def analysis(dense, fault):
        analyses.append(tuple(fault))
        return real(dense, fault)

    monkeypatch.setattr(lemmas, "component_analysis", analysis)
    monkeypatch.setattr(cuts, "component_analysis", analysis)
    monkeypatch.setattr(lemmas, "min_cyclic_cut_exhaustive", _no_search)
    rep = verify_all(mb4, workers=1, checks=["cyclic-cut-exact", "cyclic-cut-upper"])
    exact, upper = rep.checks
    assert exact.verdict == upper.verdict == PROVED
    assert exact.detail["witness"] == upper.detail["fault"]
    # one component analysis of N(C4) serves both checks
    c4 = lemmas.canonical_four_cycle(mb4)
    assert analyses == [cuts.build_cycle_neighborhood_cut(mb4, c4)]


def test_cyclic_cut_exact_over_a_small_budget_is_skipped(mb4):
    # perfbench/test_perfbench.py::test_selected_headline_check_that_is_skipped_fails
    # needs this skip: the check's estimate must stay above 1.0
    (c,) = verify_all(mb4, workers=1, checks=["cyclic-cut-exact"], budget=1.0).checks
    assert c.verdict == SKIPPED


def test_connectivity_value_on_a_complete_graph_names_the_convention():
    G = build_cayley(parse_spec(["edges:1-2", "n=2"]))
    (c,) = verify_all(G, workers=1, checks=["connectivity-value"]).checks
    assert c.verdict == PROVED
    assert c.detail["complete_graph_convention"] is True
    assert c.detail["flows"] == 0
    assert c.scope == "complete graph on 2 vertices: kappa = |V|-1 by convention"


def test_report_serialization_shape(mb4):
    rep = verify_all(mb4, workers=1, checks=["cross-edge-count"])
    js = rep.to_jsonable(with_timing=False)
    assert js["schema"] == 1
    assert js["version"] == TOOL_VERSION
    assert js["seed"] == 0
    assert js["passed"] is True
    assert sorted(js["graph"]) == [
        "class", "degree", "descriptor", "edges", "n", "order",
    ]
    assert js["graph"]["class"] == "Cycle" and js["graph"]["order"] == 24
    (entry,) = js["checks"]
    assert sorted(entry) == ["detail", "gating", "id", "scope", "verdict"]
    timed = rep.to_jsonable(with_timing=True)
    assert all("millis" in c for c in timed["checks"])


def test_body_bytes_is_canonical_and_untimed(mb4):
    rep = verify_all(mb4, workers=1, checks=["cross-edge-count", "four-cycle-labels"])
    body = rep.body_bytes()
    decoded = json.loads(body)
    assert decoded == rep.to_jsonable(with_timing=False)
    assert b"millis" not in body
    assert body == json.dumps(decoded, sort_keys=True, separators=(",", ":")).encode()


def test_body_bytes_worker_invariant(mb4):
    picks = ["common-neighbor-bound", "cross-edge-count", "four-cycle-labels"]
    one = verify_all(mb4, workers=1, checks=picks)
    three = verify_all(mb4, workers=3, checks=picks)
    assert one.body_bytes() == three.body_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "graph, digest",
    [
        ("mb4", "9556ec1343a11d37"),
        ("corrupted mb4", "7e90ded9aa0c592b"),
        ("ug5", "83c92001ffa9fc5d"),
        ("corrupted ug5", "e822c13f041cd75a"),
    ],
)
def test_report_bodies_keep_their_digests(request, graph, digest, workers):
    """Every verdict, scope, count and witness of the mb:4 and ug:5:c=4 reports.

    The ug:5:c=4 reports pin the exploratory records; they leave out
    ``cyclic-cut-falsify``, whose 1M trials would take about 2 s each.
    """
    G = request.getfixturevalue(graph.split()[-1])
    if graph.startswith("corrupted"):
        G = with_redirected_cross_edge(G)
    checks = [c for c in CHECK_IDS if c != "cyclic-cut-falsify"] if G.n == 5 else None
    body = verify_all(G, workers=workers, seed=1, budget=60, checks=checks).body_bytes()
    assert hashlib.sha256(body).hexdigest()[:16] == digest


def test_check_selection_preserves_registry_order(mb4):
    rep = verify_all(mb4, workers=1, checks=["four-cycle-labels", "common-neighbor-bound"])
    assert [c.check_id for c in rep.checks] == [
        "common-neighbor-bound",
        "four-cycle-labels",
    ]


def test_unknown_check_id_is_rejected(mb4):
    with pytest.raises(ValueError) as err:
        verify_all(mb4, checks=["bogus-check"])
    assert "bogus-check" in str(err.value)
    assert "common-neighbor-bound" in str(err.value)


def test_empty_selection_and_bad_budgets_are_rejected(mb4):
    with pytest.raises(ValueError, match="no checks selected"):
        verify_all(mb4, checks=[])
    for budget in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="budget"):
            verify_all(mb4, budget=budget)
    assert len(verify_all(mb4, budget=0.0).checks) == len(CHECK_IDS)  # zero is a budget


def test_mb_scoped_checks_run_exploratory_on_ug5(ug5):
    picks = [
        "out-neighbor-disjoint",
        "out-neighbor-escape",
        "adjacent-pair-common-neighbor",
        "common-neighbor-triple",
    ]
    rep = verify_all(ug5, workers=1, checks=picks)
    by_id = {c.check_id: c for c in rep.checks}
    assert all(not c.gating for c in rep.checks)
    assert all("exploratory" in c.scope for c in rep.checks)
    # single out-neighbors are still pairwise distinct off the cycle family
    assert by_id["out-neighbor-disjoint"].verdict == PROVED
    # escape and the triple exclusion genuinely break on the pendant graph
    assert by_id["out-neighbor-escape"].verdict == FAIL
    assert by_id["common-neighbor-triple"].verdict == FAIL
    assert rep.passed()  # exploratory failures never gate


def test_common_neighbor_triple_gates_at_n4_only(mb4, mb5):
    (c4,) = verify_all(mb4, workers=1, checks=["common-neighbor-triple"]).checks
    assert c4.verdict == PROVED and c4.gating
    assert "exploratory" not in c4.scope
    rep = verify_all(mb5, workers=1, checks=["common-neighbor-triple"])
    (c5,) = rep.checks
    # two pairs of commuting generators share 45: 12345 has cn=2 with both
    # 13254 and 21354, and those two share the neighbor 12354
    assert c5.verdict == FAIL and not c5.gating
    assert c5.detail["violation"] == ["13254", "12345", "21354"]
    assert "{23,45} and {12,45}" in c5.scope
    assert rep.passed() and rep.failures() == []


def test_corrupted_adjacency_flips_gating_checks(mb4):
    bad = with_redirected_cross_edge(mb4)
    rep = verify_all(bad, workers=1, checks=["cross-edge-count", "out-neighbor-disjoint"])
    assert not rep.passed()
    assert set(rep.failures()) == {"cross-edge-count", "out-neighbor-disjoint"}
    assert all(c.gating and c.failed for c in rep.checks if c.verdict == FAIL)
    detail = {c.check_id: c.detail for c in rep.checks}["cross-edge-count"]
    assert detail["violation"] is not None


def test_family_scoped_checks_skip_on_star(star4):
    rep = verify_all(
        star4,
        workers=1,
        checks=["common-neighbor-bound", "connectivity-value", "cyclic-cut-exact"],
    )
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["common-neighbor-bound"].verdict == SKIPPED
    assert by_id["cyclic-cut-exact"].verdict == SKIPPED
    conn = by_id["connectivity-value"]
    assert conn.verdict == PROVED and conn.detail["kappa"] == 3
    assert rep.passed()


def test_checks_outside_their_scope_skip_with_the_reason(mb3, star4):
    # mb:3 is a triangle (class Other) and star:4 a tree: no check of the
    # unicyclic family applies, and kappa is stated for stars only.  A scope
    # is read before any price, so a budget of 0 skips the same checks with
    # the same scopes and only turns kappa on star:4 away as over budget.
    family = "stated for the unicyclic family only"
    blocks = "needs the block decomposition of the unicyclic family"
    cycle4 = "stated for the n=4 cycle generator only"
    scopes = {
        "common-neighbor-bound": family,
        "connectivity-value": "no stated connectivity value for this class",
        "cross-edge-count": blocks,
        "out-neighbor-disjoint": blocks,
        "out-neighbor-escape": "stated for the unicyclic family with n >= 4",
        "adjacent-pair-common-neighbor": family,
        "common-neighbor-triple": family,
        "small-cut-isolation": cycle4,
        "large-component-bound": cycle4,
        "four-subset-neighborhood": family,
        "residue-bound-p1": family,
        "residue-bound-p2": family,
        "four-cycle-labels": family,
        "block-boundary-degree": cycle4,
        "cyclic-cut-exact": family,
        "cyclic-cut-upper": "construction defined for the unicyclic family",
        "cyclic-cut-falsify": "falsification run targets n=5",
    }
    assert list(scopes) == list(CHECK_IDS)
    over = "estimated ~0.2s exceeds the remaining budget"
    for budget in (600.0, 0.0):
        for G, stated in ((mb3, set()), (star4, {"connectivity-value"})):
            rep = verify_all(G, workers=1, budget=budget)
            ran = stated if budget else set()
            assert {c.check_id for c in rep.checks if c.verdict != SKIPPED} == ran
            skipped = {c.check_id: c.scope for c in rep.checks if c.verdict == SKIPPED}
            assert skipped == {
                cid: over if cid in stated else s
                for cid, s in scopes.items()
                if cid not in ran
            }
            assert rep.passed()


def test_the_scope_table_has_one_row_per_check():
    assert list(lemmas._SCOPES) == list(CHECK_IDS)


def test_connectivity_detail_on_path(b4):
    rep = verify_all(b4, workers=1, checks=["connectivity-value"])
    (c,) = rep.checks
    assert c.verdict == PROVED
    assert c.detail["kappa"] == c.detail["expected"] == 3
    assert len(c.detail["minimum_cut"]) == 3
    # vertex 0 against one vertex at distance 2 per orbit of the
    # conjugations by Aut(T) and w -> w^-1: 2 of the 24 - 1 - 3 non-neighbors
    assert c.detail["flows"] == 2


def test_connectivity_value_is_proved_at_n6(mb6):
    rep = verify_all(mb6, workers=1, checks=["connectivity-value"])
    (c,) = rep.checks
    assert c.verdict == PROVED and c.gating
    assert c.detail["kappa"] == c.detail["expected"] == 6
    assert len(c.detail["minimum_cut"]) == 6
    # 82 orbits under Aut(T) alone, 66 with inversion, 3 of them at distance 2
    assert c.detail["flows"] == 3


def test_common_neighbor_checks_are_proved_at_n6(mb6):
    checks = ["common-neighbor-bound", "adjacent-pair-common-neighbor"]
    rep = verify_all(mb6, workers=1, checks=checks)
    bound, pair = rep.checks
    assert bound.verdict == pair.verdict == PROVED and bound.gating and pair.gating
    assert bound.detail["max_cn"] == 2
    assert bound.detail["attained_by"] == ["123456", "124365"]  # ranks 0 and 7
    assert "via the 719 that contain vertex 0" in bound.scope
    assert "via the 6 that contain vertex 0" in pair.scope


def test_four_subset_minimum_is_exact_at_n6(mb6):
    rep = verify_all(mb6, workers=2, checks=["four-subset-neighborhood"])
    (c,) = rep.checks
    assert c.verdict == PROVED and c.gating
    assert c.detail["min"] == c.detail["expected"] == 15  # 4n-9 is sharp at n=6
    assert c.detail["witness"] == ["123456", "123465", "124356", "213456"]
    assert c.detail["scanned"] == 61_690_919  # C(719, 3), the sets through vertex 0
    assert rep.passed()


def test_four_subset_check_starts_no_pool(ug5, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the four-subset scan started a pool")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", no_pool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    rep = verify_all(ug5, workers=2, checks=["four-subset-neighborhood"])
    (c,) = rep.checks
    assert c.verdict == PROVED and c.detail["min"] == 12
    assert rep.passed()


def test_budget_skips_expensive_checks(mb4):
    rep = verify_all(mb4, workers=1, budget=0.5)
    skipped = [c for c in rep.checks if c.verdict == SKIPPED]
    assert len(skipped) >= 10
    assert any("budget" in c.scope for c in skipped)
    assert rep.passed()  # skips never fail the run
    assert rep.to_jsonable(with_timing=False)["budget_seconds"] == 0.5


def test_text_table_summarizes_verdicts(mb4):
    rep = verify_all(mb4, workers=1, checks=["cross-edge-count"])
    table = rep.text_table()
    lines = table.splitlines()
    assert lines[0].startswith("graph: class=Cycle n=4")
    assert any("cross-edge-count" in ln and "PROVED-EXHAUSTIVE" in ln for ln in lines)
    assert lines[-1] == "PASS: 1 checks run, 0 skipped"

    bad = with_redirected_cross_edge(mb4)
    rep2 = verify_all(bad, workers=1, checks=["cross-edge-count"])
    assert rep2.text_table().splitlines()[-1].startswith("FAIL:")


def test_falsifier_check_skips_off_n5(mb4):
    rep = verify_all(mb4, workers=1, checks=["cyclic-cut-falsify"])
    (c,) = rep.checks
    assert c.verdict == SKIPPED
    assert "n=5" in c.scope or "5" in c.scope


def test_falsifier_check_counts_the_trials_up_to_a_hit(ug5):
    # the redirected edge opens a cyclic cut below 12 that trial 10 draws
    rep = verify_all(
        with_redirected_cross_edge(ug5), workers=1, checks=["cyclic-cut-falsify"]
    )
    (c,) = rep.checks
    assert c.verdict == FAIL and len(c.detail["counterexample"]) == 11
    assert c.detail["trials"] == 10
    assert c.scope == "10 seeded randomized trials at target 11"


def test_residue_bound_p2_is_an_exact_flow_certificate(mb4):
    rep = verify_all(mb4, workers=1, checks=["residue-bound-p2"])
    (c,) = rep.checks
    assert c.verdict == PROVED and c.gating
    d = c.detail
    assert (d["edge_separation"], d["max_cn"], d["degree"], d["bound"]) == (6, 2, 4, 5)
    assert d["flows"] > 0 and len(d["minimum_cut"]) == 6
    assert "counterexample" not in d


def test_residue_bound_p2_names_the_separated_edges(mb4):
    # the redirected edge lets five vertices split off a two-vertex side
    bad = with_redirected_cross_edge(mb4)
    rep = verify_all(bad, workers=1, checks=["residue-bound-p2"])
    (c,) = rep.checks
    assert c.verdict == FAIL and rep.failures() == ["residue-bound-p2"]
    cx = c.detail["counterexample"]
    assert len(cx["fault"]) == c.detail["edge_separation"] <= c.detail["bound"]
    assert cx["residual"] >= 2
    assert len(cx["separated_edges"]) == 2
    # every edge pair counts on a graph that is not vertex-transitive
    assert c.detail["edge_separation"] == 5
    assert "not vertex-transitive" in c.scope


def test_connectivity_value_fails_on_the_corrupted_graph(mb4):
    # a source fixed at vertex 0 would read an upper bound only
    rep = verify_all(with_redirected_cross_edge(mb4), workers=1, checks=["connectivity-value"])
    (c,) = rep.checks
    assert c.verdict == FAIL and c.detail["kappa"] == 3 < c.detail["expected"]
    assert "not vertex-transitive" in c.scope


def test_four_subset_scans_every_set_on_the_corrupted_graph(mb4):
    rep = verify_all(
        with_redirected_cross_edge(mb4), workers=1, checks=["four-subset-neighborhood"]
    )
    (c,) = rep.checks
    assert c.verdict == FAIL and c.detail["min"] == 7 < c.detail["expected"]
    assert c.detail["scanned"] == math.comb(24, 4)
    assert c.scope == "exhaustive over all 10626 four-subsets"


def test_residue_bound_p2_names_the_stranded_vertices(mb4, monkeypatch):
    # pretend a pair shares three neighbors: its union of neighborhoods
    # then fits in the size bound and becomes the counterexample
    import ugconn.lemmas as lemmas

    real_cn, pair = lemmas.max_common_neighbors(mb4.dense)
    assert real_cn == 2
    monkeypatch.setattr(lemmas, "max_common_neighbors", lambda dense: (3, pair))
    rep = verify_all(mb4, workers=1, checks=["residue-bound-p2"])
    (c,) = rep.checks
    assert c.verdict == FAIL
    cx = c.detail["counterexample"]
    assert cx["stranded_vertices"] == [mb4.perm_str(v) for v in pair]
    assert cx["residual"] == 2 and len(cx["fault"]) == 6


#: the checks that read the neighbor bitmasks on ug:5:c=4: the four-subset
#: scan, the p1 sweep (order <= 120) and the falsifier
MASK_CHECKS = [
    "four-subset-neighborhood",
    "residue-bound-p1",
    "cyclic-cut-exact",
    "cyclic-cut-falsify",
]

#: the checks on ug:5:c=4 that build on common neighbors and 4-cycles, which
#: they read off the neighbor lists
NEIGHBOR_LIST_CHECKS = [
    "common-neighbor-bound",
    "adjacent-pair-common-neighbor",
    "common-neighbor-triple",
    "residue-bound-p2",
    "four-cycle-labels",
]


def _no_flows(*args):
    raise AssertionError("a flow ran")


def _records(rep):
    return [(c.check_id, c.verdict, c.scope, c.detail) for c in rep.checks]


def test_residue_bound_p1_skips_without_bitmasks(monkeypatch):
    # beyond MASK_ORDER_LIMIT the bitmasks are not built; a check that reads
    # them raises CapacityError, and verify_all reports it as SKIPPED
    import ugconn.cayley as cayley

    spec = parse_spec("ug:5:c=4")
    expected = verify_all(build_cayley(spec), workers=1, checks=NEIGHBOR_LIST_CHECKS)
    monkeypatch.setattr(cayley, "MASK_ORDER_LIMIT", 100)
    ug5 = build_cayley(spec)  # a fresh graph: masks not built yet
    # the checks on neighbor lists run as they do at the default limit
    rep = verify_all(ug5, workers=1, checks=NEIGHBOR_LIST_CHECKS)
    assert _records(rep) == _records(expected)
    assert SKIPPED not in [c.verdict for c in rep.checks]
    with pytest.raises(CapacityError):
        ug5.dense.masks
    monkeypatch.setattr(flows, "_unit_flow", _no_flows)
    # the falsifier's estimate is the whole budget: a skip must spend none
    rep = verify_all(ug5, workers=1, checks=MASK_CHECKS, budget=5.0)
    assert [c.check_id for c in rep.checks] == MASK_CHECKS
    for c in rep.checks:
        assert c.verdict == SKIPPED, c.check_id
        assert c.scope == "bitmasks unavailable beyond order 100", c.check_id
    assert rep.passed()


def test_mask_checks_run_at_the_mask_limit(monkeypatch):
    import ugconn.cayley as cayley

    ug5 = build_cayley(parse_spec("ug:5:c=4"))
    monkeypatch.setattr(cayley, "MASK_ORDER_LIMIT", ug5.order)
    rep = verify_all(ug5, workers=2, checks=MASK_CHECKS)
    assert [c.verdict for c in rep.checks if c.verdict == SKIPPED] == []
    assert rep.passed()


def test_residue_bound_p1_samples_from_n6(ug6, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    fork = multiprocessing.get_context("fork")
    real, sizes = fork.Pool, []

    def pool(processes, *args, **kwargs):
        sizes.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", pool)
    rep = verify_all(ug6, workers=2, checks=["residue-bound-p1"])
    (c,) = rep.checks
    assert c.verdict == SAMPLED and c.scope == "sampled fault sets of size <= 5"
    assert c.detail == {"trials": 100_000, "templates": 0, "seed": 0, "violations": 0}
    # the 25 trial blocks: the first in-process, the rest on one pool of 2
    assert sizes == [2]
    # the corrupted copy has one vertex of degree n-1, whose neighborhood
    # the templates find
    bad = with_redirected_cross_edge(ug6)
    (u_out,) = [v for v in range(bad.order) if len(bad.dense.neighbors[v]) == 5]
    rep = verify_all(bad, workers=2, checks=["residue-bound-p1"])
    (c,) = rep.checks
    assert c.verdict == FAIL and not rep.passed()
    assert c.detail["templates"] == 1 and c.detail["violations"] >= 1
    assert c.detail["counterexample"] == [
        bad.perm_str(v) for v in bad.dense.neighbors[u_out]
    ]
    # the templates come from the neighbor lists, not the bitmasks
    import ugconn.cayley as cayley

    monkeypatch.setattr(cayley, "MASK_ORDER_LIMIT", 100)
    bad = with_redirected_cross_edge(ug6)
    with pytest.raises(CapacityError):
        bad.dense.masks
    unmasked = verify_all(bad, workers=2, checks=["residue-bound-p1"])
    assert _records(unmasked) == _records(rep)


def test_residue_bound_p2_is_proved_at_n7():
    mb7 = build_cayley(parse_spec("mb:7"))
    rep = verify_all(mb7, workers=1, checks=["residue-bound-p2"])
    (c,) = rep.checks
    assert c.verdict == PROVED and c.gating
    d = c.detail
    assert (d["edge_separation"], d["max_cn"], d["degree"], d["bound"]) == (12, 2, 7, 11)
    assert d["flows"] == 122 and len(d["minimum_cut"]) == 12


def test_residue_bound_p2_is_proved_at_n8():
    # max_cn reads the neighbor lists, so p2 runs where no bitmasks are built
    mb8 = build_cayley(parse_spec("mb:8"))
    rep = verify_all(mb8, workers=1, checks=["residue-bound-p2"])
    (c,) = rep.checks
    assert c.verdict == PROVED and c.gating
    d = c.detail
    assert (d["edge_separation"], d["max_cn"], d["degree"], d["bound"]) == (14, 2, 8, 13)
    assert d["flows"] == 188 and len(d["minimum_cut"]) == 14


def test_flow_checks_without_the_symmetry_are_priced_from_measured_costs(
    mb6, monkeypatch
):
    # the corrupted mb:6 runs the Even-family flows: kappa_1 took 48 s there
    monkeypatch.setattr(flows, "_unit_flow", _no_flows)
    bad = with_redirected_cross_edge(mb6)
    rep = verify_all(bad, workers=1, checks=["residue-bound-p2"], budget=30)
    (c,) = rep.checks
    assert c.verdict == SKIPPED
    assert c.scope == "estimated ~50s exceeds the remaining budget"
    (c,) = verify_all(bad, workers=1, checks=["connectivity-value"], budget=4).checks
    assert c.scope == "estimated ~5s exceeds the remaining budget"


def _no_scan(*args):
    raise AssertionError("the four-subset scan ran")


def test_four_subset_scan_without_the_symmetry_is_priced_from_its_measured_cost(
    mb4, mb5, mb6, monkeypatch
):
    # the corrupted mb:6 scans every 4-set: 26 s, where the copies of mb:4
    # and mb:5 take <= 0.1 s; mb:7 is out of the check's scope, so its copy
    # is never priced and skips with its scope even at a budget of 0
    monkeypatch.setattr(lemmas, "min_neighborhood_over_4subsets", _no_scan)
    bad = with_redirected_cross_edge(mb6)
    check = ["four-subset-neighborhood"]
    (c,) = verify_all(bad, workers=1, checks=check, budget=30).checks
    assert c.verdict == SKIPPED
    assert c.scope == "estimated ~40s exceeds the remaining budget"
    for g in (mb4, mb5):
        bad = with_redirected_cross_edge(g)
        assert lemmas._scope_and_price(check[0], bad) == (None, 0.2)
    bad = with_redirected_cross_edge(build_cayley(parse_spec(["mb:7"])))
    (c,) = verify_all(bad, workers=1, checks=check, budget=0).checks
    assert c.verdict == SKIPPED
    assert c.scope == "four-subset scan defined for n in 4..6"
