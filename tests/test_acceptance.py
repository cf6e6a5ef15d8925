"""Acceptance gate: ten headline claims, one PASS/FAIL line each.

Every line recorded here is echoed by the terminal summary under the
"acceptance criteria" section. Criteria 1-8 read from a shared payload
computed once with workers=1; the determinism criterion rebuilds the same
payload with workers=8 and compares the canonical JSON byte for byte.  The
exhaustive scans run in-process at any worker count; the seeded trial
blocks of the ug6 p1 sampler are what the replay runs on a pool.
Wall times are recorded for context only and never asserted, since worker
counts cannot speed anything up on a single-CPU host.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from conftest import record_acceptance
from ugconn.cayley import with_redirected_cross_edge
from ugconn.cuts import is_good_neighbor_cut, min_good_neighbor_cut_exhaustive
from ugconn.flows import vertex_connectivity_detail
from ugconn.lemmas import verify_all
from ugconn.perms import perm_string

PROVED = "PROVED-EXHAUSTIVE"
SAMPLED = "SUPPORTED-SAMPLED"

# Census checks per graph: the out-neighbor facts hold for the cycle
# generator only, and the 4-cycle label fact is asserted where stated.
CENSUS_CHECKS = {
    "mb4": [
        "common-neighbor-bound",
        "cross-edge-count",
        "out-neighbor-disjoint",
        "out-neighbor-escape",
        "block-boundary-degree",
        "four-cycle-labels",
    ],
    "mb5": [
        "common-neighbor-bound",
        "cross-edge-count",
        "out-neighbor-disjoint",
        "out-neighbor-escape",
    ],
    "ug5": [
        "common-neighbor-bound",
        "cross-edge-count",
        "four-cycle-labels",
    ],
}


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def snapshot(g, checks: list[str], workers: int) -> dict:
    return verify_all(g, workers=workers, checks=checks).to_jsonable(with_timing=False)


def by_id(report: dict) -> dict[str, dict]:
    return {c["id"]: c for c in report["checks"]}


def expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def finish(num: int, name: str, problems: list[str]) -> None:
    state = "FAIL" if problems else "PASS"
    record_acceptance(f"criterion-{num:02d} {name}: {state}")
    assert not problems, "; ".join(problems)


def build_payload(graphs: dict, workers: int) -> dict:
    """Every computation behind criteria 1 through 8, as one JSON-able dict."""
    mb4 = graphs["mb4"]
    payload = {
        "exact-cyclic-connectivity": snapshot(
            mb4, ["cyclic-cut-exact", "cyclic-cut-upper"], workers
        ),
        "upper-bound-witnesses": {
            name: snapshot(graphs[name], ["cyclic-cut-upper"], workers)
            for name in ("ug5", "mb5", "ug6", "mb6", "ug7")
        },
        "classical-connectivity": {
            name: snapshot(graphs[name], ["connectivity-value"], workers)
            for name in ("mb4", "mb5", "b3", "b4")
        },
        "four-subset-minimum": {
            name: snapshot(graphs[name], ["four-subset-neighborhood"], workers)
            for name in ("mb4", "mb5")
        },
        "small-cut-structure": snapshot(
            mb4, ["small-cut-isolation", "large-component-bound"], workers
        ),
        "structural-census": {
            name: snapshot(graphs[name], checks, workers)
            for name, checks in CENSUS_CHECKS.items()
        },
        "residual-bounds": {
            "mb4": snapshot(mb4, ["residue-bound-p2"], workers),
            "ug5": snapshot(
                graphs["ug5"], ["residue-bound-p1", "residue-bound-p2"], workers
            ),
            # 100k seeded trials in 25 blocks: the payload's pooled run
            "ug6": snapshot(graphs["ug6"], ["residue-bound-p1"], workers),
        },
    }
    # The triangle generating graph falls outside the graded families, so
    # the check registry has no stated value for it; call the flow directly.
    mb3 = graphs["mb3"]
    res = vertex_connectivity_detail(mb3)
    payload["classical-connectivity"]["mb3"] = {
        "kappa": res.value,
        "minimum_cut": None
        if res.cut is None
        else [perm_string(mb3.perms[v]) for v in res.cut],
    }
    # one pass, sizes ascending: a cut of size <= 7 would be the witness
    witness = min_good_neighbor_cut_exhaustive(mb4, 2, 8)

    def strs(fault):
        return [perm_string(mb4.perms[v]) for v in fault]

    payload["two-good-neighbor"] = {
        "cut_through_7": strs(witness.fault)
        if witness is not None and witness.size <= 7
        else None,
        "witness": None if witness is None else strs(witness.fault),
        "witness_kind": None if witness is None else witness.kind,
        "witness_verified": witness is not None
        and is_good_neighbor_cut(mb4, witness.fault, 2),
    }
    return payload


@pytest.fixture(scope="module")
def family(mb3, mb4, mb5, mb6, ug5, ug6, ug7, b3, b4):
    return {
        "mb3": mb3,
        "mb4": mb4,
        "mb5": mb5,
        "mb6": mb6,
        "ug5": ug5,
        "ug6": ug6,
        "ug7": ug7,
        "b3": b3,
        "b4": b4,
    }


@pytest.fixture(scope="module")
def payload(family):
    start = time.perf_counter()
    data = build_payload(family, workers=1)
    record_acceptance(
        f"[criteria 1-8 payload, workers=1: {time.perf_counter() - start:.1f}s]"
    )
    return data


def test_criterion_01_exact_cyclic_connectivity(payload):
    problems: list[str] = []
    checks = by_id(payload["exact-cyclic-connectivity"])
    exact = checks["cyclic-cut-exact"]
    detail = exact["detail"]
    covered = sum(math.comb(24, k) for k in range(1, 8))
    through_0 = sum(math.comb(23, k - 1) for k in range(1, 8))
    expect(problems, exact["verdict"] == PROVED, f"search verdict {exact['verdict']}")
    expect(
        problems,
        (covered, through_0) == (536154, 145499)
        and exact["scope"]
        == f"exhaustive over all {covered} fault sets of size <= 7, via the "
        f"{through_0} that contain vertex 0 (vertex-transitive), then the "
        "4-cycle neighborhood, a verified cyclic cut of size 8",
        f"search scope {exact['scope']!r}",
    )
    expect(
        problems,
        detail.get("scanned") == through_0,
        f"sets scanned {detail.get('scanned')}",
    )
    expect(
        problems,
        "unexpected_small_cut" not in detail,
        f"cyclic cut below 8: {detail.get('unexpected_small_cut')}",
    )
    expect(
        problems,
        detail.get("cyclic_connectivity")
        == detail.get("expected")
        == len(detail.get("witness") or [])
        == 8,
        f"value detail {detail}",
    )
    upper = checks["cyclic-cut-upper"]
    expect(
        problems,
        upper["verdict"] == PROVED
        and upper["detail"]["size"] == 8
        and upper["detail"]["is_cyclic_cut"],
        f"construction {upper['verdict']} {upper['detail'].get('size')}",
    )
    expect(
        problems,
        detail.get("witness") == upper["detail"].get("fault"),
        f"witness {detail.get('witness')} is not the verified construction",
    )
    finish(1, "exact-cyclic-connectivity-n4", problems)


def test_criterion_02_witness_sizes(payload):
    problems: list[str] = []
    arities = {"ug5": 5, "mb5": 5, "ug6": 6, "mb6": 6, "ug7": 7}
    for name, n in arities.items():
        rec = by_id(payload["upper-bound-witnesses"][name])["cyclic-cut-upper"]
        detail = rec["detail"]
        ok = (
            rec["verdict"] == PROVED
            and detail["size"] == 4 * n - 8 == detail["expected"]
            and detail["is_cyclic_cut"]
        )
        expect(
            problems,
            ok,
            f"{name}: {rec['verdict']} size={detail.get('size')} "
            f"cyclic={detail.get('is_cyclic_cut')}",
        )
    finish(2, "cycle-neighborhood-witnesses", problems)


def test_criterion_03_two_good_neighbor(payload):
    problems: list[str] = []
    res = payload["two-good-neighbor"]
    expect(
        problems,
        res["cut_through_7"] is None,
        f"2-good cut below 8: {res['cut_through_7']}",
    )
    expect(
        problems,
        res["witness"] is not None and len(res["witness"]) == 8,
        f"witness {res['witness']}",
    )
    expect(
        problems,
        res["witness_kind"] == "good-neighbor-cut(2)",
        f"witness kind {res['witness_kind']}",
    )
    expect(problems, res["witness_verified"], "witness failed re-verification")
    finish(3, "two-good-neighbor-connectivity-n4", problems)


def test_criterion_04_classical_connectivity(payload):
    problems: list[str] = []
    mb3 = payload["classical-connectivity"]["mb3"]
    expect(
        problems,
        mb3["kappa"] == 3 and len(mb3["minimum_cut"] or []) == 3,
        f"mb3: {mb3}",
    )
    expected = {"mb4": 4, "mb5": 5, "b3": 2, "b4": 3}
    for name, kappa in expected.items():
        rec = by_id(payload["classical-connectivity"][name])["connectivity-value"]
        detail = rec["detail"]
        ok = (
            rec["verdict"] == PROVED
            and detail["kappa"] == kappa == detail["expected"]
            and len(detail["minimum_cut"]) == kappa
        )
        expect(problems, ok, f"{name}: {rec['verdict']} {detail}")
    finish(4, "classical-connectivity", problems)


def test_criterion_05_four_subset_minimum(payload):
    problems: list[str] = []
    for name, n, order in (("mb4", 4, 24), ("mb5", 5, 120)):
        rec = by_id(payload["four-subset-minimum"][name])["four-subset-neighborhood"]
        detail = rec["detail"]
        through_0 = math.comb(order - 1, 3)
        ok = (
            rec["verdict"] == PROVED
            and rec["scope"]
            == f"exhaustive over all {math.comb(order, 4)} four-subsets, via the "
            f"{through_0} that contain vertex 0 (vertex-transitive)"
            and detail["min"] == 4 * n - 8 == detail["expected"]
            and len(detail["witness"]) == 4
            and detail["scanned"] == through_0
        )
        expect(problems, ok, f"{name}: {rec['scope']!r} {detail}")
    finish(5, "four-subset-neighborhood-minimum", problems)


def test_criterion_06_small_cut_structure(payload):
    problems: list[str] = []
    checks = by_id(payload["small-cut-structure"])
    iso = checks["small-cut-isolation"]
    expect(problems, iso["verdict"] == PROVED, f"isolation verdict {iso['verdict']}")
    for row in iso["detail"]["per_size"]:
        ok = row["disconnecting"] == row["isolating"]
        if row["size"] < 4:
            ok = ok and row["disconnecting"] == 0
        if row["size"] == 4:
            ok = ok and row["disconnecting"] == 24 == row["neighborhood_faults"]
        expect(problems, ok, f"isolation row {row}")
    bound = checks["large-component-bound"]
    expect(problems, bound["verdict"] == PROVED, f"bound verdict {bound['verdict']}")
    for row in bound["detail"]["per_size"]:
        limit = 2 if row["size"] <= 6 else 3
        expect(
            problems,
            row["limit"] == limit and row["max_residual"] <= limit,
            f"residual row {row}",
        )
    finish(6, "small-cut-isolation-and-residual", problems)


def test_criterion_07_structural_census(payload):
    problems: list[str] = []
    for name, wanted in CENSUS_CHECKS.items():
        report = payload["structural-census"][name]
        checks = by_id(report)
        expect(problems, report["passed"], f"{name} report failed")
        expect(
            problems,
            sorted(checks) == sorted(wanted),
            f"{name} ran {sorted(checks)}",
        )
        for cid, rec in checks.items():
            expect(
                problems,
                rec["verdict"] == PROVED and rec["gating"],
                f"{name}/{cid}: {rec['verdict']} gating={rec['gating']}",
            )
    finish(7, "structural-census", problems)


def test_criterion_08_residual_bounds(payload):
    problems: list[str] = []
    mb4 = by_id(payload["residual-bounds"]["mb4"])["residue-bound-p2"]
    expect(
        problems,
        mb4["verdict"] == PROVED
        and mb4["detail"]["bound"] == 5
        and mb4["detail"]["edge_separation"] == 6
        and mb4["detail"]["max_cn"] == 2
        and "counterexample" not in mb4["detail"],
        f"mb4 p=2: {mb4['verdict']} {mb4['detail']}",
    )
    ug5 = by_id(payload["residual-bounds"]["ug5"])
    p1 = ug5["residue-bound-p1"]
    covered = sum(math.comb(120, k) for k in range(1, 5))
    through_0 = sum(math.comb(119, k - 1) for k in range(1, 5))
    expect(
        problems,
        p1["verdict"] == PROVED
        and p1["detail"]["covered_fault_sets"] == covered
        and p1["detail"].get("scanned") == through_0 == 280960
        and p1["scope"].endswith(
            f", via the {through_0} that contain vertex 0 (vertex-transitive)"
        )
        and "mode" not in p1["detail"]
        and "counterexample" not in p1["detail"],
        f"ug5 p=1: {p1['verdict']} {p1['scope']!r} {p1['detail']}",
    )
    p2 = ug5["residue-bound-p2"]
    expect(
        problems,
        p2["verdict"] == PROVED
        and p2["detail"]["bound"] == 7
        and p2["detail"]["edge_separation"] == 8
        and p2["detail"]["max_cn"] == 2
        and len(p2["detail"]["minimum_cut"]) == 8
        and "counterexample" not in p2["detail"],
        f"ug5 p=2: {p2['verdict']} {p2['detail']}",
    )
    p1 = by_id(payload["residual-bounds"]["ug6"])["residue-bound-p1"]
    sampled = {"trials": 100_000, "templates": 0, "seed": 0, "violations": 0}
    expect(
        problems,
        p1["verdict"] == SAMPLED and p1["detail"] == sampled,
        f"ug6 p=1: {p1['verdict']} {p1['detail']}",
    )
    finish(8, "residual-outside-largest-component", problems)


def test_criterion_09_falsifier(ug5):
    start = time.perf_counter()
    report = verify_all(ug5, workers=1, checks=["cyclic-cut-falsify"])
    seconds = time.perf_counter() - start
    problems: list[str] = []
    rec = by_id(report.to_jsonable(with_timing=False))["cyclic-cut-falsify"]
    detail = rec["detail"]
    record_acceptance(
        f"[falsifier, workers=1: {seconds:.1f}s, "
        f"{detail.get('trials', 0) / seconds:,.0f} trials/s]"
    )
    expect(
        problems,
        rec["verdict"] == SAMPLED
        and detail["target"] == 11
        and detail["trials"] >= 1_000_000
        and "counterexample" not in detail,
        f"{rec['verdict']} {detail}",
    )
    expect(problems, report.passed(), "report did not pass")
    finish(9, "randomized-falsifier-below-12", problems)


def test_criterion_10_determinism_and_controls(payload, family):
    problems: list[str] = []
    start = time.perf_counter()
    replay = build_payload(family, workers=8)
    record_acceptance(
        f"[criteria 1-8 payload, workers=8: {time.perf_counter() - start:.1f}s]"
    )
    if canonical(payload) != canonical(replay):
        differing = [k for k in payload if canonical(payload[k]) != canonical(replay[k])]
        problems.append(f"worker counts disagree on: {differing}")
    bad = with_redirected_cross_edge(family["mb4"])
    control = verify_all(bad, workers=1, checks=["cross-edge-count", "out-neighbor-disjoint"])
    expect(problems, not control.passed(), "corrupted graph still passed")
    expect(
        problems,
        control.failures() == ["cross-edge-count", "out-neighbor-disjoint"],
        f"corrupted graph failures: {control.failures()}",
    )
    finish(10, "worker-determinism-and-negative-controls", problems)
