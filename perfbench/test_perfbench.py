"""Tests of the benchmark's own machinery: output checks, spans, contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ugconn  # noqa: E402
import ugconn.cli  # noqa: E402
from ugconn.cayley import with_redirected_cross_edge  # noqa: E402

import baseline  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402

MB4 = W.WORKLOADS["verify-mb4"]
N6 = W.WORKLOADS["connectivity-n6"]


@pytest.fixture(scope="module")
def mb4():
    return ugconn.build_cayley(ugconn.cli.parse_spec("mb:4"))


def test_negative_control_counts_both_failing_checks(mb4):
    checks = ["cross-edge-count", "out-neighbor-disjoint"]
    report = ugconn.verify_all(with_redirected_cross_edge(mb4), workers=1, checks=checks)
    outcome = W.check_verify_report(report, MB4, checks)
    assert outcome.attempted == 2
    assert outcome.failed == set(checks)


def test_correct_graph_passes_the_same_checks(mb4):
    checks = ["cross-edge-count", "out-neighbor-disjoint"]
    outcome = W.check_verify_report(ugconn.verify_all(mb4, workers=1, checks=checks), MB4, checks)
    assert (outcome.attempted, outcome.failures, outcome.proved) == (2, [], 2)


def test_selected_headline_check_that_is_skipped_fails(mb4):
    # an out-of-budget cyclic-cut-exact comes back SKIPPED
    checks = ["cyclic-cut-exact"]
    report = ugconn.verify_all(mb4, workers=1, checks=checks, budget=1.0)
    outcome = W.check_verify_report(report, MB4, checks)
    assert outcome.failures == ["cyclic-cut-exact: headline check did not run"]


def test_changed_body_for_the_same_seed_is_a_failed_op(mb4):
    checks = ["cross-edge-count", "four-cycle-labels"]
    outcome = W.check_verify_report(ugconn.verify_all(mb4, workers=1, checks=checks), MB4, checks)
    reference = dict(outcome.digests, **{"four-cycle-labels": "0" * 64})
    W.compare_digests(outcome, reference)
    assert outcome.failures == ["four-cycle-labels: canonical body differs for the same seed"]
    assert outcome.failed == {"four-cycle-labels"}


def test_op_with_two_failure_messages_fails_once(mb4):
    checks = ["cyclic-cut-exact"]
    report = ugconn.verify_all(mb4, workers=1, checks=checks)
    wrong = W.Workload(
        name="t", why="", specs=("mb:4",), pass_seconds=1.0,
        headlines={"cyclic-cut-exact": lambda d: False},
    )
    outcome = W.check_verify_report(report, wrong, checks)
    W.compare_digests(outcome, {"cyclic-cut-exact": "0" * 64})
    assert len(outcome.failures) == 2
    assert (outcome.attempted, outcome.failed) == (1, {"cyclic-cut-exact"})


def test_raising_pass_fails_every_selected_op():
    runner = run.Runner(MB4, 1, None)

    def boom(tracer):
        raise RuntimeError("injected")

    runner.request = boom
    _, _, outcome, answers, _ = runner.one_pass(None)
    assert answers is None
    assert outcome.attempted == len(runner.checks) == len(ugconn.CHECK_IDS)
    assert outcome.failed == set(runner.checks)


def test_cli_answers_need_kappa_and_a_cut_of_that_size():
    cut = ",".join(["123456"] * 6)
    answers = [
        ("mb:6", 0, f"kappa=6 cut={cut}\n"),
        ("ug:6:c=4", 0, "kappa=6 cut=123456\n"),
        ("ug:6:c=5", 1, ""),
    ]
    outcome = W.check_cli_answers(answers, N6)
    assert outcome.attempted == 3
    assert [f.split(": ")[0] for f in outcome.failures] == ["ug:6:c=4", "ug:6:c=5"]
    assert outcome.proved == 1


def test_self_times_add_up_to_the_root():
    tracer = Tracer("t")
    with tracer.span("pass") as root:
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    spans = tracer.subtree(root)
    own = self_times(spans)
    assert [sp.name for sp in spans] == ["pass", "a", "b", "c"]
    assert math.isclose(sum(own.values()), root.duration, rel_tol=1e-9, abs_tol=1e-12)
    assert all(v >= 0 for v in own.values())


def test_traced_pass_counts_work_and_restores_the_program(mb4):
    before = (ugconn.lemmas.vertex_connectivity_detail, ugconn.lemmas.CHECKS)
    tracer = Tracer("t")
    checks = ["connectivity-value", "four-subset-neighborhood", "four-cycle-labels"]
    with patched(layers.instrument(tracer, ugconn)):
        with tracer.span("pass") as root:
            with tracer.span("lemmas.verify_all"):
                report = ugconn.verify_all(mb4, workers=1, checks=checks)
    assert (ugconn.lemmas.vertex_connectivity_detail, ugconn.lemmas.CHECKS) == before
    m = layers.pass_metrics(tracer, root, report, span_cost=1e-6)
    assert m["cuts.four_subsets"] == math.comb(24, 4)
    assert m["cuts.flows"] == 24 - 1 - 4 + 1  # non-neighbours of 0, plus the cut
    assert m["cayley.four_cycles"] == 12
    assert m["trace_overhead_s"] == len(tracer.subtree(root)) * 1e-6
    accounted = sum(self_times(tracer.subtree(root)).values())
    assert math.isclose(accounted, m["trace_wall_s"], rel_tol=1e-9, abs_tol=1e-12)


def test_benchmark_json_matches_the_tables():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == baseline.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    check_metrics = {n for n in names if n.startswith("lemmas.check.")}
    assert check_metrics == {f"lemmas.check.{cid}_s" for cid in ugconn.CHECK_IDS}


def test_renamed_layer_fails_the_traced_run(monkeypatch):
    monkeypatch.delattr(ugconn.lemmas, "disconnection_census")
    with pytest.raises(AttributeError):
        layers.instrument(Tracer("t"), ugconn)
