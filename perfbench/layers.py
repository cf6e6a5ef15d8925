"""Spans around the calls into ugconn's layers, and per-layer metrics.

The traced run replaces the names that ``ugconn.lemmas`` and ``ugconn.cli``
bind from ``ugconn.cayley`` and ``ugconn.cuts``, the check functions in
``ugconn.lemmas.CHECKS`` and the fork context's ``Pool``.  Counts are
taken at the same boundaries, from arguments and results only.
"""

from __future__ import annotations

import inspect
import math
import multiprocessing

from spans import Span, Tracer, self_times
from workloads import PER_LAYER, SKIPPED


def _dense(g):
    return g.dense if hasattr(g, "dense") else g


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def instrument(tracer: Tracer, ugconn) -> list:
    """(owner, attribute, traced value) triples for spans.patched."""
    lemmas, cli = ugconn.lemmas, ugconn.cli

    search = lemmas.min_cyclic_cut_exhaustive
    falsifier = lemmas.randomized_cut_falsifier

    def census(args, kwargs, res):
        g = _dense(args[0])
        return {"subsets": sum(e.subsets for e in res), "order": g.order, "top": len(res)}

    def cut_search(args, kwargs, res):
        g = _dense(args[0])
        top = res.size if res is not None else min(
            _arg(search, args, kwargs, "max_size"), g.order - 1
        )
        return {"calls": 1, "order": g.order, "top": top}

    def flows(args, kwargs, res):
        g = _dense(args[0])
        if res.complete:
            return {"flows": 0}
        return {"flows": g.order - 1 - len(g.neighbors[0]) + (res.cut is not None)}

    layer_calls = {
        "max_common_neighbors": ("cayley.cn_scan", None),
        "find_cn_triple_violation": ("cayley.cn_scan", None),
        "find_edge_cn_violation": ("cayley.cn_scan", None),
        "enumerate_4cycles": ("cayley.four_cycles", lambda a, k, r: {"four_cycles": len(r)}),
        "disconnection_census": ("cuts.census", census),
        "min_cyclic_cut_exhaustive": ("cuts.cut_search", cut_search),
        "min_neighborhood_over_4subsets": (
            "cuts.four_subset",
            lambda a, k, r: {"four_subsets": math.comb(_dense(a[0]).order, 4)},
        ),
        "verify_connected_under_removal": (
            "cuts.removal_sweep",
            lambda a, k, r: {"removal_sets": r.removals},
        ),
        "sampled_residual_check": (
            "cuts.residual_sample",
            lambda a, k, r: {"templates": r.templates, "trials": r.trials},
        ),
        "randomized_cut_falsifier": (
            "cuts.falsifier",
            lambda a, k, r: {"trials": _arg(falsifier, a, k, "trials")},
        ),
        "vertex_connectivity_detail": ("cuts.flow", flows),
    }
    # getattr raises if lemmas no longer binds a name, so a renamed layer
    # fails the traced run instead of reading 0 s
    out = [
        (lemmas, attr, tracer.wrap(getattr(lemmas, attr), name, count))
        for attr, (name, count) in layer_calls.items()
    ]
    out.append(
        (
            cli,
            "vertex_connectivity_detail",
            tracer.wrap(cli.vertex_connectivity_detail, "cuts.flow", flows),
        )
    )
    out.append((cli, "build_cayley", tracer.wrap(cli.build_cayley, "cayley.build")))
    out.append(
        (
            lemmas,
            "CHECKS",
            tuple(
                (cid, tracer.wrap(fn, f"lemmas.check.{cid}")) for cid, fn in lemmas.CHECKS
            ),
        )
    )
    fork = multiprocessing.get_context("fork")
    out.append((fork, "Pool", tracer.wrap(fork.Pool, "cuts.pool_start")))
    return out


_TIMED = {
    "cayley.four_cycles_s": "cayley.four_cycles",
    "cayley.cn_scan_s": "cayley.cn_scan",
    "cuts.census_s": "cuts.census",
    "cuts.cut_search_s": "cuts.cut_search",
    "cuts.four_subset_s": "cuts.four_subset",
    "cuts.removal_sweep_s": "cuts.removal_sweep",
    "cuts.residual_sample_s": "cuts.residual_sample",
    "cuts.falsifier_s": "cuts.falsifier",
    "cuts.flow_s": "cuts.flow",
    "cuts.pool_start_s": "cuts.pool_start",
}

_COUNTED = {
    "cayley.four_cycles": ("cayley.four_cycles", "four_cycles"),
    "cuts.census_subsets": ("cuts.census", "subsets"),
    "cuts.cut_search_calls": ("cuts.cut_search", "calls"),
    "cuts.four_subsets": ("cuts.four_subset", "four_subsets"),
    "cuts.removal_sets": ("cuts.removal_sweep", "removal_sets"),
    "cuts.residual_templates": ("cuts.residual_sample", "templates"),
    "cuts.residual_trials": ("cuts.residual_sample", "trials"),
    "cuts.falsifier_trials": ("cuts.falsifier", "trials"),
    "cuts.flows": ("cuts.flow", "flows"),
}

_RATES = {
    "cuts.census_subsets_per_s": (["cuts.census_subsets"], "cuts.census_s"),
    "cuts.removal_sets_per_s": (["cuts.removal_sets"], "cuts.removal_sweep_s"),
    "cuts.residual_probes_per_s": (
        ["cuts.residual_templates", "cuts.residual_trials"],
        "cuts.residual_sample_s",
    ),
    "cuts.falsifier_trials_per_s": (["cuts.falsifier_trials"], "cuts.falsifier_s"),
    "cuts.flows_per_s": (["cuts.flows"], "cuts.flow_s"),
}


def _subsets_up_to(order: int, top: int) -> int:
    return sum(math.comb(order, k) for k in range(1, top + 1))


def pass_metrics(tracer: Tracer, root: Span, report, span_cost: float) -> dict:
    """Per-layer metrics of one traced pass.

    report is the verify report, or None; span_cost is the seconds one
    traced call adds (spans.span_seconds).
    """
    spans = tracer.subtree(root)
    own = self_times(spans)
    m = {name: 0.0 for name in PER_LAYER}
    for metric, span_name in _TIMED.items():
        m[metric] = sum(sp.duration for sp in spans if sp.name == span_name)
    for metric, (span_name, key) in _COUNTED.items():
        m[metric] = sum(sp.counts.get(key, 0) for sp in spans if sp.name == span_name)
    m["cuts.pool_starts"] = sum(1 for sp in spans if sp.name == "cuts.pool_start")
    for metric, (counts, seconds) in _RATES.items():
        total = sum(m[c] for c in counts)
        m[metric] = total / m[seconds] if m[seconds] > 0 else 0.0
    sweeps = [sp.counts for sp in spans if sp.name in ("cuts.census", "cuts.cut_search")]
    swept = sum(_subsets_up_to(c["order"], c["top"]) for c in sweeps)
    m["cuts.subsets_swept"] = swept
    if swept:
        order = sweeps[0]["order"]
        distinct = _subsets_up_to(order, max(c["top"] for c in sweeps))
        m["cuts.subsets_distinct_share"] = distinct / swept
    m["lemmas.self_s"] = sum(own[sp.span_id] for sp in spans if sp.name == "lemmas.verify_all")
    m["lemmas.checks_self_s"] = sum(
        own[sp.span_id] for sp in spans if sp.name.startswith("lemmas.check.")
    )
    m["cli.self_s"] = sum(own[sp.span_id] for sp in spans if sp.name == "cli.main")
    if report is not None:
        for rec in report.checks:
            key = f"lemmas.check.{rec.check_id}_s"
            if key in m:
                m[key] = rec.millis / 1000.0
        m["lemmas.checks_skipped"] = sum(1 for r in report.checks if r.verdict == SKIPPED)
    m["trace_wall_s"] = root.duration
    m["trace_unaccounted_s"] = own[root.span_id]
    m["trace_overhead_s"] = len(spans) * span_cost
    return m
