"""The three workloads, their output checks, and the metric tables.

Every workload is one client issuing requests back to back (a closed
loop).  A pass is one workload request as a user issues it: one
``verify_all`` call for the verify workloads, three ``ugconn
connectivity`` invocations for connectivity-n6.  An op is one
non-skipped check of a verify report, or one connectivity query.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field

#: verify workloads use at most this many pool processes (the box has 2 CPUs)
MAX_WORKERS = 2

PROVED = "PROVED-EXHAUSTIVE"
SAMPLED = "SUPPORTED-SAMPLED"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[str, ...]
    # typical seconds per pass on a 2-CPU box; a run makes
    # max(1, seconds // pass_seconds) passes, so its op counts repeat exactly
    pass_seconds: float
    # verify workloads: check ids to leave out of verify_all
    excluded_checks: tuple[str, ...] = ()
    # verify workloads: check id -> predicate on its detail dict
    headlines: dict = field(default_factory=dict)
    # connectivity workloads: expected kappa and minimum-cut size for every spec
    kappa: int | None = None

    @property
    def is_cli(self) -> bool:
        return self.kappa is not None


def _cyclic_exact_is_eight(detail: dict) -> bool:
    witness = detail.get("witness")
    return (
        witness is not None
        and len(witness) == 8
        and "unexpected_small_cut" not in detail
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-mb4",
            why="verify_all on mb:4, all 17 checks, 2 workers: exhaustive bitmask "
            "enumeration (census <=7, cyclic cut <=7 then <=8) and ~18 fork pools "
            "are nearly all of its time",
            specs=("mb:4",),
            pass_seconds=6.0,
            headlines={"cyclic-cut-exact": _cyclic_exact_is_eight},
        ),
        Workload(
            name="connectivity-n6",
            why="3 `ugconn connectivity` requests (mb:6, ug:6:c=4, ug:6:c=5): "
            "unit-capacity max-flow at order 720, no pools or enumeration; no n=6 "
            "verify, as residue-bound-p2 would sweep 182.8M templates",
            specs=("mb:6", "ug:6:c=4", "ug:6:c=5"),
            pass_seconds=6.0,
            kappa=6,
        ),
        Workload(
            name="verify-ug5",
            why="verify_all on ug:5:c=4 minus residue-bound-p1, 2 workers: "
            "residual sampling (773k templates + 1M trials) and the 1M-trial "
            "falsifier are nearly all of its time",
            specs=("ug:5:c=4",),
            pass_seconds=60.0,
            # left out to keep a pass near one minute: its articulation sweep
            # takes 17 s more, and it is the check ROADMAP direction 1 replaces
            # by the kappa >= n flow certificate connectivity-value already runs
            excluded_checks=("residue-bound-p1",),
            headlines={
                "connectivity-value": lambda d: d.get("kappa") == 5,
                "cyclic-cut-falsify": lambda d: "counterexample" not in d,
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# requests


def selected_checks(workload: Workload, check_ids) -> list[str]:
    return [c for c in check_ids if c not in workload.excluded_checks]


def cli_order(workload: Workload, seed: int) -> list[str]:
    """The seed fixes the order of the connectivity requests."""
    order = list(workload.specs)
    random.Random(seed).shuffle(order)
    return order


def run_cli(cli_main, spec: str) -> tuple[int, str]:
    """One `ugconn connectivity` request in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["connectivity", "--spec", spec])
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Outcome:
    """What one pass did, judged: ops, failures, verdict strength, digests."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # op keys (check id or spec); an op with several failure messages fails once
    failed: set[str] = field(default_factory=set)
    proved: int = 0
    supported: int = 0
    digests: dict = field(default_factory=dict)
    load: dict = field(default_factory=dict)

    def fail(self, key: str, why: str) -> None:
        self.failed.add(key)
        self.failures.append(f"{key}: {why}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_LOAD_KEYS = ("trials", "templates", "covered_fault_sets", "four_cycles")


def check_verify_report(report, workload: Workload, checks) -> Outcome:
    """Judge a verify report: gating FAILs, headline values, per-check digests.

    Headlines are asserted only for checks that were selected; a selected
    headline check that comes back SKIPPED counts as one failed op.
    """
    out = Outcome()
    body = report.to_jsonable(with_timing=False)
    entries = {c["id"]: c for c in body["checks"]}
    for entry in body["checks"]:
        cid = entry["id"]
        canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        out.digests[cid] = _digest(canonical.encode())
        if entry["verdict"] == SKIPPED:
            continue
        out.attempted += 1
        if entry["gating"]:
            if entry["verdict"] == FAIL:
                out.fail(cid, "gating FAIL")
                continue
            out.proved += entry["verdict"] == PROVED
            out.supported += entry["verdict"] in (PROVED, SAMPLED)
        test = workload.headlines.get(cid)
        if test is not None and not test(entry["detail"]):
            out.fail(cid, f"wrong headline value {entry['detail']}")
    for cid in workload.headlines:
        if cid in checks and entries.get(cid, {}).get("verdict") in (None, SKIPPED):
            out.attempted += 1
            out.fail(cid, "headline check did not run")
    graph = body["graph"]
    out.load[graph["descriptor"]] = {
        "order": graph["order"],
        "checks_run": out.attempted,
        "work": {
            cid: {k: v for k, v in e["detail"].items() if k in _LOAD_KEYS}
            for cid, e in entries.items()
            if any(k in _LOAD_KEYS for k in e["detail"])
        },
    }
    return out

_KAPPA_LINE = re.compile(r"kappa=(\d+)(?: cut=(\S+))?")


def check_cli_answers(answers, workload: Workload) -> Outcome:
    """Judge (spec, exit code, stdout) triples of connectivity requests."""
    out = Outcome()
    for spec, code, text in answers:
        out.attempted += 1
        out.digests[spec] = _digest(text.encode())
        m = _KAPPA_LINE.fullmatch(text.strip())
        if code != 0 or m is None:
            out.fail(spec, f"exit {code}, output {text!r}")
            continue
        kappa = int(m.group(1))
        cut = m.group(2).split(",") if m.group(2) else []
        if kappa != workload.kappa or len(cut) != workload.kappa:
            out.fail(spec, f"kappa={kappa} with a {len(cut)}-vertex cut")
            continue
        out.proved += 1  # Menger over every non-neighbour of vertex 0 is exact
        out.supported += 1
        out.load[spec] = {"kappa": kappa}
    return out


def compare_digests(outcome: Outcome, reference: dict) -> None:
    """Count each op whose canonical body differs from the same-seed reference."""
    for key, digest in outcome.digests.items():
        if key in reference and reference[key] != digest:
            outcome.fail(key, "canonical body differs for the same seed")


# ---------------------------------------------------------------------------
# metric tables (BENCHMARK.json is generated from these)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "proved_checks", "unit": "count", "better": "higher", "bound": 0.01},
    {"name": "supported_checks", "unit": "count", "better": "higher", "bound": 0.01},
]

MB4, UG5, N6 = "verify-mb4", "verify-ug5", "connectivity-n6"
ALL = (MB4, UG5, N6)

#: per-layer metric -> (unit, better, the end-to-end metrics and workloads it should move)
PER_LAYER = {
    "cayley.build_s": ("s", "lower", ["setup_s"], ALL),
    "cayley.masks_s": ("s", "lower", ["setup_s"], ALL),
    "cayley.order": ("count", "higher", ["setup_s"], ALL),
    "cayley.four_cycles_s": ("s", "lower", ["wall_s"], (UG5, MB4)),
    "cayley.four_cycles": ("count", "higher", ["wall_s"], (UG5, MB4)),
    "cayley.cn_scan_s": ("s", "lower", ["wall_s"], (UG5, MB4)),
    "cuts.census_s": ("s", "lower", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.census_subsets": ("count", "lower", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.census_subsets_per_s": ("1/s", "higher", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.cut_search_s": ("s", "lower", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.cut_search_calls": ("count", "lower", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.subsets_swept": ("count", "lower", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.subsets_distinct_share": ("ratio", "higher", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.four_subset_s": ("s", "lower", ["wall_s"], (UG5,)),
    "cuts.four_subsets": ("count", "lower", ["wall_s"], (UG5,)),
    "cuts.removal_sweep_s": ("s", "lower", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.removal_sets": ("count", "lower", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.removal_sets_per_s": ("1/s", "higher", ["wall_s", "cpu_s"], (MB4,)),
    "cuts.residual_sample_s": ("s", "lower", ["wall_s", "cpu_s"], (UG5,)),
    "cuts.residual_templates": ("count", "lower", ["wall_s", "cpu_s"], (UG5,)),
    "cuts.residual_trials": ("count", "lower", ["wall_s", "cpu_s"], (UG5,)),
    "cuts.residual_probes_per_s": ("1/s", "higher", ["wall_s", "cpu_s"], (UG5,)),
    "cuts.falsifier_s": ("s", "lower", ["wall_s", "cpu_s"], (UG5,)),
    "cuts.falsifier_trials": ("count", "higher", ["wall_s", "cpu_s"], (UG5,)),
    "cuts.falsifier_trials_per_s": ("1/s", "higher", ["wall_s", "cpu_s"], (UG5,)),
    "cuts.flow_s": ("s", "lower", ["wall_s"], (N6,)),
    "cuts.flows": ("count", "lower", ["wall_s"], (N6,)),
    "cuts.flows_per_s": ("1/s", "higher", ["wall_s"], (N6,)),
    "cuts.pool_starts": ("count", "lower", ["wall_s"], (MB4,)),
    "cuts.pool_start_s": ("s", "lower", ["wall_s"], (MB4,)),
    **{
        f"lemmas.check.{cid}_s": ("s", "lower", ["wall_s"], (MB4, UG5))
        for cid in (
            "common-neighbor-bound",
            "connectivity-value",
            "cross-edge-count",
            "out-neighbor-disjoint",
            "out-neighbor-escape",
            "adjacent-pair-common-neighbor",
            "common-neighbor-triple",
            "small-cut-isolation",
            "large-component-bound",
            "four-subset-neighborhood",
            "residue-bound-p1",
            "residue-bound-p2",
            "four-cycle-labels",
            "block-boundary-degree",
            "cyclic-cut-exact",
            "cyclic-cut-upper",
            "cyclic-cut-falsify",
        )
    },
    "lemmas.self_s": ("s", "lower", ["wall_s"], (MB4, UG5)),
    "lemmas.checks_self_s": ("s", "lower", ["wall_s"], (MB4, UG5)),
    "lemmas.checks_skipped": ("count", "lower", ["supported_checks"], (MB4, UG5)),
    "cli.self_s": ("s", "lower", ["wall_s"], (N6,)),
    "trace_wall_s": ("s", "lower", [], ALL),
    "trace_unaccounted_s": ("s", "lower", [], ALL),
    "trace_overhead_s": ("s", "lower", [], ALL),
}
