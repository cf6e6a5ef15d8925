"""Time-to-verdict benchmark for ugconn.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-mb4 --seed 1 --seconds 20 --trace 0

One client issues the workload's requests back to back (a closed loop).
A run makes max(1, seconds // pass_seconds) passes, so its op counts
repeat exactly.  On a 2-CPU box a verify-mb4 or connectivity-n6 run with
--seconds 20 makes 3 passes (about 20 s); a verify-ug5 run makes one
pass of about 60 s whatever --seconds is below 120.  With --trace 0 the
last stdout line holds the end-to-end metrics (medians over passes); with
--trace 1 every pass is traced and the last line holds the per-layer
metrics.  Every run checks the program's outputs, writes a run record
(and, traced, its spans) under perfbench/out/, and prints the record as
the line before the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads as W
from spans import Tracer, patched, span_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh-process set-ups per untraced run, spread evenly over the gaps
#: before, between and after the passes so that they sample the same
#: stretch of host speed as the passes.  Each gap gives the mean of its
#: probes and setup_s is the median over gaps: the host's speed drifts
#: over tens of seconds, so a median over all probes of a one-pass run
#: (two gaps) would jump between the two gaps' clusters.
SETUP_PROBES = 16

_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ugconn
from ugconn.cli import parse_spec
for spec in sys.argv[2:]:
    ugconn.build_cayley(parse_spec(spec)).dense.masks
print(time.perf_counter() - t0)
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; source_sha256 identifies the code
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def measure_setup(specs, probes: int) -> float:
    """Mean seconds of fresh-process imports plus graph builds and mask touches."""
    times = []
    for _ in range(probes):
        res = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), *specs],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.mean(times)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


class Runner:
    """Runs passes of one workload and judges their outputs."""

    def __init__(self, workload, seed: int, tracer: Tracer | None):
        import ugconn
        import ugconn.cli

        self.ugconn = ugconn
        self.workload = workload
        self.seed = seed
        self.workers = min(W.MAX_WORKERS, os.cpu_count() or 1)
        self.order = W.cli_order(workload, seed)
        self.checks = None if workload.is_cli else W.selected_checks(workload, ugconn.CHECK_IDS)
        self.graphs = {}
        self.setup_layers = {"cayley.build_s": 0.0, "cayley.masks_s": 0.0, "cayley.order": 0}
        # connectivity requests build their own graphs; these builds only
        # feed the traced run's cayley.* metrics
        if workload.is_cli and tracer is None:
            return
        for spec in workload.specs:
            t0 = time.perf_counter()
            with _span(tracer, "cayley.build"):
                G = ugconn.build_cayley(ugconn.cli.parse_spec(spec))
            t1 = time.perf_counter()
            with _span(tracer, "cayley.masks"):
                G.dense.masks
            t2 = time.perf_counter()
            self.setup_layers["cayley.build_s"] += t1 - t0
            self.setup_layers["cayley.masks_s"] += t2 - t1
            self.setup_layers["cayley.order"] += G.order
            self.graphs[spec] = G

    def request(self, tracer):
        """One pass as the user issues it; returns the raw answers."""
        if not self.workload.is_cli:
            (G,) = self.graphs.values()
            with _span(tracer, "lemmas.verify_all"):
                return self.ugconn.verify_all(
                    G, workers=self.workers, seed=self.seed, checks=self.checks
                )
        answers = []
        for spec in self.order:
            with _span(tracer, "cli.main"):
                code, text = W.run_cli(self.ugconn.cli.main, spec)
            answers.append((spec, code, text))
        return answers

    def judge(self, answers) -> "W.Outcome":
        if not self.workload.is_cli:
            return W.check_verify_report(answers, self.workload, self.checks)
        return W.check_cli_answers(answers, self.workload)

    def one_pass(self, tracer: Tracer | None):
        """(wall seconds, cpu seconds, outcome, raw answers, root span or None)."""
        root = None
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("pass") as root:
                    answers = self.request(tracer)
            else:
                answers = self.request(None)
        except Exception:  # a raising request fails its ops, it is not a crash
            traceback.print_exc()
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
            outcome = W.Outcome()
            for key in self.order if self.workload.is_cli else self.checks:
                outcome.attempted += 1
                outcome.fail(key, "request raised")
            return wall, cpu, outcome, None, root
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        return wall, cpu, self.judge(answers), answers, root


def _load_reference(key: str) -> dict | None:
    try:
        return json.loads((OUT / "digests.json").read_text()).get(key)
    except (OSError, ValueError):
        return None


def _store_reference(key: str, digests: dict) -> None:
    path = OUT / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    store.setdefault(key, digests)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True, indent=1))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (SRC / "ugconn" / "__init__.py").is_file():
        print(f"no ugconn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = W.WORKLOADS[args.workload]
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    tracer = Tracer(run_id) if args.trace else None
    runner = Runner(workload, args.seed, tracer)
    import ugconn

    source = _source_hash()
    ref_key = f"{workload.name}:{args.seed}:{source}:{sys.version_info[:2]}"
    reference = _load_reference(ref_key)

    passes = max(1, int(args.seconds // workload.pass_seconds))
    probes_per_gap = -(-SETUP_PROBES // (passes + 1))
    span_cost = span_seconds() if tracer else 0.0
    attempted, failures, setups = 0, [], []
    walls, cpus, outcomes, layer_rows = [], [], [], []
    for _ in range(passes):
        if tracer is None:
            setups.append(measure_setup(workload.specs, probes_per_gap))
        if tracer:
            with patched(layers.instrument(tracer, ugconn)):
                wall, cpu, outcome, answers, root = runner.one_pass(tracer)
        else:
            wall, cpu, outcome, answers, root = runner.one_pass(None)
        if reference is None and answers is not None:
            reference = dict(outcome.digests)
            _store_reference(ref_key, reference)
        W.compare_digests(outcome, reference or {})
        attempted += outcome.attempted
        failures += outcome.failures
        outcomes.append(outcome)
        if tracer is None:
            walls.append(wall)
            cpus.append(cpu)
        else:
            report = None if workload.is_cli else answers
            layer_rows.append(layers.pass_metrics(tracer, root, report, span_cost))
    if tracer is None:
        setups.append(measure_setup(workload.specs, probes_per_gap))
    ops_failed = sum(len(o.failed) for o in outcomes)

    for failure in failures:
        print(f"op failed: {failure}", file=sys.stderr)
    last = outcomes[-1]
    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "proved_checks": (min(o.proved for o in outcomes), "count"),
            "supported_checks": (min(o.supported for o in outcomes), "count"),
        }
    else:
        values = {}
        for name, (unit, *_rest) in W.PER_LAYER.items():
            values[name] = (statistics.median(r[name] for r in layer_rows), unit)
        for name, value in runner.setup_layers.items():
            values[name] = (value, W.PER_LAYER[name][0])
        tracer.dump(OUT / f"spans-{run_id}.jsonl")

    record = {
        "run": run_id,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workers": runner.workers,
        "git_commit": _git_commit(),
        "source_sha256": source,
        "passes": len(outcomes),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "setup_gap_s": setups,
        "ops_attempted": attempted,
        "ops_failed": ops_failed,
        "failures": failures,
        "load": last.load,
        "checks": runner.checks,
    }
    (OUT / f"run-{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"run_record": record}, sort_keys=True))
    for name, (value, unit) in values.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{workload.name} ops_failed = {ops_failed} of {attempted} ops", file=sys.stderr)
    result = {
        "correct": ops_failed == 0,
        "attempted": attempted,
        "failed": ops_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
