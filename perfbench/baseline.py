"""Run every workload over several seeds, then write the baseline and BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/baseline.py

For each workload this makes one untraced run for each of seeds 1-10 and
one traced run, prints each end-to-end metric's median and quartile
spread (the distance between the first and third quartile as a share of
the median) and the ops attempted and failed, and writes them with the
run records to perfbench/baseline.json.  It exits 1 if an op failed or a
spread is not below a third of its metric's bound.  BENCHMARK.json is
regenerated from the tables in workloads.py.  For a partial run, call
run.py directly.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 20
SEEDS = range(1, 11)


def benchmark_json() -> dict:
    """The benchmark contract, in the key order BENCHMARK.json uses."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in W.WORKLOADS.values()],
        "end_to_end": W.END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in W.PER_LAYER.items()
        ],
    }


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace),
    ]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["run_record"], "result": json.loads(lines[-1])}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    baseline = {"run_seconds": RUN_SECONDS, "seeds": list(SEEDS), "workloads": {}}
    ok = True
    for name in W.WORKLOADS:
        runs = [run_once(name, seed, 0) for seed in SEEDS]
        entry = {"runs": [r["record"] for r in runs], "end_to_end": {}}
        for metric in W.END_TO_END:
            key = metric["name"]
            values = [r["result"]["metrics"][key]["value"] for r in runs]
            stats = dict(spread(values), values=values)
            entry["end_to_end"][key] = stats
            steady = stats["spread"] < metric["bound"] / 3
            ok &= steady
            print(
                f"{name:16s} {key:17s} median {stats['median']:10.4f} "
                f"spread {stats['spread']:.4f} (bound {metric['bound']})"
                + ("" if steady else "  NOT STEADY"),
                flush=True,
            )
        entry["ops_attempted"] = [r["result"]["attempted"] for r in runs]
        entry["ops_failed"] = [r["result"]["failed"] for r in runs]
        ok &= all(r["result"]["correct"] for r in runs)
        print(
            f"{name:16s} ops attempted {entry['ops_attempted']} failed {entry['ops_failed']}",
            flush=True,
        )
        traced = run_once(name, SEEDS[0], 1)
        entry["traced"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        # the traced wall time less the untraced runs' median: host noise
        # swamps the wrappers' cost, which trace_overhead_s estimates instead
        entry["traced_wall_minus_untraced_median_s"] = (
            entry["traced"]["trace_wall_s"] - entry["end_to_end"]["wall_s"]["median"]
        )
        baseline["workloads"][name] = entry
    baseline["per_layer_moves"] = {
        name: {"end_to_end": list(moves), "workloads": list(wls)}
        for name, (_, _, moves, wls) in W.PER_LAYER.items()
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
