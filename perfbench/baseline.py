"""Run every workload on ten seeds and write perfbench/BENCH_<label>.json.

    python3 perfbench/baseline.py --label baseline

From the repository root.  Each workload of BENCHMARK.json gets RUNS
untraced runs (seeds 1..RUNS) and one traced run (seed 1), each of
`run_seconds` from BENCHMARK.json.  The file records, per workload and
end-to-end metric, the median of the run medians, their quartiles and
the spread (quartile distance over the median) next to the metric's
bound; per-layer metrics of the traced run; the tracing overhead; every run's cell counts and
report digests; and the machine and commit.  A PR that touches a hot
path commits one such file measured before and one after, on the same
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(ROOT, ".perfbench_work", "results", name)) as fh:
        return json.load(fh)


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    out = {"label": args.label, "run_seconds": seconds, "meta": None, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = run_once(workload, 1, seconds, 1)
        out["meta"] = {k: v for k, v in runs[0]["meta"].items()
                       if k in ("commit", "python", "implementation", "platform", "nproc")}
        e2e = {}
        for m in bench["end_to_end"]:
            stats = summarize([r["end_to_end"][m["name"]]["value"] for r in runs])
            e2e[m["name"]] = {"unit": m["unit"], "bound": m["bound"], **stats}
            print(f"{workload:10s} {m['name']:12s} median {stats['median']:10.4f} {m['unit']:4s}"
                  f" spread {stats['spread']:.4f} (bound {m['bound']})", flush=True)
        out["workloads"][workload] = {
            "argv": runs[0]["meta"]["argv"],
            "runs": [
                {"seed": r["seed"], "x_shift": r["x_shift"], "reps": r["reps"],
                 "attempted": r["attempted"], "failed": r["failed"],
                 "report_sha256": r["report_sha256"]}
                for r in runs
            ],
            "cells_failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": e2e,
            "trace_overhead_s": traced["meta"]["trace_overhead_s"],
            "trace_scope": traced["meta"]["trace_scope"],
            "per_layer": {k: v["value"] for k, v in traced["per_layer"].items()},
        }
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
