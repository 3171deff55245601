"""ivpverify benchmark: time to a verdict, in fresh processes.

    python3 perfbench/run.py --workload poly --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/ivpverify`.  Each
repetition starts a fresh interpreter (perfbench/child.py) because
every `verify` call starts with cold `lru_cache`s; that process imports
ivpverify and calls `cli.main` once per task of the workload, each
writing a JSON report.  The reports are checked against an independent
oracle (oracle.py) before a repetition counts.  Repetitions run back to
back until `--seconds` have passed (at least MIN_REPS of them), and
each metric is the median over them, times scaled to a reference CPU
speed (REF_S below).

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
the run alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), plus the tracing
overhead: traced minus untraced `verdict_s`.

Every metric is printed as `name = value unit`; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A result file with the run's metadata, every
repetition and every metric goes to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

from child import steal_s
from oracle import check_report, expected_count
from tracer import children_cpu_s
from workloads import WORKLOADS, x_shift_for

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = ".perfbench_work"
MIN_REPS = 3
RUN_DEADLINE_S = 150.0  # a repetition still running then is killed
# CPU seconds of a repetition's two child.reference_s() calls at the
# reference speed.  Times are multiplied by REF_S / (the run's median
# reference time): the host's CPU speed drifted by up to 45% over
# minutes, with the work unchanged.
REF_S = 0.7
# Variables that would change a workload from outside.
UNSET_ENV = ("IVPVERIFY_JOBS", "IVPVERIFY_BINOM_CACHE")


def load_metrics() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and the per-layer metrics in BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = load_metrics()


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit(root: str) -> str:
    """HEAD of the checkout at `root`; 'unknown' outside git."""
    # The ceiling keeps git from searching the directories above `root`.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(spec: dict, spec_path: str, log_path: str, env: dict, timeout: float):
    """Start one child process; return (exit code or None on timeout, wall s, cpu s)."""
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    cpu0 = children_cpu_s()
    with open(log_path, "wb") as log:
        spawn_steal = steal_s()[0]
        spawn = time.monotonic()
        # Own process group, so a timeout also kills its pool workers.
        proc = subprocess.Popen(
            [sys.executable, CHILD, spec_path, repr(spawn), repr(spawn_steal)],
            stdout=log, stderr=subprocess.STDOUT, env=env, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                _kill_group(proc)
    return code, time.monotonic() - spawn, children_cpu_s() - cpu0


def run_rep(idx, tasks, trace, workdir, spans_path, src, env, timeout) -> dict:
    """One repetition: run the child, then check every report it wrote."""
    repdir = os.path.join(workdir, f"rep{idx:03d}")
    os.makedirs(repdir)
    spec = {
        "src": src,
        "trace": trace,
        "status": os.path.join(repdir, "status.json"),
        "spans": spans_path,
        "tasks": [
            {"name": t.name, "argv": t.argv(), "out": os.path.join(repdir, f"{i:02d}-{t.name}.json")}
            for i, t in enumerate(tasks)
        ],
    }
    log_path = os.path.join(repdir, "child.log")
    code, wall, cpu = run_child(spec, os.path.join(repdir, "spec.json"), log_path, env, timeout)
    status = None
    if code == 0:
        try:
            with open(spec["status"]) as fh:
                status = json.load(fh)
        except (OSError, ValueError):
            pass
    exits = [t["exit"] for t in status["tasks"]] if status else [None] * len(tasks)
    checks = [check_report(t, s["out"], e) for t, s, e in zip(tasks, spec["tasks"], exits)]
    rep = {
        "trace": trace,
        "exit": code,
        "wall_s": wall,
        # The reference loop is not the program's work.
        "cpu_s": cpu - status["ref_s"] if status else cpu,
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "digests": {t.name: c.digest for t, c in zip(tasks, checks)},
        "problems": [p for c in checks for p in c.problems],
        "status": status,
    }
    if code != 0:
        with open(log_path, errors="replace") as fh:
            rep["problems"].append(f"child exit {code}: {fh.read()[-2000:]}")
    if not rep["problems"]:
        shutil.rmtree(repdir)
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict], cells: int) -> dict:
    """Medians over the repetitions, times scaled to the reference speed."""
    ok = [r for r in reps if r["status"]]
    scale = REF_S / median([r["status"]["ref_s"] for r in ok]) if ok else 1.0
    verdicts = [scale * r["status"]["verdict_s"] for r in ok]
    values = {
        "setup_s": scale * median([r["status"]["setup_s"] for r in ok]),
        "verdict_s": median(verdicts),
        "cells_per_s": median([cells / v for v in verdicts if v > 0]),
        "cpu_s": scale * median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": median([r["status"]["peak_rss_mb"] for r in ok]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(traced: list[dict], overhead_s: float) -> dict:
    layers = [r["status"]["layers"] for r in traced if r["status"]]
    out = {}
    for name, unit in PER_LAYER.items():
        value = overhead_s if name == "trace.overhead_s" else median(
            [lay.get(name, 0.0) for lay in layers]
        )
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that run_child kills the running child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ivpverify", "cli.py")):
        print(f"error: no ivpverify sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    x_shift = x_shift_for(args.seed)
    tasks = WORKLOADS[args.workload](x_shift)
    cells = sum(expected_count(t) for t in tasks)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, WORK, run_name)
    results = os.path.join(root, WORK, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    spans_path = os.path.join(results, f"{run_name}.spans.jsonl")
    env = child_env(src)

    # Warm-up: compile bytecode and fill the file cache, unmeasured.
    warm = {"src": src, "trace": False, "status": os.path.join(workdir, "warm.json"),
            "spans": None, "tasks": []}
    code, _, _ = run_child(warm, os.path.join(workdir, "warm-spec.json"),
                           os.path.join(workdir, "warm.log"), env, 60)
    if code != 0:
        with open(os.path.join(workdir, "warm.log"), errors="replace") as fh:
            print(f"error: child process cannot start (exit {code}):\n{fh.read()[-2000:]}",
                  file=sys.stderr)
        return 2

    start = time.monotonic()
    reps: list[dict] = []
    min_reps = 2 * MIN_REPS if args.trace else MIN_REPS
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        timeout = max(5.0, RUN_DEADLINE_S - (time.monotonic() - start))
        rep = run_rep(len(reps), tasks, traced, workdir, spans_path, src, env, timeout)
        reps.append(rep)
        elapsed = time.monotonic() - start
        if rep["exit"] is None or elapsed >= RUN_DEADLINE_S:
            break
        if len(reps) >= min_reps and elapsed >= args.seconds:
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    for task in tasks:
        digests = {r["digests"][task.name] for r in reps if r["digests"][task.name]}
        if len(digests) > 1:
            problems.append(f"{task.name}: report differs between repetitions")
    untraced = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    e2e = end_to_end(untraced, cells)
    overhead = None
    if args.trace:
        overhead = (end_to_end(traced, cells)["verdict_s"]["value"]
                    - e2e["verdict_s"]["value"])
        metrics = per_layer(traced, overhead)
    else:
        metrics = e2e
    correct = failed == 0 and not problems

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "x_shift": x_shift,
        "meta": {
            "commit": git_commit(root),
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "run_seconds": args.seconds,
            "argv": [["verify", *t.argv(), "--format", "json", "--out", "<file>"] for t in tasks],
            "unset_env": list(UNSET_ENV),
            "trace_overhead_s": overhead,
            "trace_scope": (
                "parent-side spans only; pool workers counted by gridrun.pools and "
                "gridrun.worker_cpu_s (RUSAGE_CHILDREN); gridrun.cell_s.* cover jobs=1 "
                "grids only and read 0 when every grid ran in workers"
                if args.trace else None
            ),
        },
        "cells_per_rep": cells,
        "reference_s": median([r["status"]["ref_s"] for r in untraced if r["status"]]),
        "reps": len(reps),
        "untraced_reps": len(untraced),
        "traced_reps": len(traced),
        "attempted": attempted,
        "failed": failed,
        "cells_failed_share": failed / attempted if attempted else 1.0,
        "report_sha256": {t.name: reps[0]["digests"][t.name] for t in tasks},
        "end_to_end": e2e,
        "per_layer": metrics if args.trace else None,
        "problems": problems[:50],
        "repetitions": [{k: v for k, v in r.items() if k != "problems"} for r in reps],
    }
    with open(os.path.join(results, f"{run_name}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    n = len(traced) if args.trace else len(untraced)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}  (median of {n})")
    print(f"{args.workload} cells_failed_share = {result['cells_failed_share']:.6g} ratio"
          f"  ({failed} of {attempted} cells)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
