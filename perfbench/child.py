"""One cold-process repetition of a workload.

    python3 perfbench/child.py SPEC_JSON SPAWN_TIME SPAWN_STEAL

SPAWN_TIME and SPAWN_STEAL are the parent's `time.monotonic()` and
`steal_s()` just before it started this process.  It imports
ivpverify, then calls `cli.main` once per task of the spec, each
writing a JSON report to the path the spec names, and finally writes a
status file with its timings.  With `"trace": true` in the spec the
ivpverify layers are wrapped first (see tracer.py) and the spans are
written as JSONL.

`setup_s` and `verdict_s` are wall times less the time the hypervisor
gave this machine's CPUs to other guests over the same interval (steal
time), divided by the number of CPUs.  On a shared host that steal
comes and goes over minutes and moved the wall time of the same run by
more than half; the raw wall times stay in the status file.  Before
and after the tasks, `ref_s` times a fixed loop (see `reference_s`),
so that run.py can take out the drift of the CPU's own speed as well.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def steal_s() -> tuple[float, int]:
    """Steal time summed over the CPUs, in CPU seconds, and the CPU count.

    Read from /proc/stat; (0.0, 1) where that has no steal column, so
    the times below are then plain wall times.
    """
    try:
        with open("/proc/stat") as fh:
            lines = [line.split() for line in fh if line.startswith("cpu")]
    except OSError:
        return 0.0, 1
    if len(lines[0]) < 9:
        return 0.0, 1
    return int(lines[0][8]) / os.sysconf("SC_CLK_TCK"), max(1, len(lines) - 1)


REF_ITERATIONS = 45_000


def reference_s() -> float:
    """CPU time of a fixed loop of big-integer and Fraction arithmetic.

    That is the kind of work the grids do, and it does not touch
    ivpverify, so its time tracks only the speed the host gives this
    CPU at the moment.
    """
    from fractions import Fraction
    from math import comb

    start = time.thread_time()
    acc = 0
    for i in range(REF_ITERATIONS):
        f = Fraction(comb(40 + i % 20, i % 15), i % 97 + 1)
        acc += (f * f + f).numerator % 1000
    return time.thread_time() - start


def _peak_rss_mb() -> float:
    """Largest RSS of this process and of its reaped pool workers, in MB.

    VmHWM belongs to this process's own address space, so it starts
    afresh at exec; ru_maxrss of RUSAGE_SELF would carry over the peak
    of the process that started this one.  Pool workers are forked, not
    exec'd, from here, so RUSAGE_CHILDREN (KiB on Linux) gives their
    peak, pages shared with this process included.
    """
    with open("/proc/self/status") as fh:
        own_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, workers_kib) / 1024.0


def main(spec_path: str, spawn_time: float, spawn_steal: float) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.monotonic()
    from ivpverify import cli
    import_s = time.monotonic() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"ivpverify imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    ready_steal, ncpu = steal_s()
    status = {
        "setup_wall_s": ready - spawn_time,
        "setup_s": ready - spawn_time - (ready_steal - spawn_steal) / ncpu,
        "import_s": import_s,
        "tasks": [],
    }
    ref_s = reference_s()
    first, first_steal = time.monotonic(), steal_s()[0]
    for task in spec["tasks"]:
        argv = task["argv"] + ["--format", "json", "--out", task["out"]]
        main_fn = cli.main if tracer is None else tracer.wrap(f"cli.main.{task['name']}", cli.main)
        start = time.monotonic()
        try:
            code, error = main_fn(argv), None
        except Exception as exc:  # a crash fails the task's cells, not the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        status["tasks"].append(
            {"name": task["name"], "exit": code, "error": error, "s": time.monotonic() - start}
        )
    status["verdict_wall_s"] = time.monotonic() - first
    status["verdict_s"] = status["verdict_wall_s"] - (steal_s()[0] - first_steal) / ncpu
    status["peak_rss_mb"] = _peak_rss_mb()
    status["ref_s"] = ref_s + reference_s()
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.import.s"] = import_s
        status["layers"] = layers
        tracer.write_jsonl(spec["spans"])
    with open(spec["status"], "w") as fh:
        json.dump(status, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2]), float(sys.argv[3])))
