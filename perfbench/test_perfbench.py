"""Tests of the benchmark itself: the oracle, the tracer and BENCHMARK.json.

    python3 -m pytest -q perfbench

Run from the repository root; the repetition tests start ivpverify from
`src/` in child processes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import run
from oracle import ALL_TASKS, check_report, expected_cells, expected_count
from tracer import Tracer
from workloads import MAX_X_SHIFT, WORKLOADS, Task, x_shift_for

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _write_report(path, task, params, mutate=None):
    cells = expected_cells(task, params)
    report = {
        "task": task,
        "config": {},
        "summary": {"total": len(cells), "pass": len(cells), "fail": 0},
        "cases": [
            {"key": dict(key), "status": "pass", "witness": None, "severity": sev}
            for key, sev in cells.items()
        ],
        "notes": [],
        "meta": {"wall_time_s": 0.25},
    }
    if mutate:
        mutate(report)
    path.write_text(json.dumps(report, indent=2))
    return len(cells)


FINAL = Task("conjecture-final", {"l_max": 2, "n_max": 6})


def test_clean_report_passes(tmp_path):
    n = _write_report(tmp_path / "r.json", FINAL.name, FINAL.params)
    check = check_report(FINAL, str(tmp_path / "r.json"), 0)
    assert (check.attempted, check.failed, check.problems) == (n, 0, [])
    assert n == 2 * 21  # sum over l of sum_n n


def _flip(report):
    report["cases"][3]["status"] = "fail"


def _drop(report):
    del report["cases"][5]


def _retag(report):
    report["cases"][-1]["severity"] = "theorem"  # an l = 2 cell is a conjecture


@pytest.mark.parametrize("mutate", [_flip, _drop, _retag])
def test_one_bad_cell_counts_once(tmp_path, mutate):
    n = _write_report(tmp_path / "r.json", FINAL.name, FINAL.params, mutate)
    check = check_report(FINAL, str(tmp_path / "r.json"), 0)
    assert (check.attempted, check.failed) == (n, 1)
    assert check.problems


def test_unexpected_cell_fails_the_report(tmp_path):
    def extra(report):
        report["cases"].append(dict(report["cases"][0], key={"l": 9, "n": 1, "k": 0}))

    n = _write_report(tmp_path / "r.json", FINAL.name, FINAL.params, extra)
    assert check_report(FINAL, str(tmp_path / "r.json"), 0).failed == n


@pytest.mark.parametrize("exit_code", [1, 2, None])
def test_nonzero_exit_or_crash_fails_every_cell(tmp_path, exit_code):
    n = _write_report(tmp_path / "r.json", FINAL.name, FINAL.params)
    check = check_report(FINAL, str(tmp_path / "r.json"), exit_code)
    assert (check.attempted, check.failed) == (n, n)


def test_truncated_or_missing_report_fails_every_cell(tmp_path):
    path = tmp_path / "r.json"
    n = _write_report(path, FINAL.name, FINAL.params)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert check_report(FINAL, str(path), 0).failed == n
    assert check_report(FINAL, str(tmp_path / "absent.json"), 0).failed == n


def test_digest_ignores_meta_but_not_the_body(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    _write_report(a, FINAL.name, FINAL.params)
    _write_report(b, FINAL.name, FINAL.params, lambda r: r["meta"].update(wall_time_s=9.0))
    _write_report(c, FINAL.name, FINAL.params, lambda r: r["notes"].append("changed"))
    digests = [check_report(FINAL, str(p), 0).digest for p in (a, b, c)]
    assert digests[0] == digests[1] != digests[2]


def test_combined_report_missing_a_task(tmp_path):
    task = WORKLOADS["all-jobs2"](0)[0]
    sub = tmp_path / "sub.json"
    reports = []
    for name in ALL_TASKS[1:]:  # no transform report
        _write_report(sub, name, task.params)
        reports.append(json.loads(sub.read_text()))
    (tmp_path / "all.json").write_text(json.dumps({"task": "all", "reports": reports}))
    check = check_report(task, str(tmp_path / "all.json"), 0)
    assert check.attempted == expected_count(task)
    assert check.failed == task.params["n_max"] + 1


def test_seed_shifts_windows_but_not_cell_counts():
    shifts = {x_shift_for(seed) for seed in range(50)}
    assert shifts <= set(range(-MAX_X_SHIFT, MAX_X_SHIFT + 1)) and len(shifts) > 1
    assert x_shift_for(7) == x_shift_for(7)
    for make in WORKLOADS.values():
        counts = {tuple(expected_count(t) for t in make(s)) for s in (-MAX_X_SHIFT, 0, MAX_X_SHIFT)}
        assert len(counts) == 1


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("a", 5.0, 7.0, 0),  # nested call of a: not counted twice inclusive
        ("b", 5.5, 6.0, 2),
    ]
    totals = tracer.span_totals()
    assert totals["a.calls"] == 2 and totals["b.calls"] == 2
    assert totals["a.s"] == 10.0
    assert totals["a.self_s"] == pytest.approx((10 - 3 - 2) + (2 - 0.5))
    assert totals["b.self_s"] == pytest.approx(3.5)


def test_benchmark_json_names_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_empty_directory_exits_nonzero_without_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "poly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


TINY = [
    Task("all", {"l_max": 2, "n_max": 4, "k_max": 4, "m": 2, "eps": (1, -1),
                 "x_min": -2, "x_max": 2, "jobs": 1}),
    Task("conjecture-sun-m", {"m": 3, "l_max": 2, "n_max": 3, "eps": (1,),
                              "x_min": -1, "x_max": 1, "jobs": 1}),
    Task("transform", {"n_max": 3, "jobs": 2}),
]


def _rep(tmp_path, trace):
    src = os.path.join(ROOT, "src")
    return run.run_rep(0, TINY, trace, str(tmp_path), str(tmp_path / "spans.jsonl"),
                       src, run.child_env(src), 120)


def test_program_passes_the_oracle_on_every_task(tmp_path):
    rep = _rep(tmp_path, trace=False)
    assert rep["problems"] == []
    assert rep["failed"] == 0 and rep["attempted"] == sum(expected_count(t) for t in TINY)
    assert rep["status"]["verdict_s"] > 0 and rep["cpu_s"] > 0
    # Steal time only ever comes off the wall time.
    assert rep["status"]["verdict_s"] <= rep["status"]["verdict_wall_s"]
    assert 0 < rep["status"]["setup_s"] <= rep["status"]["setup_wall_s"]
    e2e = run.end_to_end([rep], rep["attempted"])
    assert list(e2e) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in e2e.values())


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    rep = _rep(tmp_path, trace=True)
    assert rep["problems"] == []
    layers = rep["status"]["layers"]
    not_run = {f"cli.main.{t}.s" for t in ALL_TASKS} - {f"cli.main.{t.name}.s" for t in TINY}
    measured = set(run.PER_LAYER) - not_run - {"trace.overhead_s"}
    assert measured <= set(layers), sorted(measured - set(layers))
    assert layers["gridrun.pools"] >= 1 and layers["gridrun.worker_cpu_s"] > 0
    # Cells of the jobs=2 grid run in workers, whose calls are not seen.
    assert layers["report.make_case.calls"] == expected_count(TINY[0]) + expected_count(TINY[1])
    assert layers["gridrun.cells"] == sum(expected_count(t) for t in TINY)
    emitted = run.per_layer([rep], 0.01)
    assert list(emitted) == list(run.PER_LAYER)
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert {"cli.main.all", "gridrun.run_grid"} <= {json.loads(s)["name"] for s in spans}
