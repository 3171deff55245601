"""The rules of `checks/reports.py` and its comparison with another
commit, on hand-made outputs: no subprocess runs."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

_CHECKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "checks")
_ARGV = "transform --n-max 60"  # an argv that fault 2,1 must fail


@pytest.fixture(scope="module")
def reports():
    """checks/reports.py, which imports checks/fault.py as `fault`."""
    sys.path.insert(0, _CHECKS)
    try:
        spec = importlib.util.spec_from_file_location("checks_reports",
                                                      os.path.join(_CHECKS, "reports.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(_CHECKS)
    assert _ARGV in module.FAULTS["2,1"][1]
    return module


def _outputs(witnesses: dict, wall: float, order=(0, 1, 2)) -> dict:
    """One run's outputs of transform at n = 0..2, in every format, by
    --out and by stdout alike; witnesses[n] fails cell n."""
    cases = [{"key": {"n": n}, "status": "fail" if n in witnesses else "pass",
              "witness": witnesses.get(n), "severity": "theorem"} for n in order]
    fail = len(witnesses)
    report = {"task": "transform", "config": {"n_max": 2},
              "summary": {"total": 3, "pass": 3 - fail, "fail": fail}, "cases": cases,
              "notes": [], "meta": {"wall_time_s": wall}}
    rows = "".join(f"transform,n={c['key']['n']},{c['status']},{c['witness'] or ''},theorem\n"
                   for c in cases)
    lines = "".join(f"  n={c['key']['n']}  {c['status']}  {c['witness'] or ''}\n" for c in cases)
    texts = {
        "csv": "task,case_key,status,witness,severity\n" + rows,
        "json": json.dumps(report, indent=2) + "\n",
        "text": f"task: transform\nconfig: n_max=2\n{lines}wall time: {wall:.3f}s\n"
                + (f"FAIL {fail}/3\n" if fail else "PASS 3/3\n"),
    }
    rc = f"{int(fail > 0)}\n"
    outputs = {}
    for fmt, text in texts.items():
        outputs.update({fmt: text, fmt + ".rc": rc, fmt + ".stdout": text, fmt + ".stdout.rc": rc})
    return outputs


def _runs(edit=None) -> dict:
    """The runs of `_ARGV` at --jobs 1 and 2, passing and under fault
    2,1 (which fails cell n=1), every one agreeing: the wall times
    differ from run to run.  edit = (fault, jobs, name, text) replaces
    one output."""
    runs = {}
    for name, witnesses in (("none", {}), ("2,1", {1: "lhs 3 != rhs 2"})):
        for jobs in (1, 2):
            runs[_ARGV, jobs, name] = _outputs(witnesses, 0.25 * jobs)
    if edit:
        name, jobs, output, text = edit
        runs[_ARGV, jobs, name][output] = text
    return runs


_PASSING = _outputs({}, 0.5)


@pytest.mark.parametrize("edit, rule", [
    # 1: an exit code not 0 with no fault; one that differs from the
    # others; 1 with no failing cell in the JSON
    (("none", 2, "json.stdout.rc", "3\n"), "fault none, --jobs 2, json.stdout: exited 3"),
    (("2,1", 2, "text.rc", "0\n"), "fault 2,1, --jobs 2, text: exited 0, --jobs 1 csv 1"),
    (("2,1", 2, "json", _PASSING["json"]), "fault 2,1, --jobs 2, json: 0 failing cells"),
    # 2: a report that --jobs changes
    (("none", 2, "csv", "task,case_key,status,witness,severity\n"),
     "fault none, --jobs 2, csv: differs from --jobs 1"),
    # 3: JSON that json.dumps(indent=2) does not write
    (("none", 1, "json", json.dumps(json.loads(_PASSING["json"])) + "\n"),
     "fault none, --jobs 1, json: not the bytes json.dumps(indent=2) writes"),
    # 4: stdout not the report --out wrote
    (("2,1", 1, "text.stdout", _PASSING["text"]),
     "fault 2,1, --jobs 1, text: stdout and --out differ"),
    # 6: cases out of key order
    (("none", 2, "json.stdout", _outputs({}, 0.5, order=(0, 2, 1))["json"]),
     "fault none, --jobs 2, json.stdout: transform: case (1,) after (2,)"),
])
def test_each_rule_names_the_broken_output(reports, edit, rule):
    assert reports.broken_rules(_runs()) == []
    assert f"{_ARGV}, {rule}" in reports.broken_rules(_runs(edit))


def test_a_fault_that_stops_biting_breaks_rule_5(reports):
    runs = _runs()
    for jobs in (1, 2):
        runs[_ARGV, jobs, "2,1"] = _PASSING
    assert reports.broken_rules(runs) == [f"{_ARGV}, fault 2,1, --jobs 1, csv: exited 0, not 1"]


def test_a_run_that_failed_is_named(reports):
    runs = _runs()
    runs[_ARGV, 2, "none"] = "Command ... timed out after 300 seconds; "
    assert reports.broken_rules(runs) == [
        f"{_ARGV}, fault none, --jobs 2: Command ... timed out after 300 seconds; "]


def test_runs_that_differ_from_the_other_commit_are_named(reports):
    ours = _runs()
    assert reports.differing_runs(ours, _runs()) == []
    theirs = _runs()
    theirs[_ARGV, 2, "2,1"] = _outputs({1: "lhs 4 != rhs 2"}, 9.0)
    theirs[_ARGV, 1, "none"]["text.rc"] = "1\n"
    theirs[_ARGV, 1, "2,1"] = "exited 3; ZeroDivisionError"
    assert reports.differing_runs(ours, theirs) == [
        f"{_ARGV} --jobs 1, fault none: text.rc differ",
        f"{_ARGV} --jobs 1, fault 2,1: the run failed there: exited 3; ZeroDivisionError",
        f"{_ARGV} --jobs 2, fault 2,1: csv, csv.stdout, json, json.stdout, text, text.stdout "
        "differ; CSV columns witness differ in 1 row(s), first at transform n=1",
    ]


def test_a_row_only_one_commit_has_differs_in_every_column(reports):
    ours, theirs = _outputs({}, 0.5)["csv"], _outputs({}, 0.5)["csv"]
    assert reports._csv_difference(ours, theirs + "transform,n=3,pass,,theorem\n") == (
        "CSV columns task, case_key, status, witness, severity differ in 1 row(s), "
        "first at transform n=3")
