import csv
import io
import json

import pytest

from ivpverify.gridrun import run_grid, worker_pool
from ivpverify.report import (
    CaseResult,
    CombinedReport,
    VerificationReport,
    make_case,
    serialize_report,
)


def _sample_report(fail=False):
    cases = [
        make_case((("l", 1), ("n", 2)), True),
        make_case((("l", 1), ("n", 3)), not fail, "value 7 not divisible by 9"),
        make_case((("l", 2), ("n", 2)), True, severity="conjecture"),
    ]
    return VerificationReport(
        task="demo", config={"l_max": 2, "n_max": 3}, cases=cases, wall_time_s=0.125
    )


def test_case_result_label_and_sort_key():
    c = make_case((("l", 1), ("n", 2), ("eps", -1)), True)
    assert c.label == "l=1;n=2;eps=-1"
    assert c.sort_key == (1, 2, -1)
    assert c.ok and c.witness is None


def test_make_case_drops_witness_on_pass():
    c = make_case((("n", 1),), True, "should not appear")
    assert c.witness is None
    c = make_case((("n", 1),), False, "kept")
    assert c.witness == "kept"


def test_report_counts():
    good = _sample_report()
    assert (good.total, good.passed, good.failed) == (3, 3, 0)
    assert good.ok and good.failures() == []
    bad = _sample_report(fail=True)
    assert (bad.total, bad.passed, bad.failed) == (3, 2, 1)
    assert not bad.ok
    assert bad.failures()[0].witness == "value 7 not divisible by 9"


def test_json_round_trip():
    report = _sample_report(fail=True)
    payload = json.loads(serialize_report(report, "json"))
    assert payload["task"] == "demo"
    assert payload["summary"] == {"total": 3, "pass": 2, "fail": 1}
    assert payload["meta"]["wall_time_s"] == 0.125
    keys = [case["key"] for case in payload["cases"]]
    assert keys == [{"l": 1, "n": 2}, {"l": 1, "n": 3}, {"l": 2, "n": 2}]
    assert payload["cases"][2]["severity"] == "conjecture"


def test_json_meta_can_be_excluded():
    report = _sample_report()
    payload = json.loads(serialize_report(report, "json", include_meta=False))
    assert "meta" not in payload


def test_csv_shape():
    rows = list(csv.reader(io.StringIO(serialize_report(_sample_report(True), "csv"))))
    assert rows[0] == ["task", "case_key", "status", "witness", "severity"]
    assert rows[1] == ["demo", "l=1;n=2", "pass", "", "theorem"]
    assert rows[2] == ["demo", "l=1;n=3", "fail", "value 7 not divisible by 9", "theorem"]
    assert rows[3][4] == "conjecture"


def test_text_summary_lines():
    text = serialize_report(_sample_report(), "text")
    assert text.endswith("PASS 3/3\n")
    text = serialize_report(_sample_report(True), "text")
    assert text.endswith("FAIL 1/3\n")
    assert "witness: value 7" in text


def test_empty_report_serializes():
    empty = VerificationReport(task="demo", config={}, cases=[])
    payload = json.loads(serialize_report(empty, "json"))
    assert payload["summary"] == {"total": 0, "pass": 0, "fail": 0}
    assert serialize_report(empty, "csv").splitlines() == [
        "task,case_key,status,witness,severity"
    ]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        serialize_report(_sample_report(), "yaml")


def test_combined_report_aggregates():
    combined = CombinedReport(
        task="all",
        config={"n_max": 3},
        reports=[_sample_report(), _sample_report(True)],
    )
    assert combined.total == 6 and combined.failed == 1 and not combined.ok
    payload = json.loads(serialize_report(combined, "json"))
    assert len(payload["reports"]) == 2
    assert all("meta" not in r for r in payload["reports"])
    rows = serialize_report(combined, "csv").splitlines()
    assert len(rows) == 1 + 6
    assert serialize_report(combined, "text").endswith("overall: FAIL 1/6\n")


def _square_row(key):
    """Row key n: the cells n + 100 and n, out of order."""
    return [make_case((("n", n),), n * n >= 0) for n in (key + 100, key)]


def test_run_grid_sorts_cases_and_times():
    report = run_grid("demo", {}, [3, 1, 2], _square_row)
    assert [c.sort_key for c in report.cases] == [(1,), (2,), (3,), (101,), (102,), (103,)]
    assert report.wall_time_s >= 0


def test_run_grid_parallel_matches_serial():
    serial = run_grid("demo", {}, range(20), _square_row, jobs=1)
    with worker_pool(4) as pool:
        parallel = run_grid("demo", {}, range(20), _square_row, jobs=4, pool=pool)
    assert serial.cases == parallel.cases
    with worker_pool(2) as pool:
        first = run_grid("demo", {}, range(5), _square_row, jobs=2, pool=pool)
        shared = run_grid("demo", {}, range(20), _square_row, jobs=2, pool=pool)
    assert shared.cases == serial.cases and first.total == 10
    with pytest.raises(ValueError):
        run_grid("demo", {}, [1], _square_row, jobs=0)
    # A parallel call opens no pool of its own.
    with pytest.raises(ValueError, match="worker_pool"):
        run_grid("demo", {}, range(20), _square_row, jobs=2)
