import csv
import dataclasses
import io
import json
import os
import pickle
import time
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inprocess_pool import stand_in_pool, watch_rows
from ivpverify import cli, gridrun
from ivpverify import report as report_module
from ivpverify.gridrun import collect, worker_pool
from ivpverify.report import (
    CaseResult,
    CombinedReport,
    VerificationReport,
    make_case,
    serialize_report,
)


def to_dict(report, include_meta=True) -> dict:
    """The report as a dict, in the JSON schema's key order: the stdlib
    oracle whose `json.dumps(..., indent=2) + "\\n"` the JSON writer must
    reproduce byte for byte.  Sub-reports carry no meta.  The summary is
    counted here from the cases, not read from the report: any status
    other than "pass" is a failure."""
    cases = _all_cases(report)
    failed = sum(1 for c in cases if c.status != "pass")
    d = {
        "task": report.task,
        "config": dict(report.config),
        "summary": {"total": len(cases), "pass": len(cases) - failed, "fail": failed},
    }
    if isinstance(report, CombinedReport):
        d["reports"] = [to_dict(r, include_meta=False) for r in report.reports]
    else:
        d["cases"] = [
            {
                "key": {name: value for name, value in c.key},
                "status": c.status,
                "witness": c.witness,
                "severity": c.severity,
            }
            for c in report.cases
        ]
        d["notes"] = list(report.notes)
    if include_meta:
        d["meta"] = {"wall_time_s": round(report.wall_time_s, 6)}
    return d


def _all_cases(report) -> list:
    """The cases of a report, or of every sub-report of a CombinedReport."""
    if isinstance(report, CombinedReport):
        return [c for r in report.reports for c in r.cases]
    return report.cases


def _stdlib_json(report, include_meta):
    return json.dumps(to_dict(report, include_meta), indent=2) + "\n"


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
    c = make_case((("n", 1),), ok=True, witness="x", severity="conjecture")
    assert (c.status, c.witness, c.severity) == ("pass", None, "conjecture")


def test_case_result_is_an_immutable_picklable_tuple():
    c = make_case([("l", 1), ("n", 3)], False, "value 7 not divisible by 9", "conjecture")
    fields = ((("l", 1), ("n", 3)), "fail", "value 7 not divisible by 9", "conjecture")
    assert c == CaseResult(*fields) and c == fields
    assert type(c.key) is tuple and hash(c) == hash(tuple(c))
    for name in ("key", "status", "witness", "severity"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    copy = pickle.loads(pickle.dumps(c))
    assert type(copy) is CaseResult and copy == c and copy.label == "l=1;n=3"


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


def test_collect_sorts_cases_and_times():
    def slow_rows():
        for key in (3, 1, 2):
            time.sleep(0.01)
            yield _square_row(key)

    report = collect("demo", {"n_max": 3}, slow_rows(), ["a note"])
    assert [c.sort_key for c in report.cases] == [(1,), (2,), (3,), (101,), (102,), (103,)]
    assert report.config == {"n_max": 3} and report.notes == ["a note"]
    # The wall time is the time spent reading the results.
    assert report.wall_time_s >= 0.03


def test_collect_orders_two_key_shapes_by_their_values():
    # catalan-form's identity and terms cells, rows fed in reverse order.
    rows = [
        [make_case((("part", "identity"), ("n", n)), True) for n in (1, 2, 3)],
        *([make_case((("part", "terms"), ("n", n), ("x", x)), True) for x in (-1, 0, 1)]
          for n in (1, 2, 3)),
    ]
    report = collect("catalan-form", {}, reversed(rows), [])
    assert report.cases == sorted(report.cases, key=lambda c: c.sort_key)
    assert [c.label for c in report.cases[:4]] == [
        "part=identity;n=1", "part=identity;n=2", "part=identity;n=3", "part=terms;n=1;x=-1",
    ]
    assert report.cases[-1].label == "part=terms;n=3;x=1"


def test_every_task_orders_its_cases_by_sort_key():
    report = cli.run(cli.GridConfig("all", n_max=8))
    for sub in report.reports:
        assert sub.cases == sorted(sub.cases, key=lambda c: c.sort_key), sub.task


def test_runner_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # one worker besides the caller
    started = []

    class CountingPool(gridrun.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(gridrun, "ProcessPoolExecutor", CountingPool)
    rows = [partial(_square_row, key) for key in range(20)]
    with worker_pool(1) as run_rows:
        serial = list(run_rows(rows))
    assert started == []
    with worker_pool(4) as run_rows:
        assert list(run_rows(rows)) == serial
    # Two runner calls in one block share one pool, and may be read in
    # either order.
    with worker_pool(2) as run_rows:
        first, second = run_rows(rows[:5]), run_rows(rows)
        assert list(second) == serial and list(first) == serial[:5]
    assert len(started) == 2


def test_serial_runner_runs_a_row_when_its_result_is_read():
    ran = []

    def row(key):
        ran.append(key)
        return _square_row(key)

    with worker_pool(1) as run_rows:
        results = run_rows([partial(row, key) for key in range(3)])
        assert ran == []
        next(results)
        assert ran == [0]


def test_a_raising_block_cancels_the_queued_rows(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pool = stand_in_pool(monkeypatch)
    with pytest.raises(RuntimeError, match="row failed"):
        with worker_pool(2) as run_rows:
            run_rows([partial(_square_row, 1)])
            raise RuntimeError("row failed")
    # The workers are told to stop: a stopped worker runs no more rows.
    assert gridrun._stop.is_set() and gridrun._run_chunk([partial(_square_row, 1)]) == []
    with worker_pool(2) as run_rows:
        assert list(run_rows([partial(_square_row, 1)])) == [_square_row(1)]
    assert not gridrun._stop.is_set()
    # Only the raising block shuts its pool down, cancelling what is queued.
    assert pool.shutdowns == [[True], []]


_CHUNKS = 2 * gridrun._SPLIT  # on two cores: the caller and one worker
_ROWS = 3 * _CHUNKS + 5  # some chunks one row longer than others


@pytest.mark.parametrize("started", [0, 1, _CHUNKS])
def test_the_caller_runs_the_chunks_no_worker_started(monkeypatch, started):
    # The stand-in pool starts the first `started` chunks; the caller
    # runs every other one itself, from the back, and waits for no chunk
    # that no worker took.  Each row runs once, and the results come
    # back in row order.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pool = stand_in_pool(monkeypatch, started=started)
    ran = []

    def row(key):
        ran.append(key)
        return _square_row(key)

    rows = [partial(row, key) for key in range(_ROWS)]
    serial = list(map(gridrun._call, rows))
    ran.clear()
    with worker_pool(2) as run_rows:
        assert list(run_rows(rows)) == serial
    chunk_keys = [list(range(i, _ROWS, _CHUNKS)) for i in range(_CHUNKS)]
    assert ran == [key for i in [*range(started), *reversed(range(started, _CHUNKS))]
                   for key in chunk_keys[i]]
    assert [future.cancelled() for future in pool.futures] == [
        i >= started for i in range(_CHUNKS)
    ]
    assert pool.late == []


def test_a_failing_chunk_stops_the_caller_before_its_next_row(monkeypatch):
    # The worker's chunk 0 is running when the caller starts; it fails
    # during the caller's first row, and the caller must raise its error
    # before it runs another.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pool = stand_in_pool(monkeypatch, started=1, start=lambda future, fn, *args: None)
    ran = []

    def row(key):
        ran.append(key)
        if not pool.futures[0].done():
            pool.futures[0].set_exception(ZeroDivisionError("in a worker"))
        return _square_row(key)

    with pytest.raises(ZeroDivisionError, match="in a worker"):
        with worker_pool(2) as run_rows:
            run_rows([partial(row, key) for key in range(_ROWS)])
    assert ran == [_CHUNKS - 1]
    assert pool.shutdowns == [[True]]


def test_a_chunk_failed_before_the_caller_starts_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def fail(future, fn, *args):
        future.set_exception(ZeroDivisionError("in a worker"))

    stand_in_pool(monkeypatch, started=1, start=fail)
    ran = []
    watch_rows(monkeypatch, ran.append)
    assert cli.main(["all", "--n-max", "4", "--l-max", "2", "--jobs", "2"]) == 3
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: ZeroDivisionError('in a worker')" in captured.err


def test_jobs_on_one_core_run_serially(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pool = stand_in_pool(monkeypatch)
    config = cli.GridConfig("all", n_max=4, l_max=2, x_min=-2, x_max=2, jobs=2)
    parallel = cli.run(config)
    assert pool.opened == []
    serial = cli.run(dataclasses.replace(config, jobs=1))
    assert [r.cases for r in parallel.reports] == [r.cases for r in serial.reports]


# Non-ASCII (BMP and astral), quote, backslash, and C0/DEL/U+2028 controls.
_text = st.text(
    st.sampled_from('ab é€😀"\\/\n\t\r\b\f\x00\x1f\x7f\u2028') | st.characters(),
    max_size=6,
)
_scalar = st.integers() | _text | st.booleans() | st.none()
_cases = st.builds(
    CaseResult,
    key=st.lists(st.tuples(_text, _scalar), max_size=4, unique_by=lambda kv: kv[0]).map(tuple),
    status=st.sampled_from(["pass", "fail"]) | _text,
    witness=st.none() | _text,
    severity=st.sampled_from(["theorem", "conjecture"]) | _text,
)
_config = st.dictionaries(_text, _scalar | st.floats(), max_size=3)
_wall = st.floats(min_value=0, max_value=1e6)
_reports = st.builds(
    VerificationReport,
    task=_text,
    config=_config,
    cases=st.lists(_cases, max_size=4),
    notes=st.lists(_text, max_size=3),
    wall_time_s=_wall,
)
_combined = st.builds(
    CombinedReport,
    task=_text,
    config=_config,
    reports=st.lists(_reports, max_size=3),
    wall_time_s=_wall,
)


_EMPTY = VerificationReport(task="", config={}, cases=[make_case((), True)])


@settings(max_examples=200, deadline=None)
@given(report=_reports | _combined, include_meta=st.booleans())
@example(report=_EMPTY, include_meta=True)
@example(report=CombinedReport(task="all", config={}, reports=[]), include_meta=False)
@example(
    report=CombinedReport(task="all", config={}, reports=[_EMPTY, _sample_report(True)]),
    include_meta=True,
)
def test_json_writer_matches_stdlib_indent_encoder(report, include_meta):
    assert serialize_report(report, "json", include_meta) == _stdlib_json(report, include_meta)


# Runs: one key shape, then 0-40 cases on it.  A column holds ints
# (negative, and beyond 2**63), bools, or any scalar; names, statuses
# and witnesses hold %, %d and %%, which the writer's templates must
# escape; a run's cases draw from 1-3 outcomes, so outcomes repeat and
# alternate.
_percent = st.sampled_from(["n", "%", "%d", "%%", "%s", "x%(n)s"]) | _text
_ints = (
    st.integers()
    | st.integers(min_value=2 ** 63, max_value=2 ** 100)
    | st.integers(min_value=-(2 ** 100), max_value=-(2 ** 63))
)
_outcomes = st.tuples(
    st.sampled_from(["pass", "fail"]) | _percent,
    st.none() | _percent,
    st.sampled_from(["theorem", "conjecture"]) | _percent,
)


@st.composite
def _run_reports(draw) -> VerificationReport:
    names = draw(st.lists(_percent, max_size=4, unique=True))
    columns = [draw(st.sampled_from([_ints, st.booleans(), _scalar])) for _ in names]
    outcomes = draw(st.lists(_outcomes, min_size=1, max_size=3))
    cases = [
        CaseResult(tuple((name, draw(column)) for name, column in zip(names, columns)),
                   *draw(st.sampled_from(outcomes)))
        for _ in range(draw(st.integers(min_value=0, max_value=40)))
    ]
    return VerificationReport(task="runs", config={}, cases=cases)


def _cases_report(*cases) -> VerificationReport:
    return VerificationReport(task="runs", config={}, cases=list(cases))


@settings(max_examples=200, deadline=None)
@given(report=_run_reports(), slice_=st.sampled_from([1, 2, 3, 1024]))
@example(  # an all-int run of three cases
    report=_cases_report(*(make_case((("l", l), ("n", n)), True) for l, n in
                           [(1, 2), (1, 3), (2, -(2 ** 70))])),
    slice_=2,
)
@example(  # a bool-valued run: True is true, not 1
    report=_cases_report(make_case((("flag", True), ("n", 1)), True),
                         make_case((("flag", False), ("n", 0)), True)),
    slice_=1024,
)
@example(  # two key shapes in one outcome, as catalan-form writes them
    report=_cases_report(
        make_case((("part", "identity"), ("n", 1)), True),
        make_case((("part", "identity"), ("n", 2)), True),
        make_case((("part", "terms"), ("n", 1), ("x", -1)), True),
        make_case((("part", "terms"), ("n", 1), ("x", 0)), False, "100% %d %%"),
    ),
    slice_=1,
)
def test_json_writer_matches_stdlib_indent_encoder_on_runs(report, slice_):
    # slice_ stands in for the writer's cases per %-format, so that
    # short runs cross slice boundaries too.
    with mock.patch.object(report_module, "_SLICE", slice_):
        assert serialize_report(report, "json") == _stdlib_json(report, True)


@pytest.mark.parametrize("report", [
    VerificationReport(task="demo", config={}, cases=[make_case((("n", Fraction(1, 2)),), True)]),
    VerificationReport(task="demo", config={"x": Fraction(1, 2)}, cases=[]),
])
def test_unencodable_value_raises_type_error_and_exits_three(report, capsys, monkeypatch):
    with pytest.raises(TypeError):
        _stdlib_json(report, True)
    with pytest.raises(TypeError):
        serialize_report(report, "json")
    monkeypatch.setattr(cli, "run", lambda config: report)
    assert cli.main(["transform", "--n-max", "1", "--format", "json"]) == 3
    assert "TypeError" in capsys.readouterr().err
