import csv
import io
import json
import os
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cell_oracle import CaseResult, cell_case
from conftest import cases, cases_of, report_of, running, serialize_report, wait_until
from ivpverify import cli, gridrun, identities, qpoly
from ivpverify import report as report_module
from ivpverify.gridrun import run_rows
from ivpverify.report import (
    Block,
    CombinedReport,
    VerificationReport,
    row_cases,
)


def to_dict(report, include_meta=True) -> dict:
    """The report as a dict, in the JSON schema's key order: the stdlib
    oracle whose `json.dumps(..., indent=2) + "\\n"` the JSON writer must
    reproduce byte for byte.  Sub-reports carry no meta.  The summary is
    counted here from the cases, not read from the report: any status
    other than "pass" is a failure."""
    every = _all_cases(report)
    failed = sum(1 for c in every if c.status != "pass")
    d = {
        "task": report.task,
        "config": dict(report.config),
        "summary": {"total": len(every), "pass": len(every) - failed, "fail": failed},
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
            for c in cases(report)
        ]
        d["notes"] = list(report.notes)
    if include_meta:
        d["meta"] = {"wall_time_s": round(report.wall_time_s, 6)}
    return d


def _all_cases(report) -> list:
    """The cases of a report, or of every sub-report of a CombinedReport."""
    if isinstance(report, CombinedReport):
        return [c for r in report.reports for c in cases(r)]
    return cases(report)


def _stdlib_json(report, include_meta):
    return json.dumps(to_dict(report, include_meta), indent=2) + "\n"


def _sample_report(fail=False):
    cases = [
        cell_case((("l", 1), ("n", 2)), True),
        cell_case((("l", 1), ("n", 3)), not fail, "value 7 not divisible by 9"),
        cell_case((("l", 2), ("n", 2)), True, severity="conjecture"),
    ]
    return report_of("demo", cases, {"l_max": 2, "n_max": 3}, wall_time_s=0.125)


def test_row_cases_keeps_witnesses_of_failing_cells_only():
    # The witness is formed once for each failing cell, in order, and
    # for no passing cell.
    calls = []

    def witness(i):
        calls.append(i)
        return f"w{i}"

    block = row_cases(("n",), [[1, 2, 3, 4]], [True, False, False, True], witness,
                      severity="conjecture")
    assert calls == [1, 2]
    assert block.witnesses == {1: "w1", 2: "w2"} and block.status == bytearray([1, 0, 0, 1])
    assert [(c.status, c.witness, c.severity) for c in cases_of(block)] == [
        ("pass", None, "conjecture"), ("fail", "w1", "conjecture"),
        ("fail", "w2", "conjecture"), ("pass", None, "conjecture"),
    ]
    calls.clear()
    block = row_cases(("n",), [[1]], [True], witness)
    assert calls == [] and block.witnesses == {} and block.severity == "theorem"
    assert cases_of(row_cases(("n",), [[1]], [False], lambda i: "kept")) == [
        CaseResult((("n", 1),), "fail", "kept")
    ]


def test_report_counts():
    good = _sample_report()
    assert (good.total, good.passed, good.failed) == (3, 3, 0)
    assert good.ok and [c for c in cases(good) if not c.ok] == []
    bad = _sample_report(fail=True)
    assert (bad.total, bad.passed, bad.failed) == (3, 2, 1)
    assert not bad.ok
    assert [c.witness for c in cases(bad) if not c.ok] == ["value 7 not divisible by 9"]


class _CountedStatus(bytearray):
    """A status that counts the passes that count its failures."""

    passes = 0

    def count(self, *args):
        self.passes += 1
        return super().count(*args)


def test_a_report_counts_its_failures_once():
    # A report counts its failures as it is made: ok, passed and failed,
    # read again and again and by the text writer's two verdicts, make
    # no further pass over the status bytes.
    blocks = [b._replace(status=_CountedStatus(b.status)) for b in _sample_report(True).blocks]
    report = VerificationReport(task="demo", config={}, blocks=blocks)
    combined = CombinedReport(task="all", config={}, reports=[report])
    for _ in range(3):
        assert (report.ok, report.passed, report.failed) == (False, 2, 1)
        assert (combined.ok, combined.passed, combined.failed) == (False, 2, 1)
    assert serialize_report(combined, "text").endswith("overall: FAIL 1/3\n")
    assert [b.status.passes for b in blocks] == [1, 1]


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
    empty = VerificationReport(task="demo", config={}, blocks=[])
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
    """Row key n: the passing cells n + 100 and n, out of order."""
    return Block(("n",), [[key + 100, key]], bytearray([1, 1]), {})


def test_a_task_report_times_the_reading_of_its_rows():
    # At --jobs 1 a row runs when its result is read, as its task's
    # report reads its slice: the slowed row's time is in its own task's
    # wall time.
    real = identities.sun_one_row

    def slow(*args):
        time.sleep(0.03)
        return real(*args)

    with mock.patch.object(identities, "sun_one_row", slow):
        report = cli.run(cli.GridConfig("all", n_max=3))
    sub = {sub.task: sub for sub in report.reports}["sun-one"]
    assert sub.wall_time_s >= 0.03
    assert sub.config == {"n_max": 3} and sub.notes == []


def test_every_task_orders_its_cases_by_sort_key():
    report = cli.run(cli.GridConfig("all", n_max=8))
    for sub in report.reports:
        assert cases(sub) == sorted(cases(sub), key=lambda c: c.sort_key), sub.task


def test_runner_parallel_matches_serial(cores, forks):
    cores(2)  # one worker besides the caller
    rows = [partial(_square_row, key) for key in range(20)]
    serial = list(run_rows(rows, 1))
    assert forks == []
    assert list(run_rows(rows, 4)) == serial
    # Each parallel call forks its own worker, reaped before it returns,
    # and its results may be read in either order.
    first, second = run_rows(rows[:5], 2), run_rows(rows, 2)
    assert list(second) == serial and list(first) == serial[:5]
    assert len(forks) == 3


def test_serial_runner_runs_a_row_when_its_result_is_read():
    ran = []

    def row(key):
        ran.append(key)
        return _square_row(key)

    results = run_rows([partial(row, key) for key in range(3)], 1)
    assert ran == []
    next(results)
    assert ran == [0]


_ROWS = 197  # up to gridrun._MAX_CHUNKS rows, every row is a chunk of its own
_MANY = 2 * gridrun._MAX_CHUNKS + 52  # chunks 0..51 of three rows, the rest of two


def _dealt(numbers) -> int:
    """The read end of a deal of these chunk numbers."""
    deal, dealer = os.pipe()
    os.write(dealer, b"".join(i.to_bytes(gridrun._RECORD, "little") for i in numbers))
    os.close(dealer)
    return deal


def test_a_drained_deal_runs_no_further_row(cores, forks, row_log):
    # The take loop, in this process: from a deal drained after one
    # chunk was taken it takes no chunk and runs no row; from a full
    # deal it runs every chunk in the deal's order.
    chunks = [[partial(row_log.record, key) for key in keys] for keys in ([0, 2], [1, 3], [4])]
    deal = _dealt(range(3))
    os.read(deal, gridrun._RECORD)
    gridrun._drain(deal)
    assert gridrun._take(deal, chunks) == []
    os.close(deal)
    assert row_log.read() == []
    deal = _dealt(range(2))
    assert gridrun._take(deal, chunks) == [(0, [None, None]), (1, [None, None])]
    os.close(deal)
    assert [key for _, key in row_log.read()] == ["0", "2", "1", "3"]
    # In a run, a row of the caller's that raises drains the deal, which
    # stops the worker before its next row.  Every row the worker runs
    # takes 50 ms; the caller's first row waits for the worker's first,
    # then raises.
    cores(2)
    caller = os.getpid()

    def row(key):
        if os.getpid() == caller:
            wait_until(row_log.read)
            raise RuntimeError("row failed")
        row_log.record(key)
        time.sleep(0.05)
        return _square_row(key)

    row_log.path.write_text("")
    with pytest.raises(RuntimeError, match="row failed"):
        run_rows([partial(row, key) for key in range(_ROWS)], 2)
    assert 1 <= len(row_log.read()) <= 3
    # The next run has a full deal of its own.
    assert list(run_rows([partial(_square_row, 1)] * 2, 2)) == [_square_row(1)] * 2
    assert len(forks) == 2


def test_a_failed_fork_stops_the_workers_already_started(monkeypatch, cores, forks, row_log):
    # On three cores the second fork fails: the caller drains the deal
    # before it raises, so the one worker forked stops before its next
    # row, although every row it runs takes 50 ms.
    cores(3)
    real_fork = os.fork

    def fork():
        if forks:
            raise OSError("fork failed")
        return real_fork()

    def row(key):
        row_log.record(key)
        time.sleep(0.05)
        return _square_row(key)

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="fork failed"):
        run_rows([partial(row, key) for key in range(_ROWS)], 3)
    assert len(forks) == 1 and len(row_log.read()) <= 3


def test_the_deal_fits_in_one_page(monkeypatch, cores, forks):
    # 3000 rows are dealt as _MAX_CHUNKS chunks, in one write that a
    # pipe's smallest buffer holds.
    cores(2)
    caller = os.getpid()
    writes = []
    real_write = os.write

    def write(fd, data):
        if os.getpid() == caller:
            writes.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    rows = [partial(_square_row, key) for key in range(3000)]
    assert list(run_rows(rows, 2)) == [_square_row(key) for key in range(3000)]
    assert writes == [4096]


def test_past_the_chunk_cap_a_chunk_is_a_stripe_of_rows(cores, forks, row_log):
    # Past _MAX_CHUNKS rows, chunk i holds rows[i::_MAX_CHUNKS]: each
    # process runs whole chunks, each in row order, every row runs once,
    # and the results come back in row order.
    cores(2)
    caller = os.getpid()
    stride = gridrun._MAX_CHUNKS

    def row(key):
        row_log.record(key)
        return _square_row(key)

    rows = [partial(row, key) for key in range(_MANY)]
    assert list(run_rows(rows, 2)) == [_square_row(key) for key in range(_MANY)]
    ran = []
    for pid in (caller, *forks):
        keys = [int(key) for key in row_log.keys(pid)]
        while keys:
            chunk = list(range(keys[0], _MANY, stride))
            assert keys[0] < stride and keys[:len(chunk)] == chunk
            ran += chunk
            keys = keys[len(chunk):]
    assert sorted(ran) == list(range(_MANY))
    # A row that raises in the worker, once the caller has started a
    # chunk, ends the run within that chunk: the caller's first row
    # waits until the worker has failed and gone, and the caller then
    # runs the rest of its chunk and no other.
    row_log.path.write_text("")

    def failing(key):
        if os.getpid() != caller:
            wait_until(lambda: row_log.keys(caller))
            raise ZeroDivisionError("in a worker")
        row_log.record(key)
        forks.wait_for_exit(forks[-1])
        return _square_row(key)

    with pytest.raises(ZeroDivisionError, match="in a worker"):
        run_rows([partial(failing, key) for key in range(_MANY)], 2)
    keys = [int(key) for key in row_log.keys(caller)]
    assert keys[0] < stride and keys == list(range(keys[0], _MANY, stride))
    assert len(forks) == 2


@pytest.mark.parametrize("started", [0, 1, 64])
def test_the_caller_runs_the_chunks_no_worker_started(monkeypatch, cores, forks, row_log, started):
    # The worker takes the first `started` chunks of the deal, one row
    # each, and runs them, then takes no more until the caller is done;
    # the caller runs every other chunk itself, in the deal's order, and
    # waits for none that no process took.  Each row runs once, and the
    # results come back in row order.
    cores(2)
    caller = os.getpid()
    count = min(_ROWS, gridrun._MAX_CHUNKS)
    chunk_keys = [list(range(i, _ROWS, count)) for i in range(count)]
    gate, opener = os.pipe()
    real_take = gridrun._take

    def take(deal, chunks):
        if os.getpid() != caller:  # the worker: its first chunks, then the rest after the caller
            first = _dealt(int.from_bytes(os.read(deal, gridrun._RECORD), "little")
                           for _ in range(started))
            taken = real_take(first, chunks)
            os.close(first)
            os.read(gate, 1)
            return taken + real_take(deal, chunks)
        worker_rows = sum(map(len, chunk_keys[:started]))
        try:
            wait_until(lambda: len(row_log.read()) >= worker_rows)
            return real_take(deal, chunks)
        finally:  # the worker goes on even if a row of the caller's raises
            os.write(opener, b"x")

    def row(key):
        row_log.record(key)
        return _square_row(key)

    monkeypatch.setattr(gridrun, "_take", take)
    rows = [partial(row, key) for key in range(_ROWS)]
    try:
        assert list(run_rows(rows, 2)) == [_square_row(key) for key in range(_ROWS)]
    finally:
        os.close(gate)
        os.close(opener)
    (worker,) = forks
    assert [int(key) for key in row_log.keys(worker)] == [
        key for keys in chunk_keys[:started] for key in keys
    ]
    assert [int(key) for key in row_log.keys(caller)] == [
        key for keys in chunk_keys[started:] for key in keys
    ]


def test_a_failing_chunk_stops_the_caller_before_its_next_row(cores, forks, row_log):
    # The worker's first row fails during the caller's first row, which
    # waits until the worker has gone; the caller must raise the
    # worker's error, with the worker's traceback as its cause, before
    # it runs another row.  The worker's row fails only once the
    # caller's has started: else it could drain the deal before the
    # caller takes any chunk.
    cores(2)
    caller = os.getpid()

    def row(key):
        if os.getpid() != caller:
            wait_until(row_log.read)
            raise ZeroDivisionError("in a worker")
        row_log.record(key)
        forks.wait_for_exit(forks[0])
        return _square_row(key)

    with pytest.raises(ZeroDivisionError, match="in a worker") as raised:
        run_rows([partial(row, key) for key in range(_ROWS)], 2)
    assert len(row_log.read()) == 1
    cause = raised.value.__cause__
    assert isinstance(cause, gridrun.WorkerTraceback)
    assert "ZeroDivisionError: in a worker" in str(cause) and "in row" in str(cause)


def test_a_chunk_failed_before_the_caller_starts_exits_three(monkeypatch, cores, capsys, forks,
                                                             row_log, watch_rows):
    # The caller takes no chunk until the worker, whose first row
    # fails, has gone: it then runs no row at all.
    cores(2)
    caller = os.getpid()
    real_take = gridrun._take

    def take(deal, chunks):
        if os.getpid() == caller:
            forks.wait_for_exit(forks[0])
        return real_take(deal, chunks)

    def on_run(row):
        if os.getpid() != caller:
            raise ZeroDivisionError("in a worker")
        row_log.record(row)

    monkeypatch.setattr(gridrun, "_take", take)
    watch_rows(on_run)
    assert cli.main(["all", "--n-max", "4", "--l-max", "2", "--jobs", "2"]) == 3
    assert row_log.read() == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: ZeroDivisionError('in a worker')" in captured.err


@contextmanager
def _hang_guard(forks, seconds=20):
    """Kill every worker still running `seconds` into the block, so that
    a run that would wait for one forever fails its test instead; yields
    the list of workers killed."""
    killed = []

    def kill(signum, frame):
        for pid in forks:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)

    previous = signal.signal(signal.SIGALRM, kill)
    # not inherited by a forked worker; the test's deadline waits
    left = signal.setitimer(signal.ITIMER_REAL, seconds)[0]
    try:
        yield killed
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        signal.setitimer(signal.ITIMER_REAL, left)


def _big_row(row_log, key):
    """Row `key`, logged: 100 failing cases, about 100 KB of witnesses."""
    row_log.record(key)
    return Block(("n", "i"), [[key] * 100, list(range(100))], bytearray(100),
                 {i: "w" * 1000 for i in range(100)})


def test_a_failing_caller_reads_a_worker_holding_a_full_pipe(monkeypatch, cores, forks, row_log):
    # The worker's results outgrow the pipe's 64 KiB, so it can only
    # leave once the caller reads them; the caller's own row raises
    # after the worker has run two rows, and must still read and reap
    # the worker instead of waiting for it first.
    cores(2)
    caller = os.getpid()

    def row(key):
        if os.getpid() == caller:
            raise RuntimeError("the caller's row failed")
        return _big_row(row_log, key)

    real_take = gridrun._take

    def take(deal, chunks):  # the caller's chunks start after the worker's second
        if os.getpid() == caller:
            wait_until(lambda: len(row_log.read()) >= 2)
        return real_take(deal, chunks)

    monkeypatch.setattr(gridrun, "_take", take)
    with _hang_guard(forks) as killed:
        with pytest.raises(RuntimeError, match="the caller's row failed"):
            run_rows([partial(row, key) for key in range(64)], 2)  # one row a chunk
    assert killed == [] and len(row_log.read()) >= 2


def test_an_interrupt_while_reading_a_worker_still_reaps_it(monkeypatch, cores, forks, row_log):
    # An interrupt at the caller's first read of the worker's results
    # (more than the pipe holds) closes the pipe: the worker, blocked
    # in its write, fails at once and is reaped.
    cores(2)
    caller = os.getpid()
    real_take, real_read = gridrun._take, os.read
    taken = []

    def take(deal, chunks):  # the caller starts after the worker's second row
        if os.getpid() != caller:
            return real_take(deal, chunks)
        wait_until(lambda: len(row_log.read()) >= 2)
        taken.append(real_take(deal, chunks))
        return taken[-1]

    def read(fd, size):
        if os.getpid() == caller and taken:
            taken.clear()
            raise KeyboardInterrupt
        return real_read(fd, size)

    monkeypatch.setattr(gridrun, "_take", take)
    monkeypatch.setattr(os, "read", read)
    with _hang_guard(forks) as killed:
        with pytest.raises(KeyboardInterrupt):
            run_rows([partial(_big_row, row_log, key) for key in range(64)], 2)
    assert killed == [] and len(forks) == 1


def test_jobs_on_one_core_run_serially(cores, forks):
    cores(1)
    config = cli.GridConfig("all", n_max=4, l_max=2, x_min=-2, x_max=2, jobs=2)
    parallel = cli.run(config)
    assert forks == []
    serial = cli.run(cli.GridConfig("all", n_max=4, l_max=2, x_min=-2, x_max=2, jobs=1))
    assert [cases(r) for r in parallel.reports] == [cases(r) for r in serial.reports]


def test_without_fork_the_rows_run_serially(monkeypatch, cores, forks):
    cores(2)
    monkeypatch.delattr(os, "fork")
    ran = []

    def row(key):
        ran.append(key)
        return _square_row(key)

    results = run_rows([partial(row, key) for key in range(3)], 2)
    assert ran == []
    assert list(results) == [_square_row(key) for key in range(3)] and ran == [0, 1, 2]


# Non-ASCII (BMP and astral), quote, backslash, and C0/DEL/U+2028 controls.
_text = st.text(
    st.sampled_from('ab é€😀"\\/\n\t\r\b\f\x00\x1f\x7f\u2028') | st.characters(),
    max_size=6,
)
_scalar = st.integers() | _text | st.booleans() | st.none()
# A case as a block holds it: pass or fail, a witness only when failing.
_cases = st.builds(
    cell_case,
    key=st.lists(st.tuples(_text, _scalar), max_size=4, unique_by=lambda kv: kv[0]).map(tuple),
    ok=st.booleans(),
    witness=st.none() | _text,
    severity=st.sampled_from(["theorem", "conjecture"]) | _text,
)
_config = st.dictionaries(_text, _scalar | st.floats(), max_size=3)
_wall = st.floats(min_value=0, max_value=1e6)
_reports = st.builds(
    report_of,
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


_EMPTY = report_of("", [cell_case((), True)])


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
# (negative, and beyond 2**63), bools, or any scalar; names, severities
# and witnesses hold %, %d and %%, which the writer's templates must
# escape; a run's cases draw from 1-3 outcomes, so outcomes repeat and
# alternate, and a change of severity starts a new block.
_percent = st.sampled_from(["n", "%", "%d", "%%", "%s", "x%(n)s"]) | _text
_ints = (
    st.integers()
    | st.integers(min_value=2 ** 63, max_value=2 ** 100)
    | st.integers(min_value=-(2 ** 100), max_value=-(2 ** 63))
)
_outcomes = st.tuples(
    st.booleans(),
    st.none() | _percent,
    st.sampled_from(["theorem", "conjecture"]) | _percent,
)


@st.composite
def _run_reports(draw) -> VerificationReport:
    names = draw(st.lists(_percent, max_size=4, unique=True))
    columns = [draw(st.sampled_from([_ints, st.booleans(), _scalar])) for _ in names]
    outcomes = draw(st.lists(_outcomes, min_size=1, max_size=3))
    cases = [
        cell_case(tuple((name, draw(column)) for name, column in zip(names, columns)),
                  *draw(st.sampled_from(outcomes)))
        for _ in range(draw(st.integers(min_value=0, max_value=40)))
    ]
    return report_of("runs", cases)


def _cases_report(*cases) -> VerificationReport:
    return report_of("runs", cases)


@settings(max_examples=200, deadline=None)
@given(report=_run_reports(), slice_=st.sampled_from([1, 2, 3, 1024]))
@example(  # an all-int run of three cases
    report=_cases_report(*(cell_case((("l", l), ("n", n)), True) for l, n in
                           [(1, 2), (1, 3), (2, -(2 ** 70))])),
    slice_=2,
)
@example(  # a bool-valued run: True is true, not 1
    report=_cases_report(cell_case((("flag", True), ("n", 1)), True),
                         cell_case((("flag", False), ("n", 0)), True)),
    slice_=1024,
)
@example(  # two key shapes in one outcome, as catalan-form writes them
    report=_cases_report(
        cell_case((("part", "identity"), ("n", 1)), True),
        cell_case((("part", "identity"), ("n", 2)), True),
        cell_case((("part", "terms"), ("n", 1), ("x", -1)), True),
        cell_case((("part", "terms"), ("n", 1), ("x", 0)), False, "100% %d %%"),
    ),
    slice_=1,
)
def test_json_writer_matches_stdlib_indent_encoder_on_runs(report, slice_):
    # slice_ stands in for the writer's cases per %-format, so that
    # short runs cross slice boundaries too.
    with mock.patch.object(report_module, "_SLICE", slice_):
        assert serialize_report(report, "json") == _stdlib_json(report, True)


def _task_text(r) -> str:
    """A task report's text, rendered as one string, line by line."""
    lines = [f"task: {r.task}"]
    if r.config:
        lines.append("config: " + " ".join(f"{k}={v}" for k, v in r.config.items()))
    for c in cases(r):
        tag = "" if c.severity == "theorem" else f"  [{c.severity}]"
        extra = f"  witness: {c.witness}" if (not c.ok and c.witness) else ""
        lines.append(f"  {c.label}  {c.status}{tag}{extra}")
    lines += [f"note: {note}" for note in r.notes]
    lines.append(f"wall time: {r.wall_time_s:.3f}s")
    lines.append(f"PASS {r.passed}/{r.total}" if r.ok else f"FAIL {r.failed}/{r.total}")
    return "\n".join(lines) + "\n"


def _one_string(report, fmt: str) -> str:
    """The oracle of the text and CSV writers: the report formed whole,
    then returned as one string."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["task", "case_key", "status", "witness", "severity"])
        writer.writerows([r.task, c.label, c.status, c.witness or "", c.severity]
                         for r in _task_reports(report) for c in cases(r))
        return buf.getvalue()
    if not isinstance(report, CombinedReport):
        return _task_text(report)
    verdict = f"PASS {report.passed}" if report.ok else f"FAIL {report.failed}"
    return "\n".join([*map(_task_text, report.reports), f"overall: {verdict}/{report.total}\n"])


_PERCENT_REPORT = report_of("100%d", [
    cell_case((("n%s", 1),), True, severity="50%d"),
    cell_case((("n%s", 2),), False, "w%d%%", severity="50%d"),
    cell_case((("n%s", 3),), True, severity="50%d"),
])


def _task_reports(report) -> list:
    return report.reports if isinstance(report, CombinedReport) else [report]


@settings(max_examples=200, deadline=None)
@given(report=_reports | _combined, fmt=st.sampled_from(["text", "csv"]),
       slice_=st.sampled_from([1, 2, 3, 1024]))
@example(report=CombinedReport(task="all", config={}, reports=[]), fmt="text", slice_=1)
@example(report=VerificationReport(task="t", config={}, blocks=[]), fmt="csv", slice_=1)
# A task, key name, severity and witness holding %, which no template
# may take for a spec, in both formats.
@example(report=_PERCENT_REPORT, fmt="csv", slice_=1024)
@example(report=_PERCENT_REPORT, fmt="text", slice_=1024)
def test_text_and_csv_pieces_join_to_the_one_string_oracle(report, fmt, slice_):
    # slice_ stands in for the cases per piece, so that every report of
    # a few cases is written in several pieces too.
    with mock.patch.object(report_module, "_SLICE", slice_):
        pieces = list(report_module.report_pieces(report, fmt))
    assert "".join(pieces) == _one_string(report, fmt)
    count = sum(len(cases(r)) for r in _task_reports(report))
    assert len(pieces) >= -(-count // slice_)


def test_an_unknown_format_is_rejected_before_any_piece_is_asked_for():
    with pytest.raises(ValueError, match="yaml"):
        report_module.report_pieces(_sample_report(), "yaml")


@pytest.mark.parametrize("report", [
    report_of("demo", [cell_case((("n", Fraction(1, 2)),), True)]),
    VerificationReport(task="demo", config={"x": Fraction(1, 2)}, blocks=[]),
])
def test_unencodable_value_raises_type_error_and_exits_three(report, capsys, monkeypatch):
    with pytest.raises(TypeError):
        _stdlib_json(report, True)
    with pytest.raises(TypeError):
        serialize_report(report, "json")
    monkeypatch.setattr(cli, "run", lambda config: report)
    assert cli.main(["transform", "--n-max", "1", "--format", "json"]) == 3
    assert "TypeError" in capsys.readouterr().err


# Random blocks, as rows return them: zero-width keys, int columns
# (beyond 2**63 too), str columns, columns of one value, the two shapes
# of catalan-form in one report, and a shape whose names need quoting
# in CSV; witnesses and str values holding the characters CSV quotes,
# % that a template must escape, and non-ASCII text; both severities.
_SHAPES = [(), ("n",), ("n", "k"), ("l", "n", "eps", "x"), ("part", "n"), ("part", "n", "x"),
           ('k,"%\n', "é€")]
_quoted = st.text(st.sampled_from(',"\n\r%ab é€😀'), max_size=6)


@st.composite
def _blocks(draw, shapes=_SHAPES, kinds=("int", "str", "one value")) -> Block:
    names = draw(st.sampled_from(shapes))
    size = draw(st.integers(min_value=0, max_value=9))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(kinds))
        if kind == "one value":
            columns.append([draw(_ints | _quoted | st.booleans())] * size)
        else:
            values = _ints if kind == "int" else _quoted
            columns.append(draw(st.lists(values, min_size=size, max_size=size)))
    oks = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    witnesses = {i: draw(st.none() | _quoted) for i, ok in enumerate(oks) if not ok}
    severity = draw(st.sampled_from(["theorem", "conjecture"]))
    return Block(names, columns, bytearray(oks), witnesses, severity)


_block_reports = st.builds(
    VerificationReport, task=_quoted, config=st.just({"n_max": 3}),
    blocks=st.lists(_blocks(), max_size=4), notes=st.lists(_quoted, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(
    report=_block_reports | st.builds(
        CombinedReport, task=st.just("all"), config=st.just({}),
        reports=st.lists(_block_reports, max_size=3),
    ),
    slice_=st.sampled_from([1, 2, 3, 1024]),
)
@example(  # catalan-form's two shapes, a str column of one value
    report=VerificationReport("catalan-form", {}, [
        Block(("part", "n"), [["identity"] * 2, [1, 2]], bytearray([1, 0]), {1: 'a,"b"\r\n'}),
        Block(("part", "n", "x"), [["terms"] * 3, [1] * 3, [-1, 0, 1]], bytearray([1, 1, 0]),
              {2: "100% é"}, "conjecture"),
    ]),
    slice_=2,
)
@example(  # equal values of two types in one column are not one value: 1 and True
    report=VerificationReport("t", {}, [
        Block(("flag", "n"), [[1, True], [0, False]], bytearray([1, 0]), {1: None}),
    ]),
    slice_=1024,
)
def test_writers_format_blocks_as_the_stdlib_writes_their_cases(report, slice_):
    # Each writer's joined pieces are json.dumps(indent=2), csv.writer
    # and the text formula on the blocks' CaseResult view.
    with mock.patch.object(report_module, "_SLICE", slice_):
        assert serialize_report(report, "json") == _stdlib_json(report, True)
        for fmt in ("csv", "text"):
            assert serialize_report(report, fmt) == _one_string(report, fmt), fmt


@st.composite
def _per_k_blocks(draw) -> list[Block]:
    """A q task's rows' blocks: row k holds the cells (n, k) for
    n = k+1 .. n_max, in n order, with drawn status bytes and witnesses."""
    n_max = draw(st.integers(min_value=1, max_value=12))
    blocks = []
    for k in range(n_max):
        ns = list(range(k + 1, n_max + 1))
        oks = draw(st.lists(st.booleans(), min_size=len(ns), max_size=len(ns)))
        witnesses = {i: draw(st.none() | _quoted) for i, ok in enumerate(oks) if not ok}
        blocks.append(Block(("n", "k"), [ns, [k] * len(ns)], bytearray(oks), witnesses))
    return blocks


@settings(max_examples=100, deadline=None)
@given(blocks=_per_k_blocks())
@example(  # q-sun's rows, one per k, each in n order: (n, k) by k
    blocks=[Block(("n", "k"), [list(range(k + 1, 5)), [k] * (4 - k)],
                  bytearray([1, 0, 1, 1][: 4 - k]), {1: f"k={k}"} if k < 3 else {})
            for k in range(4)],
)
def test_by_n_puts_per_k_blocks_in_key_order(blocks):
    # One ("n", "k") block whose cells are the rows' cells sorted by key,
    # each with its own status and witness.
    gathered = qpoly.by_n(blocks)
    assert len(gathered) == 1 and gathered[0].names == ("n", "k")
    cells = cases_of(*blocks)
    assert cases_of(*gathered) == sorted(cells, key=lambda c: c.sort_key)
    assert all(len(column) == len(gathered[0].status) for column in gathered[0].columns)
