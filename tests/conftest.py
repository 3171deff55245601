"""Fixtures for the tests that run rows in forked worker processes.

`cores` sets the cores the runner sees.  `forks` counts the workers a
test forks and, after the test, checks that every one was reaped and
no file descriptor was left open;
`wait_until` polls a condition and fails the test when it times out.
`row_log` records which process ran which row, in a file every forked
process appends to.  `watch_rows` lets a test see each cli task's rows
run, in whichever process runs them.  `report_of` makes a report whose
blocks hold a list of cases, for tests that write reports from cases,
and `cases_of` the cases of blocks, for tests that read a row's cells;
`serialize_report` writes a report as one string.
"""

from __future__ import annotations

import os
import time
from functools import partial
from itertools import groupby

import pytest

from ivpverify import cli
from ivpverify.report import Block, VerificationReport, report_pieces


def serialize_report(report, fmt: str, include_meta: bool = True) -> str:
    """The report as one string: the pieces of `report.report_pieces`,
    joined, which `cli.main` writes as they come instead."""
    return "".join(report_pieces(report, fmt, include_meta))


def cases_of(*blocks: Block) -> list:
    """The cells of these blocks, in turn, as cases: a report's view."""
    return VerificationReport("", {}, list(blocks)).cases


def report_of(task, cases, config=None, **fields) -> VerificationReport:
    """A task report whose blocks hold these cases, in order: one block
    per stretch of cases of one key shape and one severity.  A case's
    status must be "pass" or "fail"; a failing case's witness may be
    None."""
    blocks = []
    for (names, severity), run in groupby(
            cases, lambda c: (tuple(name for name, _ in c.key), c.severity)):
        run = list(run)
        columns = [list(column) for column in zip(*(c.sort_key for c in run))]
        assert all(c.status in ("pass", "fail") for c in run)
        blocks.append(Block(names, columns if names else [], bytearray(c.ok for c in run),
                            {i: c.witness for i, c in enumerate(run) if not c.ok}, severity))
    return VerificationReport(task, {} if config is None else config, blocks, **fields)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def running(pid: int) -> bool:
    """Whether the child `pid` has yet to exit; it is not reaped."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def wait_until(done, seconds: float = 60) -> None:
    """Poll `done` until it is true; fail after `seconds`."""
    deadline = time.monotonic() + seconds
    while not done():
        assert time.monotonic() < deadline, f"waited {seconds} s"
        time.sleep(0.001)


class Forks(list):
    """The pids `os.fork` returned to the test's process, in order."""

    def wait_for_exit(self, pid: int) -> None:
        """Wait until the worker `pid` has exited, without reaping it."""
        wait_until(lambda: not running(pid))


@pytest.fixture
def cores(monkeypatch):
    """cores(n): make the runner see n usable cores, as the process's
    CPU affinity mask and as the machine's core count alike."""

    def set_cores(n: int) -> None:
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cores


@pytest.fixture
def forks(monkeypatch) -> Forks:
    fds = _open_fds()
    pids = Forks()
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):  # no child left, reaped or not
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


class RowLog:
    """A file of "pid key" lines, one appended per `record(key)`.  Each
    line is one write to a file opened for appending, so lines from
    different processes never mix."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def record(self, key) -> None:
        with open(self.path, "ab", buffering=0) as fh:
            fh.write(f"{os.getpid()} {key}\n".encode())

    def read(self) -> list[tuple[int, str]]:
        """(pid, key) for each line so far, in the order written."""
        return [(int(pid), key) for pid, key in
                (line.split(" ", 1) for line in self.path.read_text().splitlines())]

    def keys(self, pid: int) -> list[str]:
        """The keys the process `pid` recorded, in its order."""
        return [key for p, key in self.read() if p == pid]


@pytest.fixture
def row_log(tmp_path) -> RowLog:
    return RowLog(tmp_path / "rows.log")


@pytest.fixture
def watch_rows(monkeypatch):
    """watch_rows(on_run): call on_run(row) just before each row of
    every cli task runs."""

    def watch(on_run) -> None:
        def watched(row):
            on_run(row)
            return row()

        def watched_rows(rows):
            return lambda config, tables: [partial(watched, row) for row in rows(config, tables)]

        for name, task in list(cli._TASKS.items()):
            monkeypatch.setitem(
                cli._TASKS, name, task._replace(rows=watched_rows(task.rows))
            )

    return watch
