"""Fixtures for the tests that run rows in forked worker processes.

`forks` counts the workers a test forks and, after the test, checks
that every one was reaped and no file descriptor was left open;
`wait_until` polls a condition and fails the test when it times out.
`row_log` records which process ran which row, in a file every forked
process appends to.  `watch_rows` lets a test see each cli task's rows
run, in whichever process runs them.
"""

from __future__ import annotations

import dataclasses
import os
import time
from functools import partial

import pytest

from ivpverify import cli


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

        for name, task in list(cli._TASKS.items()):
            monkeypatch.setitem(cli._TASKS, name, dataclasses.replace(
                task, rows=lambda c, rows=task.rows: [partial(watched, row) for row in rows(c)]))

    return watch
