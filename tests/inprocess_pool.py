"""A stand-in for `gridrun.ProcessPoolExecutor` that starts no process.

`stand_in_pool(monkeypatch, started=K)` puts it in `gridrun`'s
namespace and returns its log.  `submit` hands back real futures: the
first K run at once in this process, as if a worker had taken them,
and the rest stay pending, for the caller to cancel and run itself.
`start(future, fn, *args)` replaces how a started future is settled.
A pending future the caller neither cancels nor waits out is run late
by a timer, LATE_S after the pool opens, and logged in `late`; so a
runner that waits for a chunk no worker has started fails its test
instead of hanging.  `watch_rows` lets a test see each task's rows run.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future
from functools import partial
from types import SimpleNamespace

from ivpverify import cli, gridrun

LATE_S = 2.0


def _run(future: Future, fn, *args) -> None:
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)


def stand_in_pool(monkeypatch, started: int = 0, start=_run) -> SimpleNamespace:
    log = SimpleNamespace(opened=[], submitted=[], futures=[], late=[], shutdowns=[])

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            log.opened.append(max_workers)
            log.shutdowns.append([])
            if initializer is not None:
                initializer(*initargs)  # as each worker would
            self.submitted = 0
            self.pending = []
            self.timer = threading.Timer(LATE_S, self._run_late)

        def __enter__(self):
            self.timer.start()
            return self

        def __exit__(self, *exc):
            self.timer.cancel()
            return False

        def submit(self, fn, *args):
            future = Future()
            log.submitted.append(args)
            log.futures.append(future)
            self.submitted += 1
            if self.submitted <= started:
                future.set_running_or_notify_cancel()
                start(future, fn, *args)
            else:
                self.pending.append((future, fn, args))
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            log.shutdowns[-1].append(cancel_futures)

        def _run_late(self):
            for future, fn, args in self.pending:
                if future.set_running_or_notify_cancel():
                    log.late.append(args)
                    _run(future, fn, *args)

    monkeypatch.setattr(gridrun, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(gridrun, "_stop", None)
    return log


def watch_rows(monkeypatch, on_run) -> None:
    """Call on_run(row) just before each row of every cli task runs."""

    def watched(row):
        on_run(row)
        return row()

    for name, task in list(cli._TASKS.items()):
        monkeypatch.setitem(cli._TASKS, name, dataclasses.replace(
            task, rows=lambda c, rows=task.rows: [partial(watched, row) for row in rows(c)]))
