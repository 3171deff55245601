"""Run rows, optionally in parallel, and collect each task's report.

A row is a call that returns the cases of one grid row.  `worker_pool`
hands out a run's row runner, `run_rows(rows)`: an iterator over the
rows' results in row order.  At jobs == 1 it is the builtin `map`, so
each row runs when its result is read; otherwise it submits every row
at once to one pool, at most one worker per core, that the whole run
shares.  `cli` hands every task's rows to the runner before `collect`
reads any, so at --jobs > 1 no task waits for the one before it.

Output is deterministic: `collect` sorts the cases by key, so a run
with --jobs 8 yields byte-identical JSON/CSV to a serial run (wall
time excepted, which is why it lives in the report's metadata block).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .report import CaseResult, VerificationReport

__all__ = ["collect", "worker_pool"]

Row = Callable[[], list[CaseResult]]

# Rows go to workers in chunks of about 1/_SPLIT of a worker's share
# of a task, so a few costly rows cannot leave the other workers idle.
_SPLIT = 4

_by_key = attrgetter("key")


def _workers(jobs: int) -> int:
    """Worker processes for `jobs`: no more than the cores."""
    return min(jobs, os.cpu_count() or 1)


def _call(row: Row) -> list[CaseResult]:
    """Run one row: the function the row runner maps over rows."""
    return row()


@contextmanager
def worker_pool(jobs: int) -> Iterator[Callable[[Sequence[Row]], Iterator[list[CaseResult]]]]:
    """The row runner of the block.  At jobs > 1 every call of it shares
    one pool of min(jobs, core count) worker processes; if the block
    raises, the rows still queued are cancelled before the error goes
    on, so a crash does not wait for them."""
    if jobs == 1:
        yield partial(map, _call)
        return
    workers = _workers(jobs)
    with ProcessPoolExecutor(max_workers=workers) as pool:

        def run_rows(rows: Sequence[Row]) -> Iterator[list[CaseResult]]:
            chunk = max(1, len(rows) // (workers * _SPLIT))
            return pool.map(_call, rows, chunksize=chunk)

        try:
            yield run_rows
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def collect(
    task: str, config: dict, results: Iterable[list[CaseResult]], notes: Iterable[str]
) -> VerificationReport:
    """A task's report from its rows' results, the cases sorted by key.
    Its wall time is the time spent reading the results: the task's
    compute time at jobs == 1, the wait for its results otherwise.

    The sort compares the key pairs themselves, with no tuple built per
    case, and gives the order of the cases' `sort_key` (their values
    alone): within one task the names at a key position agree wherever
    the values before it tie, so a name never decides a comparison.
    catalan-form's two key shapes, ("part", "identity"), ("n", n) and
    ("part", "terms"), ("n", n), ("x", x), already differ in the value
    at position 0."""
    start = time.perf_counter()
    cases = [case for row in results for case in row]
    cases.sort(key=_by_key)
    return VerificationReport(
        task=task,
        config=config,
        cases=cases,
        notes=list(notes),
        wall_time_s=time.perf_counter() - start,
    )
