"""Run rows, optionally in parallel, and collect each task's report.

A row is a call that returns the cases of one grid row.  `worker_pool`
hands out a run's row runner, `run_rows(rows)`: an iterator over the
rows' results in row order.  `cli` calls it once per run, with every
task's rows, and hands each task's `collect` its slice of the results.

At --jobs N the run has min(N, core count) processes at work, the
calling process among them.  With one, the runner is the builtin `map`,
so each row runs when its result is read.  Otherwise a pool of the
other processes serves the run: the rows are dealt round-robin into
_SPLIT chunks per process, chunk i holding rows[i::count], so every
chunk is a cross-section of every task.  Every chunk is submitted;
then the caller runs the chunks no worker has taken yet, from the back
of the list, and waits for the rest.  Every process, the caller among
them, checks one stop event between its rows; a worker's chunk that
raises sets it, as does a block that raises, so once the run fails
every process skips the rows it has left, and a crash ends the run
within about one row.

Output is deterministic: `collect` sorts the cases by key, so a run
with --jobs 8 yields byte-identical JSON/CSV to a serial run (wall
time excepted, which is why it lives in the report's metadata block).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .report import CaseResult, VerificationReport

__all__ = ["collect", "worker_pool"]

Row = Callable[[], list[CaseResult]]

# Chunks per process at work.  Once the caller meets a chunk a worker
# has taken, it waits for every chunk the workers hold: one running in
# each and up to workers + 1 in the pool's call queue.  So chunks must
# be small against a process's share; but each chunk a worker runs
# costs a round trip through the pool.
_SPLIT = 32

_by_key = attrgetter("key")

# In a worker and in the caller: the pool's stop event, set once the
# run has failed, so that every process skips the rows it has left.
_stop = None


def _workers(jobs: int) -> int:
    """Worker processes for `jobs`: the caller is one of the at most
    one process per core at work, so one fewer than that."""
    return min(jobs, os.cpu_count() or 1) - 1


def _call(row: Row) -> list[CaseResult]:
    """Run one row: the function the serial runner maps over rows."""
    return row()


def _start_worker(stop) -> None:
    """The pool's initializer, run in the caller too: keep the run's
    stop event."""
    global _stop
    _stop = stop


def _run_chunk(chunk: Sequence[Row]) -> list[list[CaseResult]]:
    """Run a chunk of rows, none after the run has failed: a chunk cut
    short is never read."""
    results = []
    for row in chunk:
        if _stop.is_set():
            break
        results.append(row())
    return results


def _stop_on_failure(future: Future) -> None:
    """A chunk's done-callback: once a worker's chunk has raised, every
    process stops before its next row."""
    if not future.cancelled() and future.exception() is not None:
        _stop.set()


def _run_shared(
    pool: ProcessPoolExecutor, processes: int, rows: Sequence[Row]
) -> Iterator[list[CaseResult]]:
    """The rows' results in row order, from `pool`'s workers and this
    process together.  Chunk i is rows[i::count]: the caller cancels
    chunks from the back and runs each itself until it meets one a
    worker has started, then waits for the started ones.  A chunk of
    the caller's cut short means a worker's chunk has raised; that
    chunk is among the started ones, so the wait raises its error."""
    count = min(len(rows), processes * _SPLIT)
    chunks = [rows[i::count] for i in range(count)]
    futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
    for future in futures:
        future.add_done_callback(_stop_on_failure)
    results: list = [None] * len(rows)
    started = count
    while started and futures[started - 1].cancel():
        started -= 1
        ran = _run_chunk(chunks[started])
        if len(ran) < len(chunks[started]):
            break
        results[started::count] = ran
    done, _ = wait(futures[:started], return_when=FIRST_EXCEPTION)
    for future in done:
        future.result()  # a worker's error goes on from here
    for i in range(started):
        results[i::count] = futures[i].result()
    return iter(results)


@contextmanager
def worker_pool(jobs: int) -> Iterator[Callable[[Sequence[Row]], Iterator[list[CaseResult]]]]:
    """The row runner of the block.  When min(jobs, core count) > 1,
    every call of it shares one pool of one worker fewer than that, and
    runs rows in this process too.  If the block raises, the chunks
    still queued are cancelled and the workers skip the rows left in
    theirs before the error goes on, so a crash does not wait for
    them."""
    workers = _workers(jobs)
    if workers == 0:
        yield partial(map, _call)
        return
    stop = multiprocessing.Event()
    _start_worker(stop)
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker, initargs=(stop,)) as pool:
        try:
            yield partial(_run_shared, pool, workers + 1)
        except BaseException:
            stop.set()
            pool.shutdown(cancel_futures=True)
            raise


def collect(
    task: str, config: dict, results: Iterable[list[CaseResult]], notes: Iterable[str]
) -> VerificationReport:
    """A task's report from its rows' results, the cases sorted by key.
    Its wall time is the time spent reading the results: the task's
    compute time when the rows run serially; with a pool every row has
    run before any is read, so it is the time to gather and sort them.

    The sort stays as the guarantee of a deterministic report, but it
    is rarely work: every row except q-sun's and q-specialize's (one
    row per k, with keys (n, k)) emits its cases in key order, and a
    task's rows come in key order too, so their flattened cases are one
    sorted run, which the sort checks in a single linear pass.

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
