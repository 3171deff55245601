"""Run rows, optionally in parallel, and collect each task's report.

A row is a call that returns the cases of one grid row.
`run_rows(rows, jobs)` runs a run's rows and returns an iterator over
their results in row order.  `cli` calls it once per run, with every
task's rows, and hands each task's `collect` its slice of the results.

At --jobs N the run has min(N, core count, row count) processes at
work, the calling process among them.  With one, or where `os.fork`
does not exist, the runner is the builtin `map`, so each row runs when
its result is read.  Otherwise the caller forks the other processes
itself for this one call.  The rows are dealt round-robin into _SPLIT
chunks per process, chunk i holding rows[i::count], so every chunk is
a cross-section of every task.  Before the first fork every chunk
number goes into one pipe, the deal; each process, the caller among
them, takes one number at a time from it and runs that chunk, until
the deal is empty.  Every process checks one shared stop byte before
each row; a worker whose row raises sets it, as does the caller, so
once the run fails every process skips the rows it has left, and a
crash ends the run within about one row.

A worker sends its results back once, as one pickle through a pipe of
its own: its chunks' cases as plain tuples, or its error and the
error's traceback text.  Then it leaves with `os._exit`.  The caller
reads every worker's pipe and reaps the worker, whatever happened; it
raises a worker's error with the worker's traceback as its cause, and
a worker that ends without a result fails the run.  No worker outlives
the call.  A worker is forked, not started afresh, so it needs no
import and no pickled rows; the price is that a program that calls
`run_rows` at --jobs > 1 must hold no other thread when it does, as
the CLI holds none.

Output is deterministic: `collect` sorts the cases by key, so a run
with --jobs 8 yields byte-identical JSON/CSV to a serial run (wall
time excepted, which is why it lives in the report's metadata block).
"""

from __future__ import annotations

import os
import time
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .report import CaseResult, VerificationReport

__all__ = ["collect", "run_rows"]

Row = Callable[[], list[CaseResult]]

# Chunks per process at work.  A process takes its next chunk only when
# it has run the last, so at the end of a run the others wait for at
# most one chunk each: chunks must be small against a process's share.
_SPLIT = 32

# A chunk number in the deal is one record of this many bytes.  The
# caller writes every record, in one write, before any process reads,
# and nothing drains the pipe meanwhile: so the records must fit in the
# smallest buffer a pipe has, one 4096-byte page (Linux gives a pipe
# less than its 64 KiB default only past the user's pipe limit, and
# never less than a page).  Hence at most _MAX_CHUNKS chunks.
_RECORD = 4
_MAX_CHUNKS = 4096 // _RECORD

_by_key = attrgetter("key")


class WorkerTraceback(Exception):
    """The traceback text of an error raised in a worker process, set as
    the cause of that error where the caller raises it again."""


def _workers(jobs: int) -> int:
    """Worker processes for `jobs`: the caller is one of the at most
    one process per core at work, so one fewer than that; none where
    this platform cannot fork."""
    if not hasattr(os, "fork"):
        return 0
    return min(jobs, os.cpu_count() or 1) - 1


def run_rows(rows: Sequence[Row], jobs: int) -> Iterator[list[CaseResult]]:
    """The rows' results, in row order, from min(jobs, core count, row
    count) processes at work, this one included.  Serially, a row runs
    when its result is read; otherwise every row has run, or the run
    has raised, before this returns."""
    workers = _workers(min(jobs, len(rows)))
    if workers <= 0:
        return map(_call, rows)
    return iter(_run_forked(rows, workers + 1))


def _call(row: Row) -> list[CaseResult]:
    """Run one row: the function the serial runner maps over rows."""
    return row()


def _take(deal: int, chunks: Sequence[Sequence[Row]], stop) -> list:
    """(chunk number, its rows' results) for each chunk this process
    takes from the deal, until the deal is empty.  Every process has
    the deal to itself for one record at a time, so each chunk is taken
    once.  Once the stop byte is set no further row runs: the chunks
    taken are then cut short, and never read."""
    taken = []
    while record := os.read(deal, _RECORD):
        number = int.from_bytes(record, "little")
        ran = []
        for row in chunks[number]:
            if stop[0]:
                return taken
            ran.append(row())
        taken.append((number, ran))
    return taken


def _work(deal: int, chunks: Sequence[Sequence[Row]], stop, out: int, others: list[int]) -> None:
    """A forked worker's whole life: close the read ends it inherited
    (`others`, so that a pipe the caller closes has no reader left),
    run the chunks it takes, write one pickle to `out` and leave without
    returning to the caller's code.  The pickle is a list of (chunk
    number, its rows' cases as plain tuples, which pickle far cheaper
    than `CaseResult`s), or else a tuple (error, the error's traceback
    text)."""
    try:
        import pickle

        for fd in others:
            os.close(fd)
        try:
            taken = _take(deal, chunks, stop)
            payload = pickle.dumps(
                [(number, [list(map(tuple, cases)) for cases in ran]) for number, ran in taken],
                pickle.HIGHEST_PROTOCOL,
            )
        except BaseException as exc:
            stop[0] = 1
            import traceback

            text = traceback.format_exc()
            try:
                payload = pickle.dumps((exc, text), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an error that does not pickle goes as its repr
                payload = pickle.dumps((RuntimeError(repr(exc)), text), pickle.HIGHEST_PROTOCOL)
        view = memoryview(payload)
        while view:
            view = view[os.write(out, view):]
    finally:
        os._exit(0)


def _run_forked(rows: Sequence[Row], processes: int) -> list[list[CaseResult]]:
    """Every row's results, in row order, from this process and
    `processes` - 1 workers it forks.  Chunk i is rows[i::count].  Every
    worker's pipe is read to its end and the worker reaped on every
    path out, an interrupt included.  An error of this process's own
    goes on first, then a worker's error, then a worker that ended
    without a result."""
    import mmap
    import pickle

    count = min(len(rows), processes * _SPLIT, _MAX_CHUNKS)
    chunks = [rows[i::count] for i in range(count)]
    stop = mmap.mmap(-1, 1)  # a shared page: every forked worker sees one byte
    deal, dealer = os.pipe()
    os.write(dealer, b"".join(i.to_bytes(_RECORD, "little") for i in range(count)))
    os.close(dealer)
    workers = []  # (pid, the read end of its pipe)
    try:
        for _ in range(processes - 1):
            read_end, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(out)
                raise
            if pid == 0:
                _work(deal, chunks, stop, out, [read_end, *(fd for _, fd in workers)])
            os.close(out)
            workers.append((pid, read_end))
        taken = _take(deal, chunks, stop)
    except BaseException:
        stop[0] = 1
        raise
    finally:
        os.close(deal)
        payloads = _reap(workers)
        stop.close()
    results: list = [None] * len(rows)
    for number, ran in taken:
        results[number::count] = ran
    failure = None
    for (pid, _), (payload, status) in zip(workers, payloads):
        if not payload:
            failure = failure or RuntimeError(
                f"worker process {pid} ended without a result "
                f"(exit code {os.waitstatus_to_exitcode(status)})")
            continue
        got = pickle.loads(payload)
        if type(got) is tuple:
            error, text = got
            raise error from WorkerTraceback(text)
        for number, ran in got:
            results[number::count] = [list(map(CaseResult._make, cases)) for cases in ran]
    if failure is not None:
        raise failure
    return results


def _reap(workers: list[tuple[int, int]]) -> list[tuple[bytes, int]]:
    """(what it sent, its wait status) for each worker, in order: every
    pipe read to its end, then every worker waited for.  If the reading
    is interrupted, the pipes are closed, so that a worker still
    writing fails at once, and every worker is still waited for."""
    payloads = []
    try:
        for _, read_end in workers:
            parts = []
            while part := os.read(read_end, 1 << 16):
                parts.append(part)
            payloads.append(b"".join(parts))
    finally:
        for _, read_end in workers:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]
    return list(zip(payloads, statuses))


def collect(
    task: str, config: dict, results: Iterable[list[CaseResult]], notes: Iterable[str]
) -> VerificationReport:
    """A task's report from its rows' results, the cases sorted by key.
    Its wall time is the time spent reading the results: the task's
    compute time when the rows run serially; at --jobs > 1 every row
    has run before any is read, so it is the time to gather and sort
    them.

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
