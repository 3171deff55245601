"""Run rows, optionally in parallel, and collect each task's report.

A row is a call that returns the one block (`report.Block`) of a grid
row.  `run_rows(rows, jobs)` runs a run's rows and returns an iterator
over their blocks in row order.  `cli` calls it once per run, with every
task's rows, and hands each task's `collect` its slice of the results.

At --jobs N the run has min(N, usable cores, row count) processes at
work, the calling process among them; the usable cores are those of
the process's CPU affinity mask where the platform has one (as under
`taskset`), else `os.cpu_count()`.  With one process, or where
`os.fork` does not exist, the runner is a generator, so each row runs
when its result is read.  Otherwise the caller forks the other
processes itself for this one call.  The rows are dealt round-robin
into count = min(row count, _MAX_CHUNKS) chunks, chunk i holding
rows[i::count], so every chunk is a cross-section of every task, and
in a run of up to _MAX_CHUNKS (1024) rows every chunk is one row.
Before the first fork every chunk number goes into one pipe, the deal;
each process, the caller among them, takes one number at a time from
it and runs that chunk, until the deal is empty.  The deal is also
how a run stops: a worker whose row raises, and the caller on any
error of its own (a row, a failed fork, an interrupt), reads the deal
to its end, so no process takes another chunk.  A crash thus ends
every other process's work once it has run its current chunk: before
its next row in a run of up to 1024 rows, within one chunk of
ceil(rows / 1024) rows in a larger one.

A worker sends its results back once, as one pickle through a pipe of
its own: its chunks' blocks as they are, or its error and the error's
traceback text.  Then it leaves with `os._exit`.  The caller reads
every worker's pipe and reaps the worker, whatever happened; it
raises a worker's error with the worker's traceback as its cause, and
a worker that ends without a result fails the run.  No worker outlives
the call.  A worker is forked, not started afresh, so it needs no
import and no pickled rows; the price is that a program that calls
`run_rows` at --jobs > 1 must hold no other thread when it does, as
the CLI holds none.

Output is deterministic: `collect` puts a task's cells in key order,
so a run with --jobs 8 yields byte-identical JSON/CSV to a serial run
(wall time excepted: it lives in the report's metadata block).
"""

from __future__ import annotations

import os
import time
from itertools import chain, groupby, islice, repeat
from operator import itemgetter, le
from typing import Callable, Iterable, Iterator, Sequence

from .report import Block, VerificationReport

__all__ = ["collect", "run_rows"]

Row = Callable[[], Block]

# A chunk number in the deal is one record of this many bytes.  The
# caller writes every record, in one write, before any process reads,
# and no process reads the pipe meanwhile: so the records must fit in
# the smallest buffer a pipe has, one 4096-byte page (Linux gives a pipe
# less than its 64 KiB default only past the user's pipe limit, and
# never less than a page).  Hence at most _MAX_CHUNKS chunks.
_RECORD = 4
_MAX_CHUNKS = 4096 // _RECORD


class WorkerTraceback(Exception):
    """The traceback text of an error raised in a worker process, set as
    the cause of that error where the caller raises it again."""


def _workers(jobs: int) -> int:
    """Worker processes for `jobs`: the caller is one of the at most
    one process per usable core at work, so one fewer than that; none
    where this platform cannot fork."""
    if not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(jobs, cores) - 1


def run_rows(rows: Sequence[Row], jobs: int) -> Iterator[Block]:
    """The rows' results, in row order, from min(jobs, usable cores, row
    count) processes at work, this one included.  Serially, a row runs
    when its result is read; otherwise every row has run, or the run
    has raised, before this returns."""
    workers = _workers(min(jobs, len(rows)))
    if workers <= 0:
        return (row() for row in rows)
    return iter(_run_forked(rows, workers + 1))


def _take(deal: int, chunks: Sequence[Sequence[Row]]) -> list:
    """(chunk number, its rows' results) for each chunk this process
    takes from the deal, until the deal is empty.  Every process has
    the deal to itself for one record at a time, so each chunk is taken
    once."""
    taken = []
    while record := os.read(deal, _RECORD):
        number = int.from_bytes(record, "little")
        taken.append((number, [row() for row in chunks[number]]))
    return taken


def _drain(deal: int) -> None:
    """Read the deal to its end, so that no process, this one or
    another, takes a further chunk: how a failing process stops the
    run."""
    while os.read(deal, _MAX_CHUNKS * _RECORD):
        pass


def _work(deal: int, chunks: Sequence[Sequence[Row]], out: int, others: list[int]) -> None:
    """A forked worker's whole life: close the read ends it inherited
    (`others`, so that a pipe the caller closes has no reader left),
    run the chunks it takes, write one pickle to `out` and leave without
    returning to the caller's code.  The pickle is a list of (chunk
    number, its rows' blocks), or else, once its run has raised and the
    deal has been drained, a tuple (error, the error's traceback text)."""
    try:
        import pickle

        for fd in others:
            os.close(fd)
        try:
            payload = pickle.dumps(_take(deal, chunks), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            _drain(deal)
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


def _run_forked(rows: Sequence[Row], processes: int) -> list[Block]:
    """Every row's results, in row order, from this process and
    `processes` - 1 workers it forks.  Chunk i is rows[i::count].  On
    an error of this process's own, a failed fork or an interrupt
    included, the deal is drained, so every worker stops once it has
    run its current chunk.  Every worker's pipe is read to its end and
    the worker reaped on every path out.  An error of this process's
    own goes on first, then a worker's error, then a worker that ended
    without a result."""
    import pickle

    count = min(len(rows), _MAX_CHUNKS)
    chunks = [rows[i::count] for i in range(count)]
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
                _work(deal, chunks, out, [read_end, *(fd for _, fd in workers)])
            os.close(out)
            workers.append((pid, read_end))
        taken = _take(deal, chunks)
    except BaseException:
        _drain(deal)
        raise
    finally:
        os.close(deal)
        payloads = _reap(workers)
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
            results[number::count] = ran
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
    task: str, config: dict, results: Iterable[Block], notes: Iterable[str]
) -> VerificationReport:
    """A task's report from its rows' blocks, their cells in key order.
    Its wall time is the time spent reading the results: the task's
    compute time when the rows run serially; at --jobs > 1 every row
    has run before any is read, so it is the time to gather them.

    One pass over the cells' keys, across the blocks, checks their
    order, and the blocks are kept as they come when it holds: a task's
    rows come in key order and emit their cells in key order, except
    q-sun's and q-specialize's, one row per k with keys (n, k), whose
    cells `_sorted` sorts.  catalan-form's two key shapes, ("part",
    "identity"), ("n", n) and ("part", "terms"), ("n", n), ("x", x),
    already differ in the value at position 0."""
    start = time.perf_counter()
    blocks = list(results)
    if not _in_key_order(blocks):
        blocks = _sorted(blocks)
    return VerificationReport(task, config, blocks, list(notes), time.perf_counter() - start)


def _keys(block: Block) -> Iterator[tuple]:
    """The key values of each cell of a block, as tuples."""
    return zip(*block.columns) if block.names else repeat((), len(block.status))


def _in_key_order(blocks: list[Block]) -> bool:
    """Whether the blocks' cells, in turn, are in key order."""
    keys, following = (chain.from_iterable(map(_keys, blocks)) for _ in range(2))
    return all(map(le, keys, islice(following, 1, None)))


def _sorted(blocks: list[Block]) -> list[Block]:
    """The blocks' cells sorted by key, as one block per stretch of
    cells of one key shape and severity."""
    cells = sorted(((key, ok, block.witnesses.get(i), block.names, block.severity)
                    for block in blocks
                    for i, (key, ok) in enumerate(zip(_keys(block), block.status))),
                   key=itemgetter(0))
    merged = []
    for (names, severity), run in groupby(cells, itemgetter(3, 4)):
        keys, oks, witnesses, _, _ = zip(*run)
        columns = [list(column) for column in zip(*keys)] if names else []
        failing = {j: w for j, (ok, w) in enumerate(zip(oks, witnesses)) if not ok}
        merged.append(Block(names, columns, bytearray(oks), failing, severity))
    return merged
