"""Run a task's rows, optionally in parallel.

`run_grid` maps `case_fn` over `keys`, and each call returns the cases
of one grid row; `cli` passes a task's rows, which are calls, as the
keys and a function that makes the call as `case_fn`.  The contract
that matters here: output is deterministic.  Cases are sorted by their
key before being stored, so a run with --jobs 8 yields byte-identical
JSON/CSV to a serial run (wall time excepted, which is why it lives in
the report's metadata block).

`worker_pool` opens one pool of worker processes that every `run_grid`
call inside it shares, so `verify all --jobs N` starts its workers
once.  It starts at most one worker per core, whatever N is.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

from .report import CaseResult, VerificationReport

__all__ = ["run_grid", "worker_pool"]

# Rows go to workers in chunks of about 1/_SPLIT of a worker's share,
# so a few costly rows cannot leave the other workers idle.
_SPLIT = 4


def _workers(jobs: int) -> int:
    """Worker processes for `jobs`: no more than the cores."""
    return min(jobs, os.cpu_count() or 1)


@contextmanager
def worker_pool(jobs: int) -> Iterator[Optional[ProcessPoolExecutor]]:
    """A pool of min(jobs, core count) worker processes for the block;
    None when jobs == 1."""
    if jobs == 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=_workers(jobs)) as pool:
        yield pool


def run_grid(
    task: str,
    config: dict,
    keys: Iterable,
    case_fn: Callable[..., list[CaseResult]],
    jobs: int = 1,
    notes: Iterable[str] = (),
    pool: Optional[ProcessPoolExecutor] = None,
) -> VerificationReport:
    """Evaluate case_fn at every key and collect its cases in a sorted report.

    case_fn returns the list of cases of one row; it must be a
    module-level callable (picklable) when jobs > 1.  A parallel call
    runs in `pool`, which `worker_pool(jobs)` opens.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and pool is None:
        raise ValueError("a parallel run_grid call needs a pool from worker_pool")
    start = time.perf_counter()
    keys = list(keys)
    if jobs == 1 or len(keys) <= 1:
        rows = [case_fn(key) for key in keys]
    else:
        chunk = max(1, len(keys) // (_workers(jobs) * _SPLIT))
        rows = list(pool.map(case_fn, keys, chunksize=chunk))
    cases = [case for row in rows for case in row]
    cases.sort(key=lambda c: c.sort_key)
    return VerificationReport(
        task=task,
        config=config,
        cases=cases,
        notes=list(notes),
        wall_time_s=time.perf_counter() - start,
    )

