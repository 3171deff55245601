"""Run a task's cell function over its grid keys, optionally in parallel.

The contract that matters here: output is deterministic.  Cases are
sorted by their key before being stored, so a run with --jobs 8 yields
byte-identical JSON/CSV to a serial run (wall time excepted, which is
why it lives in the report's metadata block).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable

from .report import CaseResult, VerificationReport

__all__ = ["run_grid"]

# Each parallel run_grid call starts its own worker pool, so worker
# caches start cold for every task; cells go to workers _CHUNK at a time.
_CHUNK = 8


def run_grid(
    task: str,
    config: dict,
    keys: Iterable[tuple],
    case_fn: Callable[[tuple], CaseResult],
    jobs: int = 1,
    notes: Iterable[str] = (),
) -> VerificationReport:
    """Evaluate case_fn at every key and collect a sorted report.

    case_fn must be a module-level callable (picklable) when jobs > 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    keys = list(keys)
    if jobs == 1 or len(keys) <= 1:
        cases = [case_fn(key) for key in keys]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cases = list(pool.map(case_fn, keys, chunksize=_CHUNK))
    cases.sort(key=lambda c: c.sort_key)
    return VerificationReport(
        task=task,
        config=config,
        cases=cases,
        notes=list(notes),
        wall_time_s=time.perf_counter() - start,
    )
