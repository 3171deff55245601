"""Command-line front end and the task table.

    verify <task> [--l-max N] [--n-max N] [--k-max N] [--m N]
                  [--eps +1,-1] [--x-min I] [--x-max I] [--jobs N]
                  [--format text|json|csv] [--out PATH] [--config FILE]

Each task is one entry of `_TASKS`: the config fields its report
echoes, its rows as a function of the `GridConfig`, and the smallest
n_max it accepts.  Rows are calls: each is a `functools.partial` of a
module-level row function with its own arguments, which returns the
cases of one grid row, so the table is the one place that says which
calls make up a task.  Where a grid row is a prefix sum over n
(telescope, theorem1, theorem2, the catalan-form identity,
lemma-schmidt, conjecture-final, conjecture-sun-m, conjecture-sun-ii,
q-sun, q-specialize), its row function reads one running sum, so a
cell costs O(1) instead of a fresh sum: the integer rows all take
theirs from `identities.odd_power_sums` (q-sun and q-specialize each
sweep the unscaled q-sums `qpoly.q_sun_sums` over the rows k, and
apply [2k choose k]^2 only in a residue modulo (1 - q^n)^2 or at
q = 1).  The transform, weighted-sum, catalan-form identity and
recurrence rows each build one S_k table per closed form they read,
the chu-vandermonde row its power sums once per x, only at the points
x = 0 .. d that decide a symmetric claim of degree 2d (the symmetric
rule of `values`).  sun-one and sun-two are one row each, which forms
what every n shares once, and the catalan-form summands one row per n,
which forms its weights once for every x.
Which row is which: transform, chu-vandermonde, telescope, sun-one,
sun-two, theorem1, theorem2 and conjecture-sun-ii are one row each;
recurrence is a base row and one row per closed form; catalan-form is
its identity row and one summand row per n; lemma-schmidt,
conjecture-final and conjecture-sun-m are one row per l (lemma-schmidt
with every eps, conjecture-sun-m with every eps and the whole x
window); q-sun and q-specialize are one row per k.  Every row but the
q rows emits its cases in key order, each key pair built once per row
(or per n), so a task's flattened results are one sorted run.
`run` hands every task's rows, as one list, to one `gridrun.run_rows`
call before it collects any task's report, so at --jobs > 1 the rows
of every task are dealt out at once between this process and the
workers it forks for the call, and no task waits for the one before
it; where `os.fork` does not exist the rows run serially.  --jobs N
counts the processes at work, this one included, at most one per core
and one per row of the run.  The argument parser is built once, at
import, for every `main` call of the process.  A
`GridConfig` checks every bound when it is built, so
`run(GridConfig("theorem1", n_max=25))` is safe to call from code as
well.

Exit codes: 0 when every case passes, 1 on any mathematical failure,
2 on a usage error (flags, bounds, the config file and the output
path are checked before a task runs: `--out` must name a file in a
directory that exists; a write that still fails, such as on a full
disk, shows when the report is written, after the run), 3 on an
internal error: any exception a task raises, a crash, not a
counterexample.  The report for a given configuration is
deterministic: cases are sorted by key, wall time is quarantined in a
metadata block, and parallel runs emit byte-identical JSON/CSV to
serial ones.  Flag precedence is defaults < IVPVERIFY_JOBS < config
file < explicit flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, islice
from typing import Callable, Optional

from . import congruences, identities, qpoly
from .gridrun import collect, run_rows
from .report import CombinedReport, serialize_report

__all__ = ["GridConfig", "UsageError", "run", "main"]

JOBS_ENV = "IVPVERIFY_JOBS"
_FORMATS = ("text", "json", "csv")


class UsageError(Exception):
    """Bad flags, bounds, config file, or output destination."""


@dataclass(frozen=True)
class GridConfig:
    """One run: the task, its grid bounds and how to report.  Building one
    checks every bound, so a bad one raises UsageError before any task runs."""

    task: str
    l_max: int = 3
    n_max: int = 20
    k_max: int = 30
    m: int = 2
    eps: tuple[int, ...] = (1, -1)
    x_min: int = -10
    x_max: int = 10
    jobs: int = 1
    format: str = "text"
    out: Optional[str] = None

    def __post_init__(self):
        if self.task != "all" and self.task not in _TASKS:
            raise UsageError(f"unknown task {self.task!r}")
        for name in _INT_KEYS:
            if type(getattr(self, name)) is not int:
                raise UsageError(f"config key {name!r} must be an integer")
        if self.out is not None and type(self.out) is not str:
            raise UsageError("config key 'out' must be a string")
        if self.out == "":
            raise UsageError("--out must name a file, got ''")
        if type(self.eps) is not tuple or parse_eps(self.eps) != self.eps:
            raise UsageError(f"eps must be (1,), (-1,) or (1, -1), got {self.eps!r}")
        for name, low in (("jobs", 1), ("l_max", 1), ("k_max", 0), ("m", 1)):
            value = getattr(self, name)
            if value < low:
                raise UsageError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")
        if self.x_min > self.x_max:
            raise UsageError(f"empty x range [{self.x_min}, {self.x_max}]")
        if self.format not in _FORMATS:
            raise UsageError(f"format must be one of {', '.join(_FORMATS)}")
        tasks = _TASKS.values() if self.task == "all" else [_TASKS[self.task]]
        floor = max(task.min_n_max for task in tasks)
        if self.n_max < floor:
            raise UsageError(
                f"task {self.task} needs --n-max >= {floor}, got {self.n_max}"
            )


_DEFAULTS = {f.name: f.default for f in fields(GridConfig) if f.name != "task"}
_CONFIG_KEYS = tuple(_DEFAULTS)
_INT_KEYS = tuple(name for name, value in _DEFAULTS.items() if type(value) is int)
# Execution details, left out of the report's config echo.
_RUN_KEYS = ("jobs", "format", "out")
# What `all` echoes: every grid field, in GridConfig order.
_SHARED_ECHO = tuple(name for name in _CONFIG_KEYS if name not in _RUN_KEYS)


@dataclass(frozen=True)
class _Task:
    """One entry of the task table."""

    # Config fields the report echoes, in this order.
    echo: tuple[str, ...]
    # The task's rows, in run order: partials of module-level row
    # functions with int, tuple and str arguments; each returns its
    # row's cases.
    rows: Callable[[GridConfig], list[partial]]
    min_n_max: int = 1
    notes: Callable[[GridConfig], list[str]] = lambda config: []


def _xs(c: GridConfig) -> range:
    return range(c.x_min, c.x_max + 1)


# The task table, in the order `all` runs it.
_TASKS = {
    "transform": _Task(
        ("n_max",), lambda c: [partial(identities.transform_row, c.n_max)], min_n_max=0
    ),
    "recurrence": _Task(("n_max",), lambda c: [
        partial(identities.recurrence_base_row),
        *(partial(identities.recurrence_row, family, c.n_max) for family in ("lhs", "rhs")),
    ], min_n_max=2),
    "chu-vandermonde": _Task(
        ("k_max",), lambda c: [partial(identities.chu_row, c.k_max)], min_n_max=0
    ),
    "telescope": _Task(("n_max",), lambda c: [partial(identities.telescope_row, c.n_max)]),
    "sun-one": _Task(
        ("n_max",), lambda c: [partial(identities.sun_one_row, c.n_max)], min_n_max=0
    ),
    "sun-two": _Task(
        ("n_max",), lambda c: [partial(identities.sun_two_row, c.n_max)], min_n_max=0
    ),
    "theorem1": _Task(("l_max", "n_max", "eps"), lambda c: [
        partial(congruences.theorem1_row, c.l_max, c.eps, c.n_max)
    ]),
    "theorem2": _Task(("n_max",), lambda c: [partial(congruences.theorem2_row, c.n_max)]),
    "catalan-form": _Task(("n_max", "x_min", "x_max"), lambda c: [
        partial(congruences.catalan_identity_row, c.n_max),
        *(partial(congruences.catalan_terms_row, n, c.x_min, c.x_max)
          for n in range(1, c.n_max + 1)),
    ]),
    "lemma-schmidt": _Task(("l_max", "n_max", "eps"), lambda c: [
        partial(congruences.schmidt_row, l, c.eps, c.n_max) for l in range(1, c.l_max + 1)
    ]),
    "conjecture-final": _Task(("l_max", "n_max"), lambda c: [
        partial(congruences.conjecture_final_row, l, c.n_max) for l in range(1, c.l_max + 1)
    ]),
    "conjecture-sun-m": _Task(("m", "l_max", "n_max", "eps", "x_min", "x_max"), lambda c: [
        partial(congruences.sun_m_row, c.m, l, c.n_max, c.eps, c.x_min, c.x_max)
        for l in range(1, c.l_max + 1)
    ], notes=lambda c: [congruences.sun_m_regime(c.m, c.n_max, len(_xs(c)))]),
    "conjecture-sun-ii": _Task(("l_max", "n_max"), lambda c: [
        partial(congruences.sun_ii_row, c.l_max, c.n_max)
    ]),
    "q-sun": _Task(("n_max",), lambda c: [
        partial(qpoly.q_sun_row, k, c.n_max) for k in range(c.n_max)
    ]),
    "q-specialize": _Task(("n_max",), lambda c: [
        partial(qpoly.q_specialize_row, k, c.n_max) for k in range(c.n_max)
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Exact verification of binomial-sum identities, "
        "integer-valued polynomials, and congruences over parameter grids.",
    )
    parser.add_argument("task", choices=[*_TASKS, "all"], help="what to verify")
    parser.add_argument("--l-max", type=int, default=None, help="largest weight index l")
    parser.add_argument("--n-max", type=int, default=None, help="largest grid index n")
    parser.add_argument("--k-max", type=int, default=None,
                        help="largest k (chu-vandermonde only)")
    parser.add_argument("--m", type=int, default=None,
                        help="binomial power (conjecture-sun-m only)")
    parser.add_argument("--eps", default=None,
                        help="comma-separated subset of +1,-1")
    parser.add_argument("--x-min", type=int, default=None, help="left end of x range")
    parser.add_argument("--x-max", type=int, default=None, help="right end of x range")
    parser.add_argument("--jobs", type=int, default=None,
                        help=f"processes at work, this one included, at most one per core "
                        f"(default ${JOBS_ENV} or 1)")
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="report format (default text)")
    parser.add_argument("--out", default=None, help="write report to this path")
    parser.add_argument("--config", default=None,
                        help="JSON file with the same keys as the flags; flags win")
    return parser


# One parser serves every `main` call of the process.
_PARSER = build_parser()


def parse_eps(value) -> tuple[int, ...]:
    """Accept '+1,-1' style strings or sequences of +-1."""
    if isinstance(value, str):
        tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        mapping = {"+1": 1, "1": 1, "-1": -1}
        try:
            vals = [mapping[tok] for tok in tokens]
        except KeyError as exc:
            raise UsageError(f"bad --eps entry {exc.args[0]!r}; want a subset of +1,-1")
    elif isinstance(value, (list, tuple)):
        vals = list(value)
        for v in vals:
            if type(v) is not int or v not in (1, -1):
                raise UsageError(f"bad eps entry {v!r}; want a subset of +1,-1")
    else:
        raise UsageError(f"bad eps value {value!r}")
    if not vals:
        raise UsageError("eps must name at least one of +1, -1")
    return tuple(sorted(set(vals), reverse=True))


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys name distinct settings: "n-max" and
    "n_max" are one key, so giving both, or either one twice, is an
    error rather than a silent last-one-wins."""
    seen = {}
    for key, _ in pairs:
        name = key.replace("-", "_")
        if name in seen:
            raise UsageError(f"config key {name!r} is given twice (as {seen[name]!r} and {key!r})")
        seen[name] = key
    return dict(pairs)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path!r} must hold a JSON object")
    values = {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        values[name] = value
    if "eps" in values:
        values["eps"] = parse_eps(values["eps"])
    return values


def resolve_config(args: argparse.Namespace) -> GridConfig:
    values = dict(_DEFAULTS)
    env_jobs = os.environ.get(JOBS_ENV)
    if env_jobs is not None:
        try:
            values["jobs"] = int(env_jobs)
        except ValueError:
            raise UsageError(f"{JOBS_ENV} must be an integer, got {env_jobs!r}")
    if args.config is not None:
        values.update(_load_config_file(args.config))
    for name in _CONFIG_KEYS:
        given = getattr(args, name)
        if given is not None:
            values[name] = parse_eps(given) if name == "eps" else given
    return GridConfig(task=args.task, **values)


def _echo(config: GridConfig, names) -> dict:
    """The named config fields, eps written as '+1,-1'."""
    return {
        name: ",".join("+1" if e > 0 else "-1" for e in config.eps)
        if name == "eps" else getattr(config, name)
        for name in names
    }


def run(config: GridConfig):
    """Run one task (or all of them, in table order) and return the
    report: every task's rows go to the row runner in one call, then
    each task's report is collected from its slice of the results."""
    start = time.perf_counter()
    names = list(_TASKS) if config.task == "all" else [config.task]
    rows = [_TASKS[name].rows(config) for name in names]
    results = run_rows(list(chain.from_iterable(rows)), config.jobs)
    reports = [
        collect(name, _echo(config, _TASKS[name].echo), islice(results, len(task_rows)),
                _TASKS[name].notes(config))
        for name, task_rows in zip(names, rows)
    ]
    if config.task != "all":
        return reports[0]
    return CombinedReport(
        task="all",
        config=_echo(config, _SHARED_ECHO),
        reports=reports,
        wall_time_s=time.perf_counter() - start,
    )


def _check_out(path: Optional[str]) -> None:
    """Refuse an output path whose directory is missing, or that is a
    directory itself, before the run rather than after it."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise UsageError(f"cannot write report to {path!r}: no directory {directory!r}")
    if os.path.isdir(path):
        raise UsageError(f"cannot write report to {path!r}: it is a directory")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = resolve_config(args)
        _check_out(config.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
        payload = serialize_report(report, config.format)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    if config.out is not None:
        try:
            with open(config.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report to {config.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if report.ok else 1
