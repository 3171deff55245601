"""Command-line front end and the task table.

    verify <task> [--l-max N] [--n-max N] [--k-max N] [--m N]
                  [--eps +1,-1] [--x-min I] [--x-max I] [--jobs N]
                  [--format text|json|csv] [--out PATH] [--config FILE]

Each task is one entry of `_TASKS`: the config fields its report
echoes, its rows as a function of the `GridConfig` and the run's
tables, and the smallest n_max it accepts.  A row is a
`functools.partial` of a module-level row function (in `identities`,
`congruences` or `qpoly`) that returns the block of one grid row, so
the table is the one place that says which calls make up a task.
What several rows of a run read, or several cells of one row, is a
table of `_Tables` (the S tables, the central binomial columns, the
power sums of conjecture-sun-m, Phi_d^2 for q-sun and the central
q-binomials for q-specialize), built once per run, on its first read,
before any row runs: forked workers inherit it, and nothing outlives
`run`.
`run` hands every task's rows to one `gridrun.run_rows` call, then
collects each task's report from its slice of the results.  A
`GridConfig` checks every bound when it is built, so
`run(GridConfig("theorem1", n_max=25))` is safe to call from code as
well.  Flag precedence is defaults < IVPVERIFY_JOBS < config file <
explicit flags.

A fresh `verify` imports `argparse`, `json` and the package, and
nothing else beyond what the interpreter itself loads at start-up.
Each heavier stdlib module is imported on the one path that needs it:
`pickle` at `--jobs` > 1, `csv` for a CSV report, `fractions` for a
failing witness, `traceback` on exit 3.

The report goes to the `--out` file, or to stdout, piece by piece as
`report.report_pieces` forms it, never as one string.  A write that
fails, or an error while a piece is formed, leaves what was written
before it: the file is never deleted or renamed, since it may be
/dev/stdout or a FIFO, and on exit 3 stderr says that the file is
incomplete.

Exit codes: 0 when every case passes, 1 on any mathematical failure,
2 on a usage error (flags, bounds, the config file and the output
path are checked before a task runs: `--out` must name a file in a
directory that exists; a write that still fails, such as on a full
disk, shows when the report is written, after the run), 3 on an
internal error: any exception a task raises, or one raised while the
report is formed, a crash, not a counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cached_property, partial
from itertools import chain, islice
from typing import Callable, NamedTuple, Optional

from . import congruences, identities, qpoly
from .gridrun import collect, run_rows
from .report import CombinedReport, report_pieces

__all__ = ["GridConfig", "UsageError", "run", "main"]

JOBS_ENV = "IVPVERIFY_JOBS"
_FORMATS = ("text", "json", "csv")


class UsageError(Exception):
    """Bad flags, bounds, config file, or output destination."""


# GridConfig's fields after `task`, with their defaults, in the order
# of the `all` report's config echo.
_DEFAULTS = {
    "l_max": 3, "n_max": 20, "k_max": 30, "m": 2, "eps": (1, -1),
    "x_min": -10, "x_max": 10, "jobs": 1, "format": "text", "out": None,
}
_CONFIG_KEYS = tuple(_DEFAULTS)
_INT_KEYS = tuple(name for name, value in _DEFAULTS.items() if type(value) is int)
# Execution details, left out of the report's config echo.
_RUN_KEYS = ("jobs", "format", "out")
# What `all` echoes: every grid field, in GridConfig order.
_SHARED_ECHO = tuple(name for name in _CONFIG_KEYS if name not in _RUN_KEYS)


class GridConfig:
    """One run: the task, its grid bounds and how to report, the fields
    of `_DEFAULTS` given by keyword.  Building one checks every bound, so
    a bad one raises UsageError before any task runs, and no field can be
    assigned afterwards."""

    __slots__ = ("task", *_DEFAULTS)

    def __init__(self, task: str, **fields):
        unknown = fields.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"GridConfig() got an unexpected keyword argument {min(unknown)!r}")
        init = object.__setattr__
        init(self, "task", task)
        for name, default in _DEFAULTS.items():
            init(self, name, fields.get(name, default))
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

    def __setattr__(self, name, value=None):
        raise AttributeError(f"GridConfig field {name!r} cannot be changed")

    __delattr__ = __setattr__


class _Tables:
    """The tables that several rows of one run read, or several cells of
    one row, each built once per run, on its first read, by one
    module-level builder, so a task run alone builds only what it reads:
    q-specialize builds the central q-binomials, and q-sun reads none.
    Each S table holds the points its readers decide on; only `verify
    all`, which reads both, builds the full left table and cuts the
    weighted-sum corner from it.
    `run` reads them while it builds every task's rows, before
    `gridrun.run_rows`, so forked workers inherit them, and they go when
    the run's rows do.  A failing cell's witness reads the values that
    decided it, so a failing run builds what a passing one builds."""

    def __init__(self, config: GridConfig):
        self.config = config

    @cached_property
    def columns(self) -> tuple[list[list[int]], list[int]]:
        """C(m+k,2k) and C(2k,k): conjecture-final, telescope,
        q-specialize and lemma-schmidt."""
        return identities.central_columns(self.config.n_max)

    @cached_property
    def lhs(self) -> list[tuple[int, ...]]:
        """S_0 .. S_{n_max} of the left closed form: transform and
        recurrence.  Entry n holds x = 0 .. min(n+2, n_max), what they
        read, or, in `verify all`, x = 0 .. n_max, so that `weighted` is
        cut from it and the run builds one left table."""
        n = self.config.n_max
        if self.config.task == "all":
            return identities.build_lhs(n, n + 1)
        return identities.build_lhs(n, identities.ragged_points(n))

    @cached_property
    def rhs(self) -> list[tuple[int, ...]]:
        """S_0 .. S_{n_max} of the right closed form, entry n at
        x = 0 .. min(n+2, n_max): transform and recurrence."""
        n = self.config.n_max
        return identities.build_rhs(n, identities.ragged_points(n))

    @cached_property
    def weighted(self) -> list[tuple[int, ...]]:
        """The S corner S_0 .. S_{n_max - 1} at x = 0 .. n_max - 1, of the
        left closed form: theorem1, theorem2, the catalan-form identity
        and conjecture-sun-ii.  A task run alone builds it; `verify all`
        cuts it from `lhs`, which it builds in full: one full left table
        costs less than a ragged one and the corner built apart."""
        n = self.config.n_max
        if self.config.task == "all":
            return [values[:n] for values in self.lhs[:n]]
        return identities.build_lhs(n - 1, n)

    @cached_property
    def sun_m_sums(self) -> list[list[int]]:
        """The m-th power sums at each x of the window: conjecture-sun-m."""
        c = self.config
        return congruences.sun_m_sums(c.m, c.n_max, c.x_min, c.x_max)

    @cached_property
    def phi_squares(self) -> list[list[int]]:
        """Phi_d^2 for d = 2 .. n_max: q-sun."""
        return qpoly.phi_squares(self.config.n_max)

    @cached_property
    def central_q_binomials(self) -> list[list[int]]:
        """[2k choose k] for k < n_max: q-specialize, entry k for row k."""
        return qpoly.central_q_binomials(self.config.n_max)


class _Task(NamedTuple):
    """One entry of the task table."""

    # Config fields the report echoes, in this order.
    echo: tuple[str, ...]
    # The task's rows, in run order, from the config and the run's
    # tables: partials of module-level row functions whose arguments
    # are ints, tuples and strs, and the tables the rows read (lists
    # and tuples of ints, and of lists and tuples of ints); each returns
    # its row's block.
    rows: Callable[[GridConfig, _Tables], list[partial]]
    min_n_max: int = 1
    notes: Callable[[GridConfig], list[str]] = lambda config: []


def _xs(c: GridConfig) -> range:
    return range(c.x_min, c.x_max + 1)


# The task table, in the order `all` runs it.
_TASKS = {
    "transform": _Task(("n_max",), lambda c, t: [
        partial(identities.transform_row, t.lhs, t.rhs)
    ], min_n_max=0),
    "recurrence": _Task(("n_max",), lambda c, t: [
        partial(identities.recurrence_base_row, t.lhs, t.rhs),
        partial(identities.recurrence_row, "lhs", t.lhs),
        partial(identities.recurrence_row, "rhs", t.rhs),
    ], min_n_max=2),
    "chu-vandermonde": _Task(
        ("k_max",), lambda c, t: [partial(identities.chu_row, c.k_max)], min_n_max=0
    ),
    "telescope": _Task(("n_max",), lambda c, t: [partial(identities.telescope_row, t.columns)]),
    "sun-one": _Task(
        ("n_max",), lambda c, t: [partial(identities.sun_one_row, c.n_max)], min_n_max=0
    ),
    "sun-two": _Task(
        ("n_max",), lambda c, t: [partial(identities.sun_two_row, c.n_max)], min_n_max=0
    ),
    "theorem1": _Task(("l_max", "n_max", "eps"), lambda c, t: [
        partial(congruences.theorem1_row, c.l_max, c.eps, t.weighted)
    ]),
    "theorem2": _Task(("n_max",), lambda c, t: [partial(congruences.theorem2_row, t.weighted)]),
    "catalan-form": _Task(("n_max", "x_min", "x_max"), lambda c, t: [
        partial(congruences.catalan_identity_row, t.weighted),
        *(partial(congruences.catalan_terms_row, n, c.x_min, c.x_max)
          for n in range(1, c.n_max + 1)),
    ]),
    "lemma-schmidt": _Task(("l_max", "n_max", "eps"), lambda c, t: [
        partial(congruences.schmidt_row, l, c.eps, t.columns) for l in range(1, c.l_max + 1)
    ]),
    "conjecture-final": _Task(("l_max", "n_max"), lambda c, t: [
        partial(congruences.conjecture_final_row, l, t.columns) for l in range(1, c.l_max + 1)
    ]),
    "conjecture-sun-m": _Task(("m", "l_max", "n_max", "eps", "x_min", "x_max"), lambda c, t: [
        partial(congruences.sun_m_row, c.m, l, c.eps, c.x_min, t.sun_m_sums)
        for l in range(1, c.l_max + 1)
    ], notes=lambda c: [congruences.sun_m_regime(c.m, c.n_max, len(_xs(c)))]),
    "conjecture-sun-ii": _Task(("l_max", "n_max"), lambda c, t: [
        partial(congruences.sun_ii_row, l, t.weighted) for l in range(1, c.l_max + 1)
    ]),
    "q-sun": _Task(("n_max",), lambda c, t: [
        partial(qpoly.q_sun_row, k, c.n_max, t.phi_squares) for k in range(c.n_max)
    ]),
    "q-specialize": _Task(("n_max",), lambda c, t: [
        partial(qpoly.q_specialize_row, k, central, t.columns)
        for k, central in enumerate(t.central_q_binomials)
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
                        help=f"processes at work, this one included, at most one per usable "
                        f"core (default ${JOBS_ENV} or 1)")
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
        if values["jobs"] < 1:
            raise UsageError(f"{JOBS_ENV} must be >= 1, got {env_jobs!r}")
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


def _task_rows(config: GridConfig) -> dict[str, list[partial]]:
    """The rows of each task of the run, by task name in table order; the
    run's tables are built here, as the rows are made."""
    names = list(_TASKS) if config.task == "all" else [config.task]
    tables = _Tables(config)
    return {name: _TASKS[name].rows(config, tables) for name in names}


def run(config: GridConfig):
    """Run one task (or all of them, in table order) and return the
    report: every task's rows go to the row runner in one call, then
    each task's report is collected from its slice of the results."""
    start = time.perf_counter()
    rows = _task_rows(config)
    results = run_rows(list(chain.from_iterable(rows.values())), config.jobs)
    reports = [
        collect(name, _echo(config, _TASKS[name].echo), islice(results, len(rows[name])),
                _TASKS[name].notes(config))
        for name in rows
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


def _internal_error(exc: Exception) -> None:
    """Report exc on stderr as exit 3 does: its traceback, then
    `internal error: ...`."""
    import traceback

    traceback.print_exc()
    print(f"internal error: {exc!r}", file=sys.stderr)


def _write(pieces, fh) -> None:
    """Write each piece of the report as it is formed."""
    for piece in pieces:
        fh.write(piece)


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
    except Exception as exc:
        _internal_error(exc)
        return 3
    pieces = report_pieces(report, config.format)
    try:
        if config.out is None:
            _write(pieces, sys.stdout)
        else:
            with open(config.out, "w") as fh:
                _write(pieces, fh)
    except OSError as exc:  # forming a piece does no I/O: this is the destination's
        where = "stdout" if config.out is None else repr(config.out)
        print(f"error: cannot write report to {where}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        _internal_error(exc)
        if config.out is not None:
            print(f"error: the report at {config.out!r} is incomplete", file=sys.stderr)
        return 3
    return 0 if report.ok else 1
