"""Command-line front end: grid configuration, dispatch, report output.

    verify <task> [--l-max N] [--n-max N] [--k-max N] [--m N]
                  [--eps +1,-1] [--x-min I] [--x-max I] [--jobs N]
                  [--format text|json|csv] [--out PATH] [--config FILE]

Exit codes: 0 when every case passes, 1 on any mathematical failure,
2 on a usage error (every bound is checked before a task runs), 3 on an
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
import traceback
from dataclasses import dataclass, fields
from typing import Optional

from . import congruences, identities, qpoly
from .report import CombinedReport, serialize_report

__all__ = ["GridConfig", "UsageError", "run", "main"]

JOBS_ENV = "IVPVERIFY_JOBS"
_FORMATS = ("text", "json", "csv")


class UsageError(Exception):
    """Bad flags, bounds, config file, or output destination."""


@dataclass(frozen=True)
class GridConfig:
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


# Dispatch table; "all" runs these in order with shared bounds.
_TASKS = {
    "transform": lambda c: identities.verify_transformation(c.n_max, jobs=c.jobs),
    "recurrence": lambda c: identities.verify_recurrence(c.n_max, jobs=c.jobs),
    "chu-vandermonde": lambda c: identities.verify_chu_vandermonde(c.k_max, jobs=c.jobs),
    "telescope": lambda c: identities.verify_telescoped_sum(c.n_max, jobs=c.jobs),
    "sun-one": lambda c: identities.verify_sun_identity_one(c.n_max, jobs=c.jobs),
    "sun-two": lambda c: identities.verify_sun_identity_two(c.n_max, jobs=c.jobs),
    "theorem1": lambda c: congruences.check_theorem1(
        c.l_max, c.n_max, eps=c.eps, jobs=c.jobs
    ),
    "theorem2": lambda c: congruences.check_theorem2(c.n_max, jobs=c.jobs),
    "catalan-form": lambda c: congruences.check_catalan_form(
        c.n_max, x_min=c.x_min, x_max=c.x_max, jobs=c.jobs
    ),
    "lemma-schmidt": lambda c: congruences.check_lemma_schmidt(
        c.l_max, c.n_max, eps=c.eps, jobs=c.jobs
    ),
    "conjecture-final": lambda c: congruences.check_conjecture_final(
        c.l_max, c.n_max, jobs=c.jobs
    ),
    "conjecture-sun-m": lambda c: congruences.check_conjecture_sun_m(
        c.m, c.l_max, c.n_max, eps=c.eps, x_min=c.x_min, x_max=c.x_max, jobs=c.jobs
    ),
    "conjecture-sun-ii": lambda c: congruences.check_conjecture_sun_ii(
        c.l_max, c.n_max, jobs=c.jobs
    ),
    "q-sun": lambda c: qpoly.check_q_sun(c.n_max, jobs=c.jobs),
    "q-specialize": lambda c: qpoly.q_specialization_check(c.n_max, jobs=c.jobs),
}
_TASK_ORDER = list(_TASKS)
TASK_NAMES = _TASK_ORDER + ["all"]

# Smallest n_max each task accepts (default 1).
_MIN_N_MAX = {
    "transform": 0,
    "chu-vandermonde": 0,
    "sun-one": 0,
    "sun-two": 0,
    "recurrence": 2,
    "all": 2,
}

_DEFAULTS = {f.name: f.default for f in fields(GridConfig) if f.name != "task"}
_CONFIG_KEYS = tuple(_DEFAULTS)
_INT_KEYS = tuple(name for name, value in _DEFAULTS.items() if type(value) is int)
# Execution details, left out of the report's config echo.
_RUN_KEYS = ("jobs", "format", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Exact verification of binomial-sum identities, "
        "integer-valued polynomials, and congruences over parameter grids.",
    )
    parser.add_argument("task", choices=TASK_NAMES, help="what to verify")
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
                        help=f"worker processes (default ${JOBS_ENV} or 1)")
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="report format (default text)")
    parser.add_argument("--out", default=None, help="write report to this path")
    parser.add_argument("--config", default=None,
                        help="JSON file with the same keys as the flags; flags win")
    return parser


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
        vals = []
        for v in value:
            if v not in (1, -1):
                raise UsageError(f"bad eps entry {v!r}; want a subset of +1,-1")
            vals.append(int(v))
    else:
        raise UsageError(f"bad eps value {value!r}")
    if not vals:
        raise UsageError("eps must name at least one of +1, -1")
    return tuple(sorted(set(vals), reverse=True))


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
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
    for name in _INT_KEYS:
        if name in values and type(values[name]) is not int:
            raise UsageError(f"config key {name!r} must be an integer")
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
    if args.config:
        values.update(_load_config_file(args.config))
    for name in _CONFIG_KEYS:
        given = getattr(args, name)
        if given is not None:
            values[name] = parse_eps(given) if name == "eps" else given
    config = GridConfig(task=args.task, **values)
    _validate(config)
    return config


def _validate(config: GridConfig) -> None:
    if config.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {config.jobs}")
    if config.l_max < 1:
        raise UsageError(f"--l-max must be >= 1, got {config.l_max}")
    if config.k_max < 0:
        raise UsageError(f"--k-max must be >= 0, got {config.k_max}")
    if config.m < 1:
        raise UsageError(f"--m must be >= 1, got {config.m}")
    if config.x_min > config.x_max:
        raise UsageError(f"empty x range [{config.x_min}, {config.x_max}]")
    if config.format not in _FORMATS:
        raise UsageError(f"format must be one of {', '.join(_FORMATS)}")
    floor = _MIN_N_MAX.get(config.task, 1)
    if config.n_max < floor:
        raise UsageError(
            f"task {config.task} needs --n-max >= {floor}, got {config.n_max}"
        )


def _shared_echo(config: GridConfig) -> dict:
    echo = {name: getattr(config, name) for name in _CONFIG_KEYS if name not in _RUN_KEYS}
    echo["eps"] = congruences.format_eps(config.eps)
    return echo


def run(config: GridConfig):
    """Dispatch one task (or all of them) and return the report."""
    if config.task == "all":
        start = time.perf_counter()
        reports = [_TASKS[name](config) for name in _TASK_ORDER]
        return CombinedReport(
            task="all",
            config=_shared_echo(config),
            reports=reports,
            wall_time_s=time.perf_counter() - start,
        )
    return _TASKS[config.task](config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
        payload = serialize_report(report, config.format)
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report to {config.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if report.ok else 1
