"""Independent verdict check for `verify` JSON reports.

The expected cells of each task are computed here from the grid
formulas, not read from the program: for example conjecture-final has
sum_l sum_n n cells, keyed (l, n, k) with 0 <= k < n.  A report passes
only when every expected cell is present exactly once with status
`pass` and the paper's severity, no other cell is present, and the
call exited 0.  Every expected cell that misses this counts as failed;
a non-zero exit, a crash, a timeout or an unreadable report fails every
cell of its task.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from workloads import Task

EPS = (1, -1)
# Tasks of `verify all`, with the shared bounds of its Task params.
ALL_TASKS = (
    "transform", "recurrence", "chu-vandermonde", "telescope", "sun-one",
    "sun-two", "theorem1", "theorem2", "catalan-form", "lemma-schmidt",
    "conjecture-final", "conjecture-sun-m", "conjecture-sun-ii", "q-sun",
    "q-specialize",
)


def _key(**fields) -> tuple:
    return tuple(sorted(fields.items()))


def expected_cells(task: str, p: dict) -> dict[tuple, str]:
    """Map each expected case key of `task` over grid `p` to its severity."""
    L, N = p.get("l_max"), p.get("n_max")
    eps = p.get("eps", EPS)
    xs = range(p["x_min"], p["x_max"] + 1) if "x_min" in p else ()
    T = "theorem"
    if task in ("transform", "sun-one", "sun-two"):
        return {_key(n=n): T for n in range(N + 1)}
    if task == "recurrence":
        cells = {_key(family="base", n=n): T for n in (0, 1)}
        cells.update({_key(family=f, n=n): T for f in ("lhs", "rhs") for n in range(N - 1)})
        return cells
    if task == "chu-vandermonde":
        return {_key(k=k): T for k in range(p["k_max"] + 1)}
    if task in ("telescope", "q-sun", "q-specialize"):
        return {_key(n=n, k=k): T for n in range(1, N + 1) for k in range(n)}
    if task in ("theorem1", "lemma-schmidt"):
        return {
            _key(l=l, n=n, eps=e): T
            for l in range(1, L + 1) for n in range(1, N + 1) for e in eps
        }
    if task == "theorem2":
        return {_key(n=n): T for n in range(1, N + 1)}
    if task == "catalan-form":
        cells = {_key(part="identity", n=n): T for n in range(1, N + 1)}
        cells.update({_key(part="terms", n=n, x=x): T for n in range(1, N + 1) for x in xs})
        return cells
    if task == "conjecture-final":
        return {
            _key(l=l, n=n, k=k): T if l == 1 else "conjecture"
            for l in range(1, L + 1) for n in range(1, N + 1) for k in range(n)
        }
    if task == "conjecture-sun-ii":
        return {
            _key(l=l, n=n): T if l == 1 else "conjecture"
            for l in range(1, L + 1) for n in range(1, N + 1)
        }
    if task == "conjecture-sun-m":
        sev = T if p["m"] <= 2 else "conjecture"
        return {
            _key(l=l, n=n, eps=e, x=x): sev
            for l in range(1, L + 1) for n in range(1, N + 1) for e in eps for x in xs
        }
    raise ValueError(f"no oracle for task {task!r}")


def expected_count(task: Task) -> int:
    if task.name == "all":
        return sum(len(expected_cells(t, task.params)) for t in ALL_TASKS)
    return len(expected_cells(task.name, task.params))


@dataclass
class Check:
    """Outcome of checking one task's report."""

    attempted: int
    failed: int
    digest: Optional[str] = None
    problems: list[str] = field(default_factory=list)


def _failed_cells(report: dict, expected: dict[tuple, str]) -> tuple[int, list[str]]:
    """Count expected cells that are missing, not `pass`, or mis-tagged.

    An unexpected or duplicated cell means the report does not describe
    the grid that was asked for, so every cell of it counts as failed.
    """
    cases = report.get("cases")
    if not isinstance(cases, list):
        return len(expected), [f"{report.get('task')}: no case list"]
    seen: dict[tuple, dict] = {}
    for case in cases:
        try:
            key = tuple(sorted(case["key"].items()))
        except (AttributeError, KeyError, TypeError):
            return len(expected), [f"{report.get('task')}: malformed case {case!r:.80}"]
        if key not in expected or key in seen:
            what = "duplicate" if key in seen else "unexpected"
            return len(expected), [f"{report.get('task')}: {what} cell {dict(key)}"]
        seen[key] = case
    failed, problems = 0, []
    for key, severity in expected.items():
        case = seen.get(key)
        if case is None:
            bad = "missing"
        elif case.get("status") != "pass":
            bad = f"status {case.get('status')!r}"
        elif case.get("severity") != severity:
            bad = f"severity {case.get('severity')!r}, expected {severity!r}"
        else:
            continue
        failed += 1
        if len(problems) < 5:
            problems.append(f"{report.get('task')}: cell {dict(key)}: {bad}")
    return failed, problems


def report_digest(report: dict) -> str:
    """SHA-256 of the report with its `meta` block (wall time) removed."""
    body = {k: v for k, v in report.items() if k != "meta"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_report(task: Task, path: str, exit_code: Optional[int]) -> Check:
    """Check the report `verify` wrote to `path` for `task`.

    `exit_code` is None when the call crashed or never ran.
    """
    names = ALL_TASKS if task.name == "all" else (task.name,)
    expected = {name: expected_cells(name, task.params) for name in names}
    attempted = sum(len(cells) for cells in expected.values())
    if exit_code != 0:
        return Check(attempted, attempted, problems=[f"{task.name}: exit code {exit_code}"])
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return Check(attempted, attempted, problems=[f"{task.name}: unreadable report: {exc}"])
    if not isinstance(report, dict):
        return Check(attempted, attempted, problems=[f"{task.name}: report is not an object"])
    digest = report_digest(report)
    if task.name == "all":
        subs = report.get("reports")
        by_task = {r.get("task"): r for r in subs if isinstance(r, dict)} if isinstance(subs, list) else {}
    else:
        by_task = {report.get("task"): report}
    failed, problems = 0, []
    for name, cells in expected.items():
        sub = by_task.get(name)
        if sub is None:
            f, p = len(cells), [f"{name}: no report"]
        else:
            f, p = _failed_cells(sub, cells)
        failed += f
        problems += p
    return Check(attempted, failed, digest, problems)
