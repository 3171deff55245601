"""Structured verification reports and their serializations.

A report is a list of per-case outcomes keyed by the grid coordinates
of the case (n, k, l, eps, ...).  Case ordering is lexicographic in the
key fields and therefore independent of how the grid was executed.
Wall time lives in a separate metadata block so that JSON and CSV
output are byte-identical across runs with identical configuration.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "CaseResult",
    "VerificationReport",
    "CombinedReport",
    "make_case",
    "serialize_report",
]

CSV_HEADER = ["task", "case_key", "status", "witness", "severity"]


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one grid cell.

    key holds ordered (name, value) pairs, e.g. (("l", 1), ("n", 2)).
    severity records whether the statement checked is a proved theorem
    or an open conjecture; a failing "conjecture" case is a mathematical
    discovery, not a build bug.
    """

    key: tuple[tuple[str, object], ...]
    status: str  # "pass" | "fail"
    witness: Optional[str] = None
    severity: str = "theorem"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    @property
    def sort_key(self) -> tuple:
        return tuple(v for _, v in self.key)

    @property
    def label(self) -> str:
        return ";".join(f"{name}={value}" for name, value in self.key)


def make_case(
    key: Sequence[tuple[str, object]],
    ok: bool,
    witness: Optional[str] = None,
    severity: str = "theorem",
) -> CaseResult:
    return CaseResult(
        key=tuple(key),
        status="pass" if ok else "fail",
        witness=None if ok else witness,
        severity=severity,
    )


@dataclass
class VerificationReport:
    task: str
    config: dict
    cases: list[CaseResult]
    notes: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.ok]

    def to_dict(self, include_meta: bool = True) -> dict:
        d = {
            "task": self.task,
            "config": dict(self.config),
            "summary": {"total": self.total, "pass": self.passed, "fail": self.failed},
            "cases": [
                {
                    "key": {name: value for name, value in c.key},
                    "status": c.status,
                    "witness": c.witness,
                    "severity": c.severity,
                }
                for c in self.cases
            ],
            "notes": list(self.notes),
        }
        if include_meta:
            d["meta"] = {"wall_time_s": round(self.wall_time_s, 6)}
        return d

    def csv_records(self) -> list[list[str]]:
        return [
            [self.task, c.label, c.status, c.witness or "", c.severity]
            for c in self.cases
        ]

    def render_text(self) -> str:
        lines = [f"task: {self.task}"]
        if self.config:
            lines.append("config: " + " ".join(f"{k}={v}" for k, v in self.config.items()))
        for c in self.cases:
            tag = "" if c.severity == "theorem" else f"  [{c.severity}]"
            extra = f"  witness: {c.witness}" if (not c.ok and c.witness) else ""
            lines.append(f"  {c.label}  {c.status}{tag}{extra}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"wall time: {self.wall_time_s:.3f}s")
        verdict = "PASS" if self.ok else "FAIL"
        count = self.passed if self.ok else self.failed
        lines.append(f"{verdict} {count}/{self.total}")
        return "\n".join(lines) + "\n"


@dataclass
class CombinedReport:
    """Aggregate of several task reports sharing one configuration."""

    task: str
    config: dict
    reports: list[VerificationReport]
    wall_time_s: float = 0.0

    @property
    def total(self) -> int:
        return sum(r.total for r in self.reports)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.reports)

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self, include_meta: bool = True) -> dict:
        d = {
            "task": self.task,
            "config": dict(self.config),
            "summary": {"total": self.total, "pass": self.passed, "fail": self.failed},
            "reports": [r.to_dict(include_meta=False) for r in self.reports],
        }
        if include_meta:
            d["meta"] = {"wall_time_s": round(self.wall_time_s, 6)}
        return d

    def csv_records(self) -> list[list[str]]:
        out = []
        for r in self.reports:
            out.extend(r.csv_records())
        return out

    def render_text(self) -> str:
        parts = [r.render_text() for r in self.reports]
        verdict = "PASS" if self.ok else "FAIL"
        count = self.passed if self.ok else self.failed
        parts.append(f"overall: {verdict} {count}/{self.total}\n")
        return "\n".join(parts)


def serialize_report(report, fmt: str, include_meta: bool = True) -> str:
    """Render a report as text, JSON or CSV.

    JSON is a single object with stable key order; CSV rows follow the
    fixed header task,case_key,status,witness,severity.
    """
    if fmt == "json":
        return json.dumps(report.to_dict(include_meta=include_meta), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(report.csv_records())
        return buf.getvalue()
    if fmt == "text":
        return report.render_text()
    raise ValueError(f"unknown report format: {fmt!r}")
