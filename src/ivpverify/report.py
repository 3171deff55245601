"""Structured verification reports and their serializations.

A report is a list of per-case outcomes keyed by the grid coordinates
of the case (n, k, l, eps, ...).  Case ordering is lexicographic in the
key fields and therefore independent of how the grid was executed.
Wall time lives in a separate metadata block so that JSON and CSV
output are byte-identical across runs with identical configuration.

A case is a NamedTuple, built by `make_case` straight from its four
fields: cheap to make, to sort and to send back from a worker
process, where it pickles as a plain tuple.  A report counts its
failures in one pass over the case statuses.

JSON is written by a writer for the report's one fixed schema (task,
config, summary, then cases and notes or, for `all`, the sub-reports,
then meta): each case is one f-string over its fields, with no
intermediate dict and no pass of json's pure-Python indent encoder.
Int key values are written without a call per value, and the text
after the key of a case without a witness is rendered once per report.
The bytes are those of `json.dumps(..., indent=2)` on the same data.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "CaseResult",
    "VerificationReport",
    "CombinedReport",
    "make_case",
    "serialize_report",
]

_int_repr = int.__repr__

CSV_HEADER = ["task", "case_key", "status", "witness", "severity"]


class CaseResult(NamedTuple):
    """Outcome of one grid cell.

    key holds ordered (name, value) pairs, e.g. (("l", 1), ("n", 2)).
    severity records whether the statement checked is a proved theorem
    or an open conjecture; a failing "conjecture" case is a mathematical
    discovery, not a build bug.

    A NamedTuple: immutable and hashable, it pickles as a plain tuple
    (small results from worker processes) and compares equal to the
    plain tuple (key, status, witness, severity) of its fields.
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


_new_case = tuple.__new__


def make_case(
    key: Sequence[tuple[str, object]],
    ok: bool,
    witness: Optional[str] = None,
    severity: str = "theorem",
) -> CaseResult:
    """The case of one cell; a passing case keeps no witness."""
    if ok:
        return _new_case(CaseResult, (tuple(key), "pass", None, severity))
    return _new_case(CaseResult, (tuple(key), "fail", witness, severity))


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
        return len(self.cases) - [c.status for c in self.cases].count("pass")

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.ok]

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


def _json_value(v) -> str:
    """A scalar as json.dumps writes it."""
    if type(v) is str:
        return _json_str(v)
    if type(v) is int:
        return _int_repr(v)
    if v is None:  # the witness of every passing case: skip json.dumps' call overhead
        return "null"
    return json.dumps(v)  # bool, float; raises TypeError on anything unencodable


def _json_object(items, pad: str) -> str:
    """(str name, scalar) pairs as an object whose closing brace is at pad."""
    if not items:
        return "{}"
    inner = pad + "  "
    body = ",\n".join([f"{inner}{_json_str(name)}: {_json_value(v)}" for name, v in items])
    return f"{{\n{body}\n{pad}}}"


def _json_array(rendered: list[str], pad: str) -> list[str]:
    """Rendered elements as the pieces of an array whose closing bracket is at pad."""
    if not rendered:
        return ["[]"]
    inner = pad + "  "
    return [f"[\n{inner}", f",\n{inner}".join(rendered), f"\n{pad}]"]


def _json_cases(cases: Sequence[CaseResult], pad: str) -> list[str]:
    """Each case as an object whose closing brace is at pad.  Int key
    values skip _json_value's call, and the text after the key of a
    case without a witness depends only on its status and severity
    strings, so it is rendered once per report."""
    inner = pad + "  "
    field = inner + "  "
    head = f'{{\n{inner}"key": '
    sep = f",\n{field}"
    tails = {}
    out = []
    for key, status, witness, severity in cases:
        if witness is not None:
            tail = _json_case_tail(status, witness, severity, pad)
        elif (tail := tails.get((status, severity))) is None:
            tail = tails[status, severity] = _json_case_tail(status, None, severity, pad)
        body = sep.join([
            f"{_json_str(name)}: {_int_repr(v) if type(v) is int else _json_value(v)}"
            for name, v in key
        ])
        out.append(f"{head}{{\n{field}{body}\n{inner}}}{tail}" if key else f"{head}{{}}{tail}")
    return out


def _json_case_tail(status: str, witness, severity: str, pad: str) -> str:
    """A case object from the comma after its key to its closing brace at pad."""
    inner = pad + "  "
    return (
        f',\n{inner}"status": {_json_value(status)},\n'
        f'{inner}"witness": {_json_value(witness)},\n'
        f'{inner}"severity": {_json_value(severity)}\n{pad}}}'
    )


def _json_report(report, include_meta: bool, pad: str) -> list[str]:
    """The pieces of a report written as an object whose closing brace is
    at pad; the sub-reports of a CombinedReport are written without meta.
    Pieces, not one string, so that the case array is copied only once
    more, by the final join."""
    inner = pad + "  "
    element = inner + "  "
    total, failed = report.total, report.failed
    summary = (("total", total), ("pass", total - failed), ("fail", failed))
    pieces = [
        f'{{\n{inner}"task": {_json_value(report.task)},\n'
        f'{inner}"config": {_json_object(report.config.items(), inner)},\n'
        f'{inner}"summary": {_json_object(summary, inner)},\n'
    ]
    if isinstance(report, CombinedReport):
        subreports = ["".join(_json_report(r, False, element)) for r in report.reports]
        pieces += [f'{inner}"reports": ', *_json_array(subreports, inner)]
    else:
        cases = _json_cases(report.cases, element)
        notes = [_json_value(n) for n in report.notes]
        pieces += [f'{inner}"cases": ', *_json_array(cases, inner)]
        pieces += [f',\n{inner}"notes": ', *_json_array(notes, inner)]
    if include_meta:
        meta = (("wall_time_s", round(report.wall_time_s, 6)),)
        pieces.append(f',\n{inner}"meta": {_json_object(meta, inner)}')
    pieces.append(f"\n{pad}}}")
    return pieces


def serialize_report(report, fmt: str, include_meta: bool = True) -> str:
    """Render a report as text, JSON or CSV.

    JSON comes from the fixed-schema writer above and is byte for byte
    what `json.dumps(d, indent=2) + "\\n"` writes for the report as a
    dict d (task, config, summary, cases and notes or reports, meta),
    for key names and config keys that are distinct strings and scalar
    values; a value json cannot encode raises TypeError.  CSV rows
    follow the fixed header task,case_key,status,witness,severity.
    """
    if fmt == "json":
        return "".join([*_json_report(report, include_meta, ""), "\n"])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(report.csv_records())
        return buf.getvalue()
    if fmt == "text":
        return report.render_text()
    raise ValueError(f"unknown report format: {fmt!r}")
