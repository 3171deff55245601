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
then meta), with no intermediate dict and no pass of json's
pure-Python indent encoder.  The cases are written in slices of up to
1024 and, within a slice, by runs rather than one by one: a run is a
stretch of cases whose keys have one shape (the same names in order),
found by C-level passes over the slice.  A run is a single %-format of
a template for one of its cases, repeated, over the run's key values:
an int column through %d, any other column encoded first.  The text
after a case's key is rendered once per distinct outcome (status,
witness, severity).  The bytes are those of `json.dumps(...,
indent=2)` on the same data.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "CaseResult",
    "VerificationReport",
    "CombinedReport",
    "make_case",
    "serialize_report",
]

_int_repr = int.__repr__
_first = itemgetter(0)
_second = itemgetter(1)
_outcome = itemgetter(1, 2, 3)  # a case's (status, witness, severity)

# Cases per slice of a report's cases, and so at most per %-format: a
# bound on the template and on the lists of keys and values one slice
# builds, which a long report would otherwise hold for all its cases.
_SLICE = 1024

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
    """Rendered elements as the pieces of an array whose closing bracket
    is at pad: the elements themselves with the text between them, so
    that the final join is the one copy of them."""
    if not rendered:
        return ["[]"]
    inner = pad + "  "
    pieces = [f",\n{inner}"] * (2 * len(rendered))
    pieces[0] = f"[\n{inner}"
    pieces[1::2] = rendered
    pieces.append(f"\n{pad}]")
    return pieces


def _json_cases(cases: Sequence[CaseResult], pad: str) -> list[str]:
    """The cases as pieces of an array's elements, each case an object
    whose closing brace is at pad, the pieces joined as the array joins
    its elements.  The cases go in slices of at most _SLICE; a run is a
    stretch of a slice whose keys have one shape, the same names in the
    same order: the whole slice for every task but catalan-form, whose
    two shapes can split one.  The text after a case's key depends only
    on its outcome (status, witness, severity) and is rendered once per
    distinct outcome: into the template when every case has the same
    one, else as an argument of each case."""
    outcomes = set(map(_outcome, cases))
    if len(outcomes) == 1:
        tail = _json_case_tail(*outcomes.pop(), pad).replace("%", "%%")
        text = None
    else:
        tail = "%s"
        text = {outcome: _json_case_tail(*outcome, pad) for outcome in outcomes}
    pieces = []
    for start in range(0, len(cases), _SLICE):
        chunk = cases[start:start + _SLICE]
        keys = list(map(_first, chunk))
        tails = text and list(map(text.__getitem__, map(_outcome, chunk)))
        names = list(map(_first, keys[0]))
        if set(map(len, keys)) == {len(names)} and list(
            map(_first, chain.from_iterable(keys))
        ) == names * len(keys):
            pieces.append(_json_run(keys, tail, tails, pad))
            continue
        at = 0
        for _, run in groupby(keys, _names):
            run = list(run)
            pieces.append(_json_run(run, tail, tails and tails[at:at + len(run)], pad))
            at += len(run)
    return pieces


def _json_case_tail(status: str, witness, severity: str, pad: str) -> str:
    """A case object from the comma after its key to its closing brace at pad."""
    inner = pad + "  "
    return (
        f',\n{inner}"status": {_json_value(status)},\n'
        f'{inner}"witness": {_json_value(witness)},\n'
        f'{inner}"severity": {_json_value(severity)}\n{pad}}}'
    )


def _names(key) -> tuple:
    """The names of a key, in order: the shape of its case."""
    return tuple(map(_first, key))


def _json_run(keys: list, tail: str, tails: Optional[list], pad: str) -> str:
    """A run of cases, given by their keys (one shape), as one %-format
    of a template repeated once per case.  tail is the template's text
    after the key: the text all the cases share, or %s for each case's
    own, from tails.  A column of int key values goes through %d; any
    other column is encoded by _json_value first and goes through %s."""
    inner = pad + "  "
    field = inner + "  "
    width = len(keys[0])
    flat = list(map(_second, chain.from_iterable(keys)))
    if tails is None:
        values, step = flat, width
    else:
        step = width + 1
        values = [None] * (len(keys) * step)
        values[width::step] = tails
    specs = []
    for i, (name, _) in enumerate(keys[0]):
        column = flat[i::width]
        if set(map(type, column)) == {int}:
            spec = "%d"
            if tails is not None:
                values[i::step] = column
        else:
            spec = "%s"
            values[i::step] = list(map(_json_value, column))
        specs.append(f'{_json_str(name).replace("%", "%%")}: {spec}')
    body = f",\n{field}".join(specs)
    case = (
        f'{{\n{inner}"key": {{\n{field}{body}\n{inner}}}{tail}' if width
        else f'{{\n{inner}"key": {{}}{tail}'
    )
    return f",\n{pad}".join([case] * len(keys)) % tuple(values)


def _json_report(report, include_meta: bool, pad: str) -> list[str]:
    """The pieces of a report written as an object whose closing brace is
    at pad; the sub-reports of a CombinedReport are written without meta.
    Pieces, not one string: the case array is one piece per slice of its
    cases, which only the final join copies."""
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

    JSON comes from the fixed-schema writer above, its cases written by
    runs of one key shape in slices of at most 1024 cases, and is byte
    for byte what `json.dumps(d, indent=2) + "\\n"` writes for the
    report as a dict d (task, config, summary, cases and notes or
    reports, meta), for key names and config keys that are distinct
    strings and scalar values; a value json cannot encode raises
    TypeError.  CSV rows follow the fixed header
    task,case_key,status,witness,severity.
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
