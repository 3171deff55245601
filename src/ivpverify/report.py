"""Structured verification reports and their serializations.

A report is a list of per-case outcomes keyed by the grid coordinates
of the case (n, k, l, eps, ...).  Case ordering is lexicographic in the
key fields and therefore independent of how the grid was executed.
Wall time lives in a separate metadata block so that JSON and CSV
output are byte-identical across runs with identical configuration.

A case is a NamedTuple, built by `make_case` straight from its four
fields: cheap to make and to sort, and sent back from a worker process
as the plain tuple of its fields.  `row_cases` makes the cases of a row
from its verdicts.  A report counts its failures once, when it is made,
in one pass over the case statuses.  `csv` is one of
the modules imported only on the path that needs it (see `cli`).

Every format is one generator of pieces, `report_pieces`: a piece is
formed only when it is asked for and holds, besides fixed text, the
cases of at most one slice of up to 1024 cases, so a caller that writes
each piece as it comes (as `cli.main` does) never holds the whole
report as one string.  `serialize_report` joins the pieces, for callers
that want the string.  CSV and text render their slices case by case.

JSON is written by a writer for the report's one fixed schema (task,
config, summary, then cases and notes or, for `all`, the sub-reports,
each streamed in its own pieces, then meta), with no intermediate dict
and no pass of json's pure-Python indent encoder.  The cases are
written in slices of up to 1024 and, within a slice, by runs rather
than one by one: a run is a stretch of cases whose keys have one shape
(the same names in order), found by C-level passes over the slice.  A
run is a single %-format of a template for one of its cases, repeated,
over the run's key values: an int column through %d, any other column
encoded first.  The text after a case's key is rendered once per
distinct outcome (status, witness, severity).  The bytes are those of
`json.dumps(..., indent=2)` on the same data.
"""

from __future__ import annotations

import io
import json
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "CaseResult",
    "VerificationReport",
    "CombinedReport",
    "make_case",
    "row_cases",
    "report_pieces",
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

    A NamedTuple: immutable and hashable, it compares equal to the
    plain tuple (key, status, witness, severity) of its fields, the
    form in which a worker process sends it back.
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


def row_cases(cells: list[tuple], widen: Callable, witness: Callable) -> list[CaseResult]:
    """The cases of one row from its cells' (key, verdict) pairs, all
    decided first.  Only if a cell fails is widen(top) called, once, with
    top the index of the last failing cell; each failing cell i gets the
    witness witness(i, wide), read from what that call built."""
    top = max((i for i, (_, ok) in enumerate(cells) if not ok), default=None)
    wide = None if top is None else widen(top)
    return [make_case(key, ok, None if ok else witness(i, wide))
            for i, (key, ok) in enumerate(cells)]


class VerificationReport:
    """The cases of one task's run, with the config it echoes, its notes
    and wall time; its failures are counted once, when it is made."""

    def __init__(self, task: str, config: dict, cases: list[CaseResult],
                 notes: Optional[list[str]] = None, wall_time_s: float = 0.0):
        self.task = task
        self.config = config
        self.cases = cases
        self.notes = [] if notes is None else notes
        self.wall_time_s = wall_time_s
        self.failed = len(cases) - [c.status for c in cases].count("pass")

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.ok]


class CombinedReport:
    """Aggregate of several task reports sharing one configuration; its
    failures are summed once, when it is made."""

    def __init__(self, task: str, config: dict, reports: list[VerificationReport],
                 wall_time_s: float = 0.0):
        self.task = task
        self.config = config
        self.reports = reports
        self.wall_time_s = wall_time_s
        self.failed = sum(r.failed for r in reports)

    @property
    def total(self) -> int:
        return sum(r.total for r in self.reports)

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0


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


def _json_array(elements: Iterable[Iterable[str]], pad: str) -> Iterator[str]:
    """The pieces of an array whose closing bracket is at pad, from its
    elements, each given as its own pieces.  The text before an element
    goes into the element's first piece, so no piece is separator text
    alone and none holds more than the largest element piece."""
    inner = pad + "  "
    lead = f"[\n{inner}"
    for element in elements:
        pieces = iter(element)
        yield lead + next(pieces)
        yield from pieces
        lead = f",\n{inner}"
    yield "[]" if lead[0] == "[" else f"\n{pad}]"  # "[]": no element came


def _json_cases(cases: Sequence[CaseResult], pad: str) -> Iterator[str]:
    """The cases as pieces of an array's elements, each case an object
    whose closing brace is at pad, each piece a run of cases joined as
    the array joins its elements.  The cases go in slices of at most
    _SLICE, and a piece is formed only when it is asked for; a run is a
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
    for chunk in _slices(cases):
        keys = list(map(_first, chunk))
        tails = text and list(map(text.__getitem__, map(_outcome, chunk)))
        names = list(map(_first, keys[0]))
        if set(map(len, keys)) == {len(names)} and list(
            map(_first, chain.from_iterable(keys))
        ) == names * len(keys):
            yield _json_run(keys, tail, tails, pad)
            continue
        at = 0
        for _, run in groupby(keys, _names):
            run = list(run)
            yield _json_run(run, tail, tails and tails[at:at + len(run)], pad)
            at += len(run)


def _json_case_tail(status: str, witness, severity: str, pad: str) -> str:
    """A case object from the comma after its key to its closing brace at pad."""
    inner = pad + "  "
    return (
        f',\n{inner}"status": {_json_value(status)},\n'
        f'{inner}"witness": {_json_value(witness)},\n'
        f'{inner}"severity": {_json_value(severity)}\n{pad}}}'
    )


def _slices(cases: Sequence[CaseResult]) -> Iterator[Sequence[CaseResult]]:
    """The cases in slices of at most _SLICE, one at a time."""
    return (cases[start:start + _SLICE] for start in range(0, len(cases), _SLICE))


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


def _json_report(report, include_meta: bool, pad: str) -> Iterator[str]:
    """The pieces of a report written as an object whose closing brace is
    at pad, each formed only when it is asked for; the sub-reports of a
    CombinedReport are written, as pieces too, without meta.  Besides
    its fixed text, a piece holds at most one run of one slice of cases."""
    inner = pad + "  "
    element = inner + "  "
    total, failed = report.total, report.failed
    summary = (("total", total), ("pass", total - failed), ("fail", failed))
    head = (
        f'{{\n{inner}"task": {_json_value(report.task)},\n'
        f'{inner}"config": {_json_object(report.config.items(), inner)},\n'
        f'{inner}"summary": {_json_object(summary, inner)},\n'
    )
    if isinstance(report, CombinedReport):
        yield f'{head}{inner}"reports": '
        yield from _json_array((_json_report(r, False, element) for r in report.reports), inner)
    else:
        yield f'{head}{inner}"cases": '
        yield from _json_array(zip(_json_cases(report.cases, element)), inner)
        yield f',\n{inner}"notes": '
        yield from _json_array(zip(map(_json_value, report.notes)), inner)
    end = f"\n{pad}}}"
    if include_meta:
        meta = (("wall_time_s", round(report.wall_time_s, 6)),)
        end = f',\n{inner}"meta": {_json_object(meta, inner)}{end}'
    yield end


def _csv_pieces(report) -> Iterator[str]:
    """The CSV rows in pieces: the header with the first slice of cases,
    then one piece per further slice of each task report's cases."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in report.reports if isinstance(report, CombinedReport) else [report]:
        for chunk in _slices(r.cases):
            writer.writerows([r.task, c.label, c.status, c.witness or "", c.severity]
                             for c in chunk)
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    if buf.tell():  # the header of a report without cases
        yield buf.getvalue()


def _verdict(report) -> str:
    """PASS and the passing count, or FAIL and the failing count."""
    if report.ok:
        return f"PASS {report.passed}/{report.total}"
    return f"FAIL {report.failed}/{report.total}"


def _text_line(c: CaseResult) -> str:
    """A case's line of the text report."""
    tag = "" if c.severity == "theorem" else f"  [{c.severity}]"
    extra = f"  witness: {c.witness}" if (not c.ok and c.witness) else ""
    return f"  {c.label}  {c.status}{tag}{extra}\n"


def _text_report(report: VerificationReport, after: str) -> Iterator[str]:
    """A task report's text: its head with the first slice of its case
    lines, one piece per further slice, then its notes, wall time and
    verdict, followed by after."""
    head = f"task: {report.task}\n"
    if report.config:
        head += "config: " + " ".join(f"{k}={v}" for k, v in report.config.items()) + "\n"
    for chunk in _slices(report.cases):
        yield "".join([head, *map(_text_line, chunk)])
        head = ""
    notes = "".join(f"note: {note}\n" for note in report.notes)
    yield f"{head}{notes}wall time: {report.wall_time_s:.3f}s\n{_verdict(report)}\n{after}"


def _text_pieces(report) -> Iterator[str]:
    """The text of each task report, a blank line after each of a
    CombinedReport's, then its overall verdict."""
    if not isinstance(report, CombinedReport):
        yield from _text_report(report, "")
        return
    for r in report.reports:
        yield from _text_report(r, "\n")
    yield f"overall: {_verdict(report)}\n"


def report_pieces(report, fmt: str, include_meta: bool = True) -> Iterator[str]:
    """A report as text, JSON or CSV, in pieces that are formed one at a
    time as they are asked for, so a caller that writes each piece as it
    comes never holds the whole report as one string.  Besides its fixed
    text (headers, separators, a task report's notes and verdict), a
    piece holds the cases of at most one slice of _SLICE cases.

    JSON comes from the fixed-schema writer above, its cases written by
    runs of one key shape in slices of at most 1024 cases, and is byte
    for byte what `json.dumps(d, indent=2) + "\\n"` writes for the
    report as a dict d (task, config, summary, cases and notes or
    reports, meta), for key names and config keys that are distinct
    strings and scalar values; a value json cannot encode raises
    TypeError when the piece that holds it is formed.  CSV rows follow
    the fixed header task,case_key,status,witness,severity.  Text and
    CSV have no meta: text always shows the wall time, CSV never.  An
    unknown format raises ValueError at once.
    """
    if fmt == "json":
        return chain(_json_report(report, include_meta, ""), ("\n",))
    if fmt == "csv":
        return _csv_pieces(report)
    if fmt == "text":
        return _text_pieces(report)
    raise ValueError(f"unknown report format: {fmt!r}")


def serialize_report(report, fmt: str, include_meta: bool = True) -> str:
    """The report as one string: the pieces of `report_pieces`, joined.
    For callers that want the string, and for tests; `cli.main` writes
    the pieces as they come instead."""
    return "".join(report_pieces(report, fmt, include_meta))
