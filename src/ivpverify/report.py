"""Structured verification reports and their serializations.

A row's outcome is one block (`Block`), a struct of arrays as in the
Apache Arrow columnar format: its key names, once; one column per key
field; one status byte per cell; its failing cells' witnesses only; its
severity, once.  `row_cases` makes a row's block from its verdicts.  A
report holds a task's blocks with their cells in key order, the order
of the key values (`sort_key`), so it does not depend on how the grid
ran, and counts its failures once, from the status bytes.  `CaseResult`
is the view of one cell, which `VerificationReport.cases` builds on
demand; no writer reads it.  Wall time lives in a metadata block, so
JSON and CSV are byte-identical across runs of one configuration.

Every format is one generator of pieces, `report_pieces`, each formed
when it is asked for and holding, besides fixed text, one run of up to
1024 cells of one status in one block: a caller that writes each piece
as it comes (as `cli.main` does) never holds the whole report as one
string.  A run is one %-format of a template repeated per cell
(`_stretch`), made once per block from its columns (`_fields`): a
column of one value is written into it, an int column goes through %d,
any other through %s.  A failing cell's text after its key (JSON) or
its witness (text) goes through %s.  CSV writes a passing run by a
template that `csv.writer` formed for the block, and every other row
through `csv.writer`, so each field is quoted exactly as `csv` quotes
it; `csv` is imported only then (see `cli`).  JSON is written for the
report's one fixed schema, with no intermediate dict, in the bytes of
`json.dumps(..., indent=2)`.
"""

from __future__ import annotations

import io
import json
from itertools import chain, product, repeat
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Block",
    "CaseResult",
    "VerificationReport",
    "CombinedReport",
    "grid_columns",
    "row_cases",
    "report_pieces",
]

_int_repr = int.__repr__

# Cells per run at most, and so per %-format: a bound on the template
# and on the lists of values one run builds, which a long report would
# otherwise hold for all its cells.
_SLICE = 1024

CSV_HEADER = ["task", "case_key", "status", "witness", "severity"]


class Block(NamedTuple):
    """The cells of one row: key names, one column per key field, one status
    byte per cell (1 pass, 0 fail), each failing cell's witness, one severity."""

    names: tuple[str, ...]
    columns: list[list]
    status: bytearray
    witnesses: dict[int, Optional[str]]
    severity: str = "theorem"


class CaseResult(NamedTuple):
    """The view of one cell: key holds its (name, value) pairs in order.
    A failing "conjecture" case is a mathematical discovery, not a bug."""

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


def grid_columns(*axes: Sequence) -> list[list]:
    """One key column per axis, for the cells of the product of the
    axes in key order: the last axis varies fastest."""
    return [list(column) for column in zip(*product(*axes))] or [[] for _ in axes]


def row_cases(names: tuple[str, ...], columns: list[list], oks: Iterable[bool], witness: Callable,
              widen: Optional[Callable] = None, severity: str = "theorem") -> Block:
    """The block of one row from its key columns and its cells'
    verdicts, all decided first.  Each failing cell i gets the witness
    witness(i, wide).  wide is None, or, for a row whose witnesses read
    wider values, what widen(top) built: called once, only if a cell
    fails, with top the index of the last failing cell."""
    status = bytearray(oks)
    failing = [i for i, ok in enumerate(status) if not ok] if 0 in status else []
    wide = widen(failing[-1]) if failing and widen is not None else None
    return Block(names, columns, status, {i: witness(i, wide) for i in failing}, severity)


class VerificationReport:
    """The blocks of one task's run, in key order, with the config it
    echoes, its notes and wall time; its cells and failures are counted
    once, when it is made, from the status bytes."""

    def __init__(self, task: str, config: dict, blocks: list[Block],
                 notes: Optional[list[str]] = None, wall_time_s: float = 0.0):
        self.task = task
        self.config = config
        self.blocks = blocks
        self.notes = [] if notes is None else notes
        self.wall_time_s = wall_time_s
        self.total = sum(len(block.status) for block in blocks)
        self.failed = sum(block.status.count(0) for block in blocks)

    @property
    def cases(self) -> list[CaseResult]:
        """Every cell as a case, in key order, built when it is read."""
        cases = []
        for names, columns, status, witnesses, severity in self.blocks:
            keys = zip(*(zip(repeat(name), column) for name, column in zip(names, columns)))
            cases += [CaseResult(key, "pass" if ok else "fail", witnesses.get(i), severity)
                      for i, (key, ok) in enumerate(zip(keys if names else repeat(()), status))]
        return cases

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


def _fields(block: Block, head: Callable, text: Callable, other: Optional[Callable]):
    """Each key field of a block as its %-template text, head(name) then
    its value, and the fills, (column, encoder) of each field with a
    value per cell: a column of one value, of one type, goes into the
    text as text(value), an int column through %d, any other through %s
    of other(value), or, if other is None, the block has no template."""
    texts, fills = [], []
    for name, column in zip(block.names, block.columns):
        lead = head(name).replace("%", "%%")
        first, types = column[0], set(map(type, column))
        if len(types) == 1 and first == column[-1] and column.count(first) == len(column):
            texts.append(lead + text(first).replace("%", "%%"))
        elif types == {int}:
            texts.append(lead + "%d")
            fills.append((column, None))
        elif other is None:
            return None
        else:
            texts.append(lead + "%s")
            fills.append((column, other))
    return texts, fills


def _runs(status: bytearray) -> Iterator[tuple[int, int, int]]:
    """(start, stop, status) of each run of up to _SLICE cells of one status."""
    start, size = 0, len(status)
    while start < size:
        ok, limit = status[start], min(start + _SLICE, size)
        stop = status.find(1 - ok, start, limit)
        stop = limit if stop < 0 else stop
        yield start, stop, ok
        start = stop


def _stretch(template: str, sep: str, fills, start: int, stop: int,
             tails: Optional[list] = None) -> str:
    """Cells start .. stop-1 as one %-format of the template, joined by
    sep, from the cells' values in the fills and, given tails, each
    cell's own text last."""
    count = stop - start
    step = len(fills) + (tails is not None)
    values = [None] * (count * step)
    for i, (column, encode) in enumerate(fills):
        part = column[start:stop]
        values[i::step] = part if encode is None else list(map(encode, part))
    if tails is not None:
        values[step - 1::step] = tails
    return sep.join([template] * count) % tuple(values)


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


def _json_cases(blocks: list[Block], pad: str) -> Iterator[str]:
    """The cells as pieces of an array's elements, each cell an object
    whose closing brace is at pad, each piece one run of a block, its
    cells joined as the array joins its elements.  The text after a
    passing cell's key is in the template; a failing cell's goes
    through %s."""
    inner = pad + "  "
    field = inner + "  "
    sep = f",\n{pad}"
    for block in blocks:
        if not block.status:
            continue
        texts, fills = _fields(block, lambda name: f"{_json_str(name)}: ", _json_value, _json_value)
        body = f",\n{field}".join(texts)
        key = f'{{\n{inner}"key": ' + (f"{{\n{field}{body}\n{inner}}}" if texts else "{}")
        passed = key + _json_case_tail("pass", None, block.severity, pad).replace("%", "%%")
        for a, b, ok in _runs(block.status):
            got = map(block.witnesses.get, range(a, b))
            tails = None if ok else [_json_case_tail("fail", w, block.severity, pad) for w in got]
            yield _stretch(passed if ok else key + "%s", sep, fills, a, b, tails)


def _json_case_tail(status: str, witness, severity: str, pad: str) -> str:
    """A case object from the comma after its key to its closing brace at pad."""
    inner = pad + "  "
    return (
        f',\n{inner}"status": {_json_value(status)},\n'
        f'{inner}"witness": {_json_value(witness)},\n'
        f'{inner}"severity": {_json_value(severity)}\n{pad}}}'
    )


def _json_report(report, include_meta: bool, pad: str) -> Iterator[str]:
    """The pieces of a report written as an object whose closing brace is
    at pad, each formed only when it is asked for; the sub-reports of a
    CombinedReport are written, as pieces too, without meta.  Besides
    its fixed text, a piece holds at most one run of one block."""
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
        yield from _json_array(zip(_json_cases(report.blocks, element)), inner)
        yield f',\n{inner}"notes": '
        yield from _json_array(zip(map(_json_value, report.notes)), inner)
    end = f"\n{pad}}}"
    if include_meta:
        meta = (("wall_time_s", round(report.wall_time_s, 6)),)
        end = f',\n{inner}"meta": {_json_object(meta, inner)}{end}'
    yield end


def _label(block: Block, i: int) -> str:
    """The case_key of cell i, as `CaseResult.label` writes it."""
    return ";".join(f"{name}={column[i]}" for name, column in zip(block.names, block.columns))


def _csv_pieces(report) -> Iterator[str]:
    """The CSV rows in pieces: the header with the first run of cells,
    then one piece per further run of each block."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in report.reports if isinstance(report, CombinedReport) else [report]:
        for block in r.blocks:
            if not block.status:
                continue
            fields = _fields(block, "{}=".format, format, None)
            if fields is not None:
                texts, fills = fields
                probe = io.StringIO()
                csv.writer(probe, lineterminator="\n").writerow(
                    [r.task.replace("%", "%%"), ";".join(texts), "pass", "",
                     block.severity.replace("%", "%%")])
                passed = probe.getvalue()
            for a, b, ok in _runs(block.status):
                if ok and fields is not None:
                    buf.write(_stretch(passed, "", fills, a, b))
                else:
                    writer.writerows([r.task, _label(block, i), "pass" if ok else "fail",
                                      block.witnesses.get(i) or "", block.severity]
                                     for i in range(a, b))
                yield buf.getvalue()
                buf.seek(0)
                buf.truncate()
    if buf.tell():  # the header of a report without cells
        yield buf.getvalue()


def _verdict(report) -> str:
    """PASS and the passing count, or FAIL and the failing count."""
    if report.ok:
        return f"PASS {report.passed}/{report.total}"
    return f"FAIL {report.failed}/{report.total}"


def _text_report(report: VerificationReport, after: str) -> Iterator[str]:
    """A task report's text: its head with the first run of its case
    lines, one piece per further run, then its notes, wall time and
    verdict, followed by after.  A case line is its label, its status,
    a severity tag other than "theorem", and a failing case's witness."""
    head = f"task: {report.task}\n"
    if report.config:
        head += "config: " + " ".join(f"{k}={v}" for k, v in report.config.items()) + "\n"
    for block in report.blocks:
        if not block.status:
            continue
        texts, fills = _fields(block, "{}=".format, format, format)
        label = ";".join(texts)
        tag = "" if block.severity == "theorem" else f"  [{block.severity}]".replace("%", "%%")
        witness = block.witnesses.get
        for a, b, ok in _runs(block.status):
            tails = None if ok else [f"  witness: {witness(i)}" if witness(i) else ""
                                     for i in range(a, b)]
            line = f"  {label}  pass{tag}\n" if ok else f"  {label}  fail{tag}%s\n"
            yield head + _stretch(line, "", fills, a, b, tails)
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
    piece holds the cells of at most one run of up to _SLICE cells of
    one status in one block.

    JSON is byte for byte what `json.dumps(d, indent=2) + "\\n"` writes
    for the report as a dict d (task, config, summary, cases and notes
    or reports, meta), for key names and config keys that are distinct
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
