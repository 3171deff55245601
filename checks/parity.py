"""Check that this checkout writes the reports another commit writes.

    python checks/parity.py REF

REF is extracted with `git archive` into a temporary directory.  Every
argv of the table in `checks/fault.py` then runs in both trees through
that runner, at --jobs 1 and at --jobs 2, under each fault of `FAULTS`.
The exit codes, the CSV, the JSON without its meta block and the text
without its wall time lines must be the same bytes in both trees.
Every run that differs is named, with the outputs that differ and, for
the CSV, the columns that differ and the first case_key where they do,
and the check exits 1; it exits 0 when every report agrees.  Two runs
go at once.  Standard library only; it writes nothing outside its
temporary directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest

import fault
from fault import FAULTS, normalized


def _extract(ref: str, into: str) -> None:
    """The tree of commit REF, by `git archive`, under `into`."""
    archive = os.path.join(into, "ref.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", fault.ROOT, "archive", ref], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(os.path.join(into, "ref"), **safe)
    os.remove(archive)


def _csv_difference(ours: str, theirs: str) -> str:
    """The columns in which two CSV reports differ, the number of rows
    that do, and the task and case_key of the first; a row that only
    one side has differs in every column."""
    ours, theirs = (list(csv.reader(io.StringIO(text))) for text in (ours, theirs))
    if not ours or not theirs or ours[0] != theirs[0]:
        return "the CSV headers differ"
    header = ours[0]
    task, key = header.index("task"), header.index("case_key")
    columns, rows, first = set(), 0, None
    for mine, other in zip_longest(ours[1:], theirs[1:], fillvalue=[None] * len(header)):
        differing = {name for name, a, b in zip(header, mine, other) if a != b}
        if differing:
            columns |= differing
            rows += 1
            row = mine if mine[key] is not None else other
            first = first or f"{row[task]} {row[key]}"
    names = ", ".join(name for name in header if name in columns)
    return f"CSV columns {names} differ in {rows} row(s), first at {first}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the commit to compare with, such as HEAD~1")
    args = parser.parse_args(argv)
    argvs = fault.argvs()
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        _extract(args.ref, tmp)
        trees = {"this": fault.ROOT, "ref": os.path.join(tmp, "ref")}
        runs = [(i, argv, jobs, name) for i, argv in enumerate(argvs)
                for jobs in (1, 2) for name in FAULTS]

        def both(run) -> str | None:
            i, argv, jobs, name = run
            where = f"{argv} --jobs {jobs}, fault {name}"
            outputs = []
            for side, tree in trees.items():
                try:
                    outputs.append(fault.run(os.path.join(tree, "src"),
                                             os.path.join(tmp, side, f"{i}-{jobs}-{name}"),
                                             argv, jobs, name))
                except subprocess.SubprocessError as exc:
                    return f"{where}: the run in {side} failed: {exc}"
            ours, theirs = outputs
            differing = [out for out in sorted(ours.keys() | theirs.keys())
                         if normalized(out, ours.get(out, "")) != normalized(out, theirs.get(out, ""))]
            if not differing:
                return None
            detail = f"; {_csv_difference(ours['csv'], theirs['csv'])}" if "csv" in differing else ""
            return f"{where}: {', '.join(differing)} differ{detail}"

        with ThreadPoolExecutor(2) as pool:
            failures = [failure for failure in pool.map(both, runs) if failure]
    for failure in failures:
        print(f"parity: {failure}", file=sys.stderr)
    if failures:
        print(f"parity: {len(failures)} of {len(runs)} runs differ from {args.ref}", file=sys.stderr)
        return 1
    print(f"parity: {len(runs)} runs of {len(argvs)} argvs agree with {args.ref} "
          "in every format")
    return 0


if __name__ == "__main__":
    sys.exit(main())
