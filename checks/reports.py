"""Check that every argv of the table in `checks/fault.py` gives one
report, at any --jobs, passing and failing, and, given a commit, the
report that commit gives.

    python checks/reports.py [REF]

`fault.run_table` runs each argv with this checkout's package, under
`python -O`, at each --jobs of `fault.jobs_of`, under each fault of
`FAULTS`; the rules read those outputs:
1. its exit code is 0 with no fault and 0 or 1 under a fault, the same
   in every format, at every --jobs and through stdout, and 1 exactly
   when the JSON summary has failing cells;
2. CSV, JSON without meta and text without wall times are the same at
   every --jobs;
3. the JSON is the bytes `json.dumps(indent=2)` writes;
4. `--out` and stdout give the same report in every format;
5. each argv that `FAULTS` lists under a fault exits 1 under it;
6. every JSON report lists its cases in key order, and so does each
   sub-report of `all`: the tuples of key values, compared with `<=`
   from one case to the next, never decrease.
Given REF, the check also extracts that commit with `git archive` into
its temporary directory and runs the table there, with the package of
REF and the runner and faults of this checkout.  Each run's exit codes,
CSV, JSON without meta and text without wall times must then be the
bytes the same run gives at REF.
Every broken rule is named with its argv, --jobs, fault and format, and
every run that differs from REF with the outputs that differ and, for
the CSV, the columns that differ and the first case_key where they do;
the check then exits 1.  Standard library only; it writes nothing
outside its temporary directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import zip_longest

import fault
from fault import FAULTS, FORMATS, normalized


def _out_of_order(report: dict) -> list[str]:
    """The first case of each task of a JSON report whose key comes
    before the key of the case ahead of it."""
    broken = []
    for sub in report.get("reports", [report]):
        keys = [tuple(case["key"].values()) for case in sub["cases"]]
        for before, key in zip(keys, keys[1:]):
            if not before <= key:
                broken.append(f"{sub['task']}: case {key} after {before}")
                break
    return broken


def _broken(outputs: dict, fault_name: str) -> list[str]:
    """Rules 1-4 and 6 as one argv's runs under one fault break them,
    `outputs` holding each run's outputs by --jobs."""
    codes = {(jobs, name[:-3]): int(run[name]) for jobs, run in outputs.items()
             for name in run if name.endswith(".rc")}
    allowed = (0,) if fault_name == "none" else (0, 1)
    broken = [f"--jobs {jobs}, {name}: exited {rc}" for (jobs, name), rc in codes.items()
              if rc not in allowed]
    if broken:
        return broken
    rc = codes[1, "csv"]
    broken = [f"--jobs {jobs}, {name}: exited {code}, --jobs 1 csv {rc}"
              for (jobs, name), code in codes.items() if code != rc]
    for jobs, run in outputs.items():
        for name in ("json", "json.stdout"):
            text = run[name]
            try:
                report = json.loads(text)
            except ValueError:
                broken.append(f"--jobs {jobs}, {name}: not JSON")
                continue
            if text != json.dumps(report, indent=2) + "\n":
                broken.append(f"--jobs {jobs}, {name}: not the bytes json.dumps(indent=2) writes")
            if (report["summary"]["fail"] > 0) != (rc == 1):
                broken.append(f"--jobs {jobs}, {name}: {report['summary']['fail']} failing cells")
            broken += [f"--jobs {jobs}, {name}: {order}" for order in _out_of_order(report)]
        for fmt in FORMATS:
            report = normalized(fmt, run[fmt])
            if report != normalized(fmt, outputs[1][fmt]):
                broken.append(f"--jobs {jobs}, {fmt}: differs from --jobs 1")
            if normalized(fmt, run[fmt + ".stdout"]) != report:
                broken.append(f"--jobs {jobs}, {fmt}: stdout and --out differ")
    return broken


def broken_rules(runs: dict) -> list[str]:
    """Every rule that one tree's runs break, `runs` as
    `fault.run_table` returns them; a run that failed is named in place
    of the rules of its argv and fault."""
    groups: dict = {}
    for (argv, jobs, name), outputs in runs.items():
        groups.setdefault((argv, name), {})[jobs] = outputs
    problems = []
    for (argv, name), outputs in groups.items():
        failed = [f"--jobs {jobs}: {run}" for jobs, run in outputs.items() if isinstance(run, str)]
        problems += [f"{argv}, fault {name}, {rule}" for rule in failed or _broken(outputs, name)]
        if not failed and argv in FAULTS[name][1] and (rc := int(outputs[1]["csv.rc"])) != 1:
            problems.append(f"{argv}, fault {name}, --jobs 1, csv: exited {rc}, not 1")
    return problems


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


def differing_runs(ours: dict, theirs: dict) -> list[str]:
    """Every run whose exit codes or normalized reports differ between
    two trees' runs of one table, or that failed in `theirs`; a run
    that failed here is one of `broken_rules`."""
    problems = []
    for (argv, jobs, name), mine in ours.items():
        other = theirs[argv, jobs, name]
        where = f"{argv} --jobs {jobs}, fault {name}"
        if isinstance(other, str):
            problems.append(f"{where}: the run failed there: {other}")
        if isinstance(mine, str) or isinstance(other, str):
            continue
        differing = [out for out in sorted(mine.keys() | other.keys())
                     if normalized(out, mine.get(out, "")) != normalized(out, other.get(out, ""))]
        if differing:
            detail = f"; {_csv_difference(mine['csv'], other['csv'])}" if "csv" in differing else ""
            problems.append(f"{where}: {', '.join(differing)} differ{detail}")
    return problems


def _extract(ref: str, into: str) -> str:
    """The tree of commit REF, by `git archive`, under `into`."""
    archive = os.path.join(into, "ref.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", fault.ROOT, "archive", ref], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(os.path.join(into, "ref"), **safe)
    os.remove(archive)
    return os.path.join(into, "ref")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="a commit to compare with, such as HEAD~1")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reports-") as tmp:
        if args.ref:
            ref = _extract(args.ref, tmp)
        runs = fault.run_table(os.path.join(fault.ROOT, "src"), os.path.join(tmp, "this"))
        problems = broken_rules(runs)
        if args.ref:
            theirs = fault.run_table(os.path.join(ref, "src"), os.path.join(tmp, "ref-runs"))
            problems += [f"against {args.ref}, {run}" for run in differing_runs(runs, theirs)]
    for problem in problems:
        print(f"reports: {problem}", file=sys.stderr)
    if problems:
        print(f"reports: {len(problems)} problem(s) in {len(runs)} runs", file=sys.stderr)
        return 1
    same = f", the same as at {args.ref}" if args.ref else ""
    print(f"reports: {len(runs)} runs of {len(fault.argvs())} argvs under {len(FAULTS)} faults "
          f"give one report each{same}, {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
