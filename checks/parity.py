"""Check that this checkout writes the reports another commit writes.

    python checks/parity.py REF

REF is extracted with `git archive` into a temporary directory.  Every
argv of the table in `checks/fault.py` then runs in both trees through
that runner, at --jobs 1 and at --jobs 2, under each fault of `FAULTS`.
The exit codes, the CSV, the JSON without its meta block and the text
without its wall time lines must be the same bytes in both trees.  The
first argv that differs is named and the check exits 1; it exits 0
when every report agrees.  Two runs go at once.  Standard library
only; it writes nothing outside its temporary directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor

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
            for out in ours:
                if normalized(out, ours[out]) != normalized(out, theirs[out]):
                    return f"{where}: {out} differs"
            return None

        with ThreadPoolExecutor(2) as pool:
            for failure in pool.map(both, runs):
                if failure:
                    print(f"parity: {failure}", file=sys.stderr)
                    pool.shutdown(cancel_futures=True)
                    return 1
    print(f"parity: {len(runs)} runs of {len(argvs)} argvs agree with {args.ref} "
          "in every format")
    return 0


if __name__ == "__main__":
    sys.exit(main())
