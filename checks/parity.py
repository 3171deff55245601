"""Check that this checkout writes the reports another commit writes.

    python checks/parity.py REF

REF is extracted with `git archive` into a temporary directory.  Every
argv of `ARGVS` then runs in both trees, at --jobs 1 and at --jobs 2,
under each fault of `FAULTS` (none, then one binomial off by one)
through `checks/fault.py`, which writes the CSV, JSON and text reports
of one argv in one process.  The exit codes, the CSV, the JSON without
its meta block and the text without its wall time lines must be the
same bytes in both trees.  The first argv that differs is named and
the check exits 1; it exits 0 when every report agrees.  Two runs go
at once.  Standard library only; it writes nothing outside its
temporary directory.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every argv of the CI workflow, every argv of perfbench/workloads.py at
# seeds 0-2 (without --jobs), and `all` at its defaults.  --jobs and
# --format are set per run.
ARGVS = [
    "all",
    # tasks under python -O, serial and parallel reports identical
    "q-sun --n-max 40", "q-specialize --n-max 10", "sun-one --n-max 40",
    "sun-two --n-max 40", "transform --n-max 80", "recurrence --n-max 80",
    "catalan-form --n-max 10", "chu-vandermonde --k-max 81", "telescope --n-max 60",
    "lemma-schmidt --l-max 4 --n-max 40", "conjecture-final --l-max 4 --n-max 40",
    "conjecture-sun-m --m 3 --n-max 12", "theorem1 --l-max 4 --n-max 60",
    "theorem2 --n-max 40", "conjecture-sun-ii --l-max 4 --n-max 60", "all --n-max 6",
    "all --l-max 3 --n-max 14 --k-max 30 --m 2",
    "catalan-form --n-max 30 --x-min -35 --x-max 35", "sun-one --n-max 150",
    "sun-two --n-max 150", "conjecture-sun-m --m 3 --l-max 4 --n-max 20 --eps -1",
    "lemma-schmidt --l-max 4 --n-max 40 --eps -1", "telescope --n-max 120",
    "lemma-schmidt --l-max 1100 --n-max 3",
    "all --l-max 2 --n-max 20 --k-max 21 --m 3", "all --n-max 12 --l-max 2",
    # JSON reports are json.dumps bytes
    "conjecture-final --l-max 4 --n-max 90",
    # a failing run gives one report at any --jobs
    "all --n-max 10 --l-max 2", "transform --n-max 60", "recurrence --n-max 60",
    "catalan-form --n-max 40", "chu-vandermonde --k-max 60",
    # one report and one start-up on every supported Python
    "all --n-max 8", "transform --n-max 3",
    # perfbench/workloads.py, seeds 0-2
    "transform --n-max 26", "recurrence --n-max 26", "chu-vandermonde --k-max 26",
    "theorem1 --l-max 3 --n-max 19 --eps +1,-1", "theorem2 --n-max 26",
    "catalan-form --n-max 19 --x-min -7 --x-max 13",
    "catalan-form --n-max 19 --x-min -12 --x-max 8",
    "conjecture-sun-ii --l-max 3 --n-max 19", "q-sun --n-max 19", "q-specialize --n-max 19",
    "lemma-schmidt --l-max 4 --n-max 60 --eps +1,-1", "telescope --n-max 90",
    "conjecture-sun-m --l-max 3 --n-max 24 --m 3 --x-min -9 --x-max 15 --eps +1,-1",
    "conjecture-sun-m --l-max 3 --n-max 24 --m 3 --x-min -14 --x-max 10 --eps +1,-1",
    "sun-one --n-max 90", "sun-two --n-max 90",
    "all --l-max 3 --n-max 14 --k-max 30 --m 2 --x-min -10 --x-max 10 --eps +1,-1",
]

# No fault, then binom_int(4, 2) and binom_int(2, 1) off by one.
FAULTS = ["none", "4,2", "2,1"]

_META = re.compile(r',\n  "meta": \{\n    "wall_time_s": [^\n]*\n  \}')


def _normalized(path: str) -> str:
    """What fault.py wrote to path, without JSON's meta block or text's
    wall time lines."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith("json"):
        return _META.sub("", text)
    if path.endswith("text"):
        return "".join(line for line in text.splitlines(True) if not line.startswith("wall time: "))
    return text


def _extract(ref: str, into: str) -> None:
    """The tree of commit REF, by `git archive`, under `into`."""
    archive = os.path.join(into, "ref.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", ref], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(os.path.join(into, "ref"), **safe)
    os.remove(archive)


def _run(tree: str, outdir: str, argv: str, jobs: int, fault: str) -> None:
    """One argv in one tree: its three reports and exit codes in outdir."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    env.pop("IVPVERIFY_JOBS", None)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "fault.py"), fault, outdir,
         *argv.split(), "--jobs", str(jobs)],
        env=env, cwd=outdir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=600, check=True,
    )


def _differs(ours: str, theirs: str) -> str | None:
    """The first output that differs between one run in the two trees."""
    for name in ("csv.rc", "csv", "json.rc", "json", "text.rc", "text"):
        if _normalized(os.path.join(ours, name)) != _normalized(os.path.join(theirs, name)):
            return name
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the commit to compare with, such as HEAD~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        _extract(args.ref, tmp)
        trees = {"this": ROOT, "ref": os.path.join(tmp, "ref")}
        runs = [(i, argv, jobs, fault) for i, argv in enumerate(ARGVS)
                for jobs in (1, 2) for fault in FAULTS]

        def both(run) -> str | None:
            i, argv, jobs, fault = run
            dirs = [os.path.join(tmp, side, f"{i}-{jobs}-{fault}") for side in trees]
            for (side, tree), outdir in zip(trees.items(), dirs):
                try:
                    _run(tree, outdir, argv, jobs, fault)
                except subprocess.SubprocessError as exc:
                    return f"{argv} --jobs {jobs}, fault {fault}: the run in {side} failed: {exc}"
            differs = _differs(*dirs)
            return differs and f"{argv} --jobs {jobs}, fault {fault}: {differs} differs"

        with ThreadPoolExecutor(2) as pool:
            for failure in pool.map(both, runs):
                if failure:
                    print(f"parity: {failure}", file=sys.stderr)
                    pool.shutdown(cancel_futures=True)
                    return 1
    print(f"parity: {len(runs)} runs of {len(ARGVS)} argvs agree with {args.ref} "
          "in every format")
    return 0


if __name__ == "__main__":
    sys.exit(main())
