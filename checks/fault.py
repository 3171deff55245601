"""The report checks' one argv table and faults, and the runner that
writes one argv's reports under one fault.

    python checks/fault.py FAULT OUTDIR ARGV...

FAULT names an entry of `FAULTS`.  The runner sets it, then runs ARGV
through `cli.main` twice per format: by `--out` to OUTDIR/<format>,
then through stdout to OUTDIR/<format>.stdout, each exit code to the
report's name plus `.rc`.  It imports the `ivpverify` on PYTHONPATH,
so it serves any checkout: `checks/reports.py` runs the table here,
and `checks/parity.py` here and in another commit.  Standard library
only.
"""

from __future__ import annotations

import contextlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ("csv", "json", "text")

# Each argv runs without --jobs and --format, set per run.  The S
# tasks, q-sun and the one-row tasks run past their defaults; the odd
# --k-max exercises chu-vandermonde's k//2; the wide catalan-form window
# holds x + k < 0 and x > n; the one-eps grids check each row's key
# order with a single eps; lemma-schmidt to l = 1100 is more rows than
# the deal's 1,024 chunks, so some chunks hold two rows; `all --l-max 2
# --n-max 20 --k-max 21 --m 3` runs every reader of the per-run tables
# in one grid, at an m whose sums are not the S table's; conjecture-final
# writes thousands of cells of one key shape, catalan-form two shapes,
# conjecture-sun-m a four-key one; `all --n-max 8` and `transform
# --n-max 3` are CI's other-Python runs; at `transform --n-max 0` and
# `1`, `recurrence --n-max 2` and `catalan-form --n-max 1` the cap
# min(n+2, n_max) of the ragged S tables, and x <= n-1 of the Catalan
# form, bite at every entry.
_ARGVS = [
    "all", "all --n-max 6", "all --n-max 8", "all --n-max 10 --l-max 2", "all --n-max 12 --l-max 2",
    "all --l-max 3 --n-max 14 --k-max 30 --m 2", "all --l-max 2 --n-max 20 --k-max 21 --m 3",
    "transform --n-max 3", "transform --n-max 60", "transform --n-max 80",
    "recurrence --n-max 60", "recurrence --n-max 80", "chu-vandermonde --k-max 60",
    "chu-vandermonde --k-max 81", "telescope --n-max 60", "telescope --n-max 120",
    "sun-one --n-max 40", "sun-one --n-max 150", "sun-two --n-max 40", "sun-two --n-max 150",
    "theorem1 --l-max 4 --n-max 60", "theorem2 --n-max 40", "catalan-form --n-max 10",
    "catalan-form --n-max 40", "catalan-form --n-max 30 --x-min -35 --x-max 35",
    "lemma-schmidt --l-max 4 --n-max 40", "lemma-schmidt --l-max 4 --n-max 40 --eps -1",
    "lemma-schmidt --l-max 1100 --n-max 3", "conjecture-final --l-max 4 --n-max 40",
    "conjecture-sun-m --m 3 --n-max 12", "conjecture-sun-m --m 3 --l-max 4 --n-max 20 --eps -1",
    "conjecture-sun-ii --l-max 4 --n-max 60", "q-sun --n-max 40", "q-specialize --n-max 10",
    "transform --n-max 0", "transform --n-max 1", "recurrence --n-max 2", "catalan-form --n-max 1",
]


def argvs() -> list[str]:
    """`_ARGVS`, then each argv of perfbench/workloads.py at seeds 0-2
    that it lacks, without --jobs."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS, x_shift_for

    sys.path.pop(0)
    table = dict.fromkeys(_ARGVS)
    for seed in range(3):
        for workload in WORKLOADS.values():
            for task in workload(x_shift_for(seed)):
                argv = " ".join(task.argv())
                table[re.sub(r" --jobs \d+", "", argv)] = None
    return list(table)


def jobs_of(argv: str) -> tuple[int, ...]:
    """Every --jobs an argv runs at: 8 is more than a CI runner's cores."""
    return (1, 2, 3, 8) if argv == "all --n-max 12 --l-max 2" else (1, 2)


def _binom_fault(top: int, k: int) -> None:
    """binom_int(top, k) one more, where identities and congruences read it."""
    from ivpverify import congruences, identities

    real = identities.binom_int
    identities.binom_int = congruences.binom_int = lambda t, j: real(t, j) + ((t, j) == (top, k))


def _q_fault() -> None:
    """The middle coefficient of the q-sum A_5 at k = 1 one more, where
    q-sun and q-specialize read it: each fails cell n=5;k=1 only."""
    from ivpverify import qpoly

    real = qpoly.q_sun_sums

    def q_sun_sums(k, n_max):
        sums = real(k, n_max)
        if k == 1 and n_max >= 5:
            low, a = sums[3]
            sums[3] = (low, [*a[:len(a) // 2], a[len(a) // 2] + 1, *a[len(a) // 2 + 1:]])
        return sums

    qpoly.q_sun_sums = q_sun_sums


# Each fault, and the argvs that must exit 1 under it, so that a fault
# that stops biting fails.  Each binomial fails every task but q-sun.
FAULTS = {
    "none": (lambda: None, []),
    "4,2": (lambda: _binom_fault(4, 2), ["all"]),
    "2,1": (lambda: _binom_fault(2, 1), [
        "all --n-max 10 --l-max 2", "transform --n-max 60", "recurrence --n-max 60",
        "catalan-form --n-max 40", "chu-vandermonde --k-max 60",
    ]),
    "q5,1": (_q_fault, ["q-sun --n-max 40", "q-specialize --n-max 10"]),
}

_META = re.compile(r',\n  "meta": \{\n    "wall_time_s": [^\n]*\n  \}')


def normalized(name: str, text: str) -> str:
    """Output `name` of a run without JSON's meta or text's wall times."""
    if name.startswith("json"):
        return _META.sub("", text)
    if name.startswith("text"):
        return "".join(line for line in text.splitlines(True) if not line.startswith("wall time: "))
    return text


def run(src: str, outdir: str, argv: str, jobs: int, fault: str) -> dict:
    """This runner under `python -O` with the `ivpverify` of src: every
    output it writes to outdir, by name."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.pop("IVPVERIFY_JOBS", None)
    command = [sys.executable, "-O", os.path.abspath(__file__), fault, outdir, *argv.split(),
               "--jobs", str(jobs)]
    subprocess.run(command, env=env, cwd=outdir, stdout=subprocess.DEVNULL,
                   stderr=subprocess.PIPE, timeout=300, check=True)
    outputs = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            outputs[name] = fh.read()
    return outputs


def _main(fault: str, outdir: str, *argv: str) -> None:
    FAULTS[fault][0]()
    from ivpverify import cli

    for fmt in FORMATS:
        out = os.path.join(outdir, fmt)
        codes = {out: cli.main([*argv, "--format", fmt, "--out", out])}
        with open(out + ".stdout", "w") as fh, contextlib.redirect_stdout(fh):
            codes[out + ".stdout"] = cli.main([*argv, "--format", fmt])
        for path, rc in codes.items():
            with open(path + ".rc", "w") as fh:
                fh.write(f"{rc}\n")


if __name__ == "__main__":
    _main(*sys.argv[1:])
