"""Check that every argv of the table in `checks/fault.py` gives one
report, at any --jobs, passing and failing.

    python checks/reports.py

Each argv runs in this checkout through that runner, under `python -O`,
at each --jobs of `fault.jobs_of`, under each fault of `FAULTS`:
1. its exit code is 0 with no fault and 0 or 1 under a fault, the same
   in every format, at every --jobs and through stdout, and 1 exactly
   when the JSON summary has failing cells;
2. CSV, JSON without meta and text without wall times are the same at
   every --jobs;
3. the JSON is the bytes `json.dumps(indent=2)` writes;
4. `--out` and stdout give the same report in every format;
5. each argv that `FAULTS` lists under a fault exits 1 under it.
The first argv that breaks a rule is named with its --jobs, fault and
format, and the check exits 1.  Two argvs run at once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import fault
from fault import FAULTS, FORMATS, normalized

SRC = os.path.join(fault.ROOT, "src")


def _broken(outputs: dict, fault_name: str) -> list[str]:
    """The rules broken by one argv's runs under one fault, `outputs`
    holding each run's outputs by --jobs."""
    codes = {(jobs, name[:-3]): int(text) for jobs, run in outputs.items()
             for name, text in run.items() if name.endswith(".rc")}
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
            try:
                report = json.loads(run[name])
            except ValueError:
                broken.append(f"--jobs {jobs}, {name}: not JSON")
                continue
            if run[name] != json.dumps(report, indent=2) + "\n":
                broken.append(f"--jobs {jobs}, {name}: not the bytes json.dumps(indent=2) writes")
            if (report["summary"]["fail"] > 0) != (rc == 1):
                broken.append(f"--jobs {jobs}, {name}: {report['summary']['fail']} failing cells")
        for fmt in FORMATS:
            report = normalized(fmt, run[fmt])
            if report != normalized(fmt, outputs[1][fmt]):
                broken.append(f"--jobs {jobs}, {fmt}: differs from --jobs 1")
            if normalized(fmt, run[fmt + ".stdout"]) != report:
                broken.append(f"--jobs {jobs}, {fmt}: stdout and --out differ")
    return broken


def main() -> int:
    start = time.perf_counter()
    argvs = fault.argvs()
    codes = {}
    with tempfile.TemporaryDirectory(prefix="reports-") as tmp:

        def check(group) -> list[str]:
            i, argv, name = group
            outputs = {}
            for jobs in fault.jobs_of(argv):
                outdir = os.path.join(tmp, f"{i}-{name}-{jobs}")
                try:
                    outputs[jobs] = fault.run(SRC, outdir, argv, jobs, name)
                except subprocess.SubprocessError as exc:
                    err = getattr(exc, "stderr", None) or b""
                    last = err.decode(errors="replace").strip().rpartition("\n")[2]
                    return [f"--jobs {jobs}: {exc}; {last}"]
            codes[argv, name] = int(outputs[1]["csv.rc"])
            return _broken(outputs, name)

        groups = [(i, argv, name) for name in FAULTS for i, argv in enumerate(argvs)]
        with ThreadPoolExecutor(2) as pool:
            for (_, argv, name), broken in zip(groups, pool.map(check, groups)):
                for rule in broken:
                    print(f"reports: {argv}, fault {name}, {rule}", file=sys.stderr)
                if broken:
                    pool.shutdown(cancel_futures=True)
                    return 1
    for name, (_, bites) in FAULTS.items():
        for argv in bites:
            if codes[argv, name] != 1:
                print(f"reports: {argv}, fault {name}: exited {codes[argv, name]}, not 1",
                      file=sys.stderr)
                return 1
    print(f"reports: {len(argvs)} argvs under {len(FAULTS)} faults give one report each, "
          f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
