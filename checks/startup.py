"""Check what `import ivpverify.cli` and a passing serial run load.

    python checks/startup.py

In this interpreter, with the `ivpverify` on PYTHONPATH: importing
`ivpverify.cli` must load none of `IMPORT_FREE`, the heavy standard
modules (the machinery behind dataclasses among them).  Then `verify
transform --n-max 3` and `verify all --jobs 1` run, each writing its
JSON report to the null device; both must pass, and after them none of
`PASSING_RUN_FREE` may be loaded: those modules serve only parallel
runs, failing witnesses, CSV reports or the exit-3 path.  Modules that
`site` loaded before the import do not count, and $IVPVERIFY_JOBS is
ignored, so every run is serial.  On the first breach the check exits 1
naming the Python version and the modules.  Standard library only.
"""

from __future__ import annotations

import os
import sys

IMPORT_FREE = {"dataclasses", "inspect", "ast", "dis", "pickle", "csv", "fractions", "decimal",
               "traceback", "multiprocessing", "concurrent.futures", "mmap"}
PASSING_RUN_FREE = {"multiprocessing", "concurrent.futures", "pickle", "fractions", "decimal",
                    "csv", "traceback"}
RUNS = (["transform", "--n-max", "3"], ["all", "--jobs", "1"])


def main() -> None:
    before = set(sys.modules)
    from ivpverify import cli

    loaded = sorted(set(sys.modules) - before & IMPORT_FREE)
    if loaded:
        sys.exit(f"{sys.version}: importing ivpverify.cli loaded {', '.join(loaded)}")
    os.environ.pop(cli.JOBS_ENV, None)
    for argv in RUNS:
        rc = cli.main([*argv, "--format", "json", "--out", os.devnull])
        if rc != 0:
            sys.exit(f"{sys.version}: verify {' '.join(argv)} exited {rc}")
        loaded = sorted(set(sys.modules) - before & PASSING_RUN_FREE)
        if loaded:
            sys.exit(f"{sys.version}: a passing serial run of verify {' '.join(argv)} "
                     f"loaded {', '.join(loaded)}")


if __name__ == "__main__":
    main()
