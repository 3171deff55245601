"""Run `verify` with one binomial off by one, or none, writing every format.

    python checks/fault.py FAULT OUTDIR ARGV...

FAULT is `none` or `TOP,K`: with `TOP,K`, `binom_int(TOP, K)` reads one
more than it is, where `identities` and `congruences` read it.  The
argv runs through `cli.main` once per format (csv, json, text), each
report written to OUTDIR/<format>, and each exit code to
OUTDIR/<format>.rc.  The `ivpverify` imported is the one on
PYTHONPATH, so the same wrapper serves any checkout.
"""

import os
import sys

from ivpverify import cli, congruences, identities


def main(fault: str, outdir: str, argv: list[str]) -> None:
    if fault != "none":
        bad = tuple(int(part) for part in fault.split(","))
        real = identities.binom_int

        def binom_int(top, k):
            return real(top, k) + 1 if (top, k) == bad else real(top, k)

        identities.binom_int = congruences.binom_int = binom_int
    for fmt in ("csv", "json", "text"):
        out = os.path.join(outdir, fmt)
        rc = cli.main([*argv, "--format", fmt, "--out", out])
        with open(out + ".rc", "w") as fh:
            fh.write(f"{rc}\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
