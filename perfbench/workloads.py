"""The benchmark's workloads: which `verify` tasks each one runs, on which grid.

Each workload is a closed loop with one client: one child process runs
its tasks back to back, in a fresh interpreter so every `lru_cache`
starts cold, exactly as a user's `verify` invocation does.  Only
`all-jobs2` starts worker processes (two, the core count of the machine
the grids were sized on).

The grids are the ones proposed for the benchmark, scaled down per
workload so that one repetition takes 1.3-2 s on a 2-vCPU x86 VM: that
leaves room for 12-20 cold-process repetitions in one 28-second run,
whose median is steadier than a single 7-second repetition.  Scaling
keeps each workload's layer balance: `poly`
stays dominated by Fraction/`RatPoly` arithmetic, `qpoly` by
`LaurentPoly` multiplication and division, `scalar` by many cheap
integer cells and their witness text and JSON, `all-jobs2` by the
parallel `gridrun` path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Grid parameter -> `verify` flag.  Every parameter a task reads is
# passed explicitly, so the expected cells never depend on CLI defaults.
_FLAGS = {
    "l_max": "--l-max",
    "n_max": "--n-max",
    "k_max": "--k-max",
    "m": "--m",
    "x_min": "--x-min",
    "x_max": "--x-max",
    "jobs": "--jobs",
}

# The seed shifts the x window of the x-sweeping tasks by at most this
# much.  The window keeps its width, so cell counts and the regime note
# of conjecture-sun-m are the same for every seed.
MAX_X_SHIFT = 3


@dataclass(frozen=True)
class Task:
    name: str
    params: dict

    def argv(self) -> list[str]:
        """Flags for `cli.main`, without the output options."""
        out = [self.name]
        for key, flag in _FLAGS.items():
            if key in self.params:
                out += [flag, str(self.params[key])]
        if "eps" in self.params:
            out += ["--eps", ",".join("+1" if e > 0 else "-1" for e in self.params["eps"])]
        return out


def _poly(s: int) -> list[Task]:
    return [
        Task("transform", {"n_max": 26, "jobs": 1}),
        Task("recurrence", {"n_max": 26, "jobs": 1}),
        Task("chu-vandermonde", {"k_max": 26, "jobs": 1}),
        Task("theorem1", {"l_max": 3, "n_max": 19, "eps": (1, -1), "jobs": 1}),
        Task("theorem2", {"n_max": 26, "jobs": 1}),
        Task("catalan-form", {"n_max": 19, "x_min": -10 + s, "x_max": 10 + s, "jobs": 1}),
        Task("conjecture-sun-ii", {"l_max": 3, "n_max": 19, "jobs": 1}),
    ]


def _qpoly(s: int) -> list[Task]:
    return [
        Task("q-sun", {"n_max": 19, "jobs": 1}),
        Task("q-specialize", {"n_max": 19, "jobs": 1}),
    ]


def _scalar(s: int) -> list[Task]:
    return [
        Task("conjecture-final", {"l_max": 4, "n_max": 90, "jobs": 1}),
        Task("lemma-schmidt", {"l_max": 4, "n_max": 60, "eps": (1, -1), "jobs": 1}),
        Task("telescope", {"n_max": 90, "jobs": 1}),
        Task("conjecture-sun-m", {
            "m": 3, "l_max": 3, "n_max": 24, "eps": (1, -1),
            "x_min": -12 + s, "x_max": 12 + s, "jobs": 1,
        }),
        Task("sun-one", {"n_max": 90, "jobs": 1}),
        Task("sun-two", {"n_max": 90, "jobs": 1}),
    ]


def _all_jobs2(s: int) -> list[Task]:
    return [
        Task("all", {
            "l_max": 3, "n_max": 14, "k_max": 30, "m": 2, "eps": (1, -1),
            "x_min": -10, "x_max": 10, "jobs": 2,
        }),
    ]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {"poly": _poly, "qpoly": _qpoly, "scalar": _scalar, "all-jobs2": _all_jobs2}


def x_shift_for(seed: int) -> int:
    """Shift of the x windows for this seed, in [-MAX_X_SHIFT, MAX_X_SHIFT]."""
    return random.Random(seed).randint(-MAX_X_SHIFT, MAX_X_SHIFT)
