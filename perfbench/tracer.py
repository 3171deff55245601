"""Traced mode: spans and counters around calls into each ivpverify module.

Nothing under `src/` changes.  `install` wraps public functions and
methods in place, in every module namespace (and module-level dict)
that holds a reference to them: `build_lhs` is imported by name into
`congruences` and held in `identities._FAMILIES`, `make_case` is
imported into `identities`, `congruences` and `qpoly`.  Spans
(name, start, end, parent) stay in memory and are written as JSONL
when the child process ends.  A span's self time is its duration minus the
time its child spans cover.

Worker processes of a parallel grid exit without running `atexit`, so
only parent-side spans are recorded; workers show up as `gridrun.*`
pool counts and worker CPU read from RUSAGE_CHILDREN.  Per-cell times
are taken only for jobs=1 grids, whose cells run in the parent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import time
from collections import Counter

MODULES = ("cli", "combinat", "congruences", "gridrun", "identities", "qpoly", "ratpoly", "report")


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.cell_s: list[float] = []
        self.pool_wall_s = 0.0
        self.pool_capacity_s = 0.0  # sum over pools of jobs x wall time
        self.worker_cpu_s = 0.0
        self.caches: dict = {}  # metric name -> lru_cache wrapper

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span called `name`; hook(args, kwargs) runs first."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def count(self, fn, hook):
        """Return fn with only hook(args, kwargs) in front: for calls too
        frequent to afford a span each."""

        def counted(*args, **kwargs):
            hook(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def timed_cells(self, case_fn):
        cell_s, clock = self.cell_s, time.perf_counter

        def timed(key):
            start = clock()
            try:
                return case_fn(key)
            finally:
                cell_s.append(clock() - start)

        return timed

    # -- results --------------------------------------------------------------

    def span_totals(self) -> dict[str, float]:
        """calls, inclusive seconds (.s) and self seconds (.self_s) per span name.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice.
        """
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent = span
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[idx]
            p = parent
            while p >= 0 and self.spans[p] is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] += end - start
        return dict(out)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.span_totals())
        out.update(self.counts)
        for name, cached in self.caches.items():
            info = cached.cache_info()
            if name.startswith("cache."):
                out[name] = info.currsize
            else:
                out[f"{name}.hits"] = info.hits
                out[f"{name}.misses"] = info.misses
                out[f"{name}.currsize"] = info.currsize
                looked_up = info.hits + info.misses
                out[f"{name}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        cells = sorted(self.cell_s)
        if cells:
            out["gridrun.cell_s.p50"] = cells[(len(cells) - 1) // 2]
            out["gridrun.cell_s.p99"] = cells[-(-99 * len(cells) // 100) - 1]
            out["gridrun.cell_s.max"] = cells[-1]
        out["gridrun.worker_cpu_s"] = self.worker_cpu_s
        out["gridrun.idle_share"] = (
            1.0 - self.worker_cpu_s / self.pool_capacity_s if self.pool_capacity_s else 0.0
        )
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent = span
                    fh.write(json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end, "parent": parent}
                    ) + "\n")


# -- patching -------------------------------------------------------------------

def _replace_everywhere(namespaces, original, replacement) -> None:
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def _coeff_products(counts, name):
    """Coefficient products of a schoolbook multiply: nonzero(a) x len(b),
    or len(a) for a scalar factor."""

    def hook(args, kwargs):
        a, b = args[0], args[1]
        if type(b) is type(a):
            counts[name] += sum(1 for c in a.coeffs if c) * len(b.coeffs)
        else:
            counts[name] += len(a.coeffs)

    return hook


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ivpverify layer in place."""
    pkg = importlib.import_module("ivpverify")
    mods = {}
    for short in MODULES:
        try:
            mods[short] = importlib.import_module(f"ivpverify.{short}")
        except ImportError:
            pass
    namespaces = [pkg, *mods.values()]
    counts = tracer.counts

    # Cache sizes first, while module attributes still hold the lru wrappers.
    for short, mod in mods.items():
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__:
                tracer.caches[f"cache.{short}.{attr}.currsize"] = value
    for metric, short, attr in (
        ("combinat.binom_int", "combinat", "binom_int"),
        ("identities.build_lhs", "identities", "build_lhs"),
        ("identities.build_rhs", "identities", "build_rhs"),
        ("qpoly.q_binom", "qpoly", "_q_binom_poly"),
    ):
        cached = getattr(mods.get(short), attr, None)
        if hasattr(cached, "cache_info"):
            tracer.caches[metric] = cached
    tracer.caches.pop("cache.combinat.binom_int.currsize", None)

    def patch(short, attr, name, hook=None):
        original = getattr(mods.get(short), attr, None)
        if original is not None:
            _replace_everywhere(namespaces, original, tracer.wrap(name, original, hook))

    def patch_methods(short, cls, attrs, name, hook=None):
        klass = getattr(mods.get(short), cls, None)
        for attr in attrs:
            original = getattr(klass, attr, None)
            if original is not None:
                setattr(klass, attr, tracer.wrap(name, original, hook))

    patch("identities", "build_lhs", "identities.build_lhs")
    patch("identities", "build_rhs", "identities.build_rhs")
    for attr in (
        "theorem1_polynomial", "theorem2_polynomial", "catalan_form_polynomial",
        "sun_ii_polynomial", "conjecture_final_value", "schmidt_combination_coeffs",
    ):
        patch("congruences", attr, f"congruences.{attr}")
    patch_methods("ratpoly", "RatPoly", ("__mul__", "__rmul__"), "ratpoly.mul",
                  _coeff_products(counts, "ratpoly.mul.coeff_products"))
    patch_methods("ratpoly", "RatPoly", ("__add__", "__radd__"), "ratpoly.add")
    patch_methods("ratpoly", "RatPoly", ("__call__",), "ratpoly.eval")
    patch("ratpoly", "to_binomial_basis", "ratpoly.to_binomial_basis")
    patch("ratpoly", "is_integer_valued", "ratpoly.is_integer_valued")
    patch_methods("qpoly", "LaurentPoly", ("__mul__", "__rmul__"), "qpoly.mul",
                  _coeff_products(counts, "qpoly.mul.coeff_products"))

    def division_steps(args, kwargs):
        # Quotient positions long division scans when it runs to the end.
        f, g = args[0], args[1]
        if f.coeffs and g.coeffs:
            counts["qpoly.laurent_divisible.steps"] += max(0, len(f.coeffs) - len(g.coeffs) + 1)

    patch("qpoly", "laurent_divisible", "qpoly.laurent_divisible", division_steps)
    patch("qpoly", "q_sun_sum", "qpoly.q_sun_sum")
    patch("combinat", "binom_rat", "combinat.binom_rat")
    serialize = getattr(mods.get("cli"), "serialize_report", None)
    if serialize is not None:
        def serialize_counted(*args, **kwargs):
            payload = serialize(*args, **kwargs)
            counts["report.serialize.bytes"] += len(payload.encode())
            return payload

        _replace_everywhere(namespaces, serialize, tracer.wrap("report.serialize", serialize_counted))

    def catalan_calls(args, kwargs):
        counts["combinat.catalan.calls"] += 1

    catalan = getattr(mods.get("combinat"), "catalan", None)
    if catalan is not None:
        _replace_everywhere(namespaces, catalan, tracer.count(catalan, catalan_calls))

    def case_made(args, kwargs):
        counts["report.make_case.calls"] += 1
        ok = args[1] if len(args) > 1 else kwargs.get("ok")
        witness = args[2] if len(args) > 2 else kwargs.get("witness")
        if ok and witness:
            counts["report.witness_discarded_bytes"] += len(witness.encode())

    make_case = getattr(mods.get("report"), "make_case", None)
    if make_case is not None:
        _replace_everywhere(namespaces, make_case, tracer.count(make_case, case_made))

    gridrun = mods.get("gridrun")
    run_grid = getattr(gridrun, "run_grid", None)
    if run_grid is not None:
        signature = inspect.signature(run_grid)

        def traced_grid(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            a["keys"] = list(a["keys"])
            counts["gridrun.cells"] += len(a["keys"])
            if a.get("jobs", 1) == 1:
                a["case_fn"] = tracer.timed_cells(a["case_fn"])
            return run_grid(*bound.args, **bound.kwargs)

        _replace_everywhere(namespaces, run_grid, tracer.wrap("gridrun.run_grid", traced_grid))
    pool_base = getattr(gridrun, "ProcessPoolExecutor", None)
    if pool_base is not None:
        gridrun.ProcessPoolExecutor = _counting_pool(tracer, pool_base)


def _counting_pool(tracer: Tracer, base):
    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.counts["gridrun.pools"] += 1
            self._trace_start = (time.perf_counter(), children_cpu_s())

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._trace_start is not None:
                t0, cpu0 = self._trace_start
                self._trace_start = None
                wall = time.perf_counter() - t0
                tracer.pool_wall_s += wall
                tracer.pool_capacity_s += self._max_workers * wall
                tracer.worker_cpu_s += children_cpu_s() - cpu0

    return CountingPool
