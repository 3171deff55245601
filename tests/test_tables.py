"""What a run builds once: the tables that several rows read.

`cli` builds each per-run table by its module-level builder before any
row runs, and hands it to every row that reads it.  These tests count
the builder calls of whole runs (at --jobs 1, so every call happens in
this process): `verify all` builds one of each table, and a task run
alone builds only the tables it reads.  The per-run tables are the
S tables of the two closed forms, the central binomial columns,
conjecture-sun-m's power sums, Phi_d^2 for q-sun and the central
q-binomials [2k choose k] for q-specialize; a run forms no other
q-binomial.  Each S table holds the points its readers decide
on: transform and recurrence read ragged tables, entry n at x = 0 ..
min(n+2, n_max), and the weighted-sum rows the corner S_0 .. S_{n-1} at
x = 0 .. n-1, built as `identities.build_lhs(n - 1, n)`; only `verify
all`, which reads both, builds one full left table
`identities.build_lhs(n, n + 1)` and cuts the corner from it.  A
failing cell's witness reads the values that decided it, so a failing
run builds what the passing run of its grid builds (for q-sun, see
tests/test_qpoly.py).
"""

import gc
import weakref
from collections import Counter

import pytest

from conftest import cases
from ivpverify import cli, congruences, identities, qpoly

# The benchmark's all-jobs2 grid.
ALL_GRID = dict(l_max=3, n_max=14, k_max=30, m=2, eps=(1, -1), x_min=-10, x_max=10)
# The point counts of a ragged S table at n_max = 12 and 14: entry n
# holds x = 0 .. min(n+2, n_max).
RAGGED_12 = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13, 13)
RAGGED_14 = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15, 15)

_BUILDERS = [
    (identities, "build_lhs"),
    (identities, "build_rhs"),
    (identities, "central_columns"),
    (congruences, "power_sums"),
    (qpoly, "phi_squares"),
    (qpoly, "central_q_binomials"),
]


@pytest.fixture
def builds(monkeypatch) -> Counter:
    """Counts of ("module.name", args) for each builder call of the test."""
    calls = Counter()

    for module, name in _BUILDERS:
        original = getattr(module, name)
        label = f"{module.__name__.rpartition('.')[2]}.{name}"

        def counted(*args, original=original, label=label):
            calls[label, args] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _calls(builds: Counter, label: str) -> Counter:
    return Counter({args: count for (name, args), count in builds.items() if name == label})


def test_verify_all_builds_each_table_once(builds):
    n = ALL_GRID["n_max"]
    assert cli.run(cli.GridConfig("all", jobs=1, **ALL_GRID)).ok
    # One full left table, from which theorem1, theorem2, the
    # catalan-form identity and conjecture-sun-ii read the corner, and
    # one ragged right table.
    assert _calls(builds, "identities.build_lhs") == {(n, n + 1): 1}
    assert _calls(builds, "identities.build_rhs") == {(n, RAGGED_14): 1}
    # conjecture-final, telescope, lemma-schmidt and q-specialize share
    # one column table.
    assert _calls(builds, "identities.central_columns") == {(n,): 1}
    # conjecture-sun-m's power sums, once per x of the window.
    xs = range(ALL_GRID["x_min"], ALL_GRID["x_max"] + 1)
    assert _calls(builds, "congruences.power_sums") == {(2, x0, n): 1 for x0 in xs}
    # Phi_d^2 for d = 2 .. n_max, in one table that every q-sun row reads.
    assert _calls(builds, "qpoly.phi_squares") == {(n,): 1}
    # q-specialize's rows read one table of central q-binomials; no
    # other q-binomial is formed.
    assert _calls(builds, "qpoly.central_q_binomials") == {(n,): 1}


def test_conjecture_final_builds_its_column_table_once(builds):
    assert cli.run(cli.GridConfig("conjecture-final", l_max=4, n_max=30)).ok
    assert builds == {("identities.central_columns", (30,)): 1}


@pytest.mark.parametrize("task, expected", [
    # The weighted-sum tasks build the left table's corner alone,
    # S_0 .. S_{n_max - 1} at x = 0 .. n_max - 1.
    ("theorem1", {("identities.build_lhs", (11, 12)): 1}),
    ("theorem2", {("identities.build_lhs", (11, 12)): 1}),
    ("conjecture-sun-ii", {("identities.build_lhs", (11, 12)): 1}),
    # transform and recurrence build S_0 .. S_{n_max} of each closed
    # form, once, entry n at x = 0 .. min(n+2, n_max): the recurrence's
    # base row reads the same tables.
    ("transform", {("identities.build_lhs", (12, RAGGED_12)): 1,
                   ("identities.build_rhs", (12, RAGGED_12)): 1}),
    ("recurrence", {("identities.build_lhs", (12, RAGGED_12)): 1,
                    ("identities.build_rhs", (12, RAGGED_12)): 1}),
    # The catalan-form identity row reads the corner too; its summand
    # rows read no table.
    ("catalan-form", {("identities.build_lhs", (11, 12)): 1}),
    # q-specialize reads the central columns and the central
    # q-binomials, and forms no other q-binomial.
    ("q-specialize", {("identities.central_columns", (12,)): 1,
                      ("qpoly.central_q_binomials", (12,)): 1}),
])
def test_a_task_alone_builds_only_its_own_tables(builds, task, expected):
    assert cli.run(cli.GridConfig(task, l_max=2, n_max=12)).ok
    assert builds == expected


def test_q_sun_alone_forms_no_central_q_binomial(builds):
    # q-sun reads Phi_d^2 alone: a q-sun run builds no table of central
    # q-binomials and forms no [2k choose k].
    assert cli.run(cli.GridConfig("q-sun", n_max=12)).ok
    assert builds == {("qpoly.phi_squares", (12,)): 1}


def test_no_table_outlives_the_run():
    # The tables go with the run's rows: once `run` returns, no object
    # that holds them is left.
    seen = []
    real = cli._Tables.__init__

    def init(self, *args):
        real(self, *args)
        seen.append(weakref.ref(self))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli._Tables, "__init__", init)
        cli.run(cli.GridConfig("all", n_max=6, jobs=1))
    gc.collect()
    assert len(seen) == 1 and seen[0]() is None


def _faulty_binom(monkeypatch) -> None:
    """C(2, 1) one too large where `identities` and `congruences` read it."""
    real = identities.binom_int

    def binom_int(top, k):
        return real(top, k) + 1 if (top, k) == (2, 1) else real(top, k)

    for module in (identities, congruences):
        monkeypatch.setattr(module, "binom_int", binom_int)


@pytest.mark.parametrize("task", ["transform", "recurrence", "chu-vandermonde", "catalan-form"])
def test_a_failing_row_builds_its_witness_values_once(builds, monkeypatch, task):
    # Each witness reads the values that decided its cell, built once
    # with the run's tables: under a binomial fault, a run makes exactly
    # the builds that the passing run of its grid makes, and no other.
    for module, name in [(identities, "power_sums"), (congruences, "catalan_form_values")]:
        label = f"{module.__name__.rpartition('.')[2]}.{name}"

        def counted(*args, original=getattr(module, name), label=label):
            builds[label, args] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    config = cli.GridConfig(task, n_max=12, k_max=12, jobs=1)
    assert cli.run(config).ok
    passing = Counter(builds)
    builds.clear()
    _faulty_binom(monkeypatch)
    failing = [dict(case.key) for case in cases(cli.run(config)) if not case.ok]
    assert len(failing) > 2
    if task == "catalan-form":
        assert any(key["part"] == "identity" for key in failing)
    assert passing and builds == passing
