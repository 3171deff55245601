"""What a run builds once: the tables that several rows read.

`cli` builds each per-run table by its module-level builder before any
row runs, and hands it to every row that reads it.  These tests count
the builder calls of whole runs (at --jobs 1, so every call happens in
this process): `verify all` builds one of each table, and a task run
alone builds only the tables it reads.  The per-run tables are the
S tables of the two closed forms, the central binomial columns,
conjecture-sun-m's power sums, Phi_d^2 for q-sun and the central
q-binomials [2k choose k] for q-specialize; a passing run forms no
other q-binomial.  Each S table holds the points its readers decide
on: transform and recurrence read ragged tables, entry n at x = 0 ..
min(n+2, n_max), and the weighted-sum rows the corner S_0 .. S_{n-1} at
x = 0 .. n-1, built as `identities.build_lhs(n - 1, n)`; only `verify
all`, which reads both, builds one full left table
`identities.build_lhs(n, n + 1)` and cuts the corner from it.  A row
with failing cells builds the wider values their witnesses read once,
at its last failing cell.
"""

import gc
import weakref
from collections import Counter

import pytest

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
    (congruences, "build_lhs"),
    (identities, "central_columns"),
    (congruences, "power_sums"),
    (qpoly, "_cyclotomic"),
    (qpoly, "_product"),
    (qpoly, "central_q_binomials"),
    (qpoly, "q_binom"),
]


@pytest.fixture
def builds(monkeypatch) -> Counter:
    """Counts of ("module.name", args) for each builder call of the test;
    a call of qpoly._product is counted by the coefficients it squares,
    or as "not a square"."""
    calls = Counter()

    for module, name in _BUILDERS:
        original = getattr(module, name)
        label = f"{module.__name__.rpartition('.')[2]}.{name}"
        if name == "_product":
            def key(a, b):
                return tuple(a) if a == b else "not a square"
        else:
            def key(*args):
                return args

        def counted(*args, original=original, label=label, key=key):
            calls[label, key(*args)] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _calls(builds: Counter, label: str) -> Counter:
    return Counter({args: count for (name, args), count in builds.items() if name == label})


def test_verify_all_builds_each_table_once(builds):
    n = ALL_GRID["n_max"]
    phis = [tuple(qpoly._cyclotomic(d)) for d in range(2, n + 1)]
    builds.clear()
    assert cli.run(cli.GridConfig("all", jobs=1, **ALL_GRID)).ok
    # One full left table, from which theorem1, theorem2, the
    # catalan-form identity and conjecture-sun-ii read the corner, and
    # one ragged right table.
    assert _calls(builds, "identities.build_lhs") == {(n, n + 1): 1}
    assert _calls(builds, "identities.build_rhs") == {(n, RAGGED_14): 1}
    assert _calls(builds, "congruences.build_lhs") == {}
    # conjecture-final, telescope, lemma-schmidt and q-specialize share
    # one column table.
    assert _calls(builds, "identities.central_columns") == {(n,): 1}
    # conjecture-sun-m's power sums, once per x of the window.
    xs = range(ALL_GRID["x_min"], ALL_GRID["x_max"] + 1)
    assert _calls(builds, "congruences.power_sums") == {(2, x0, n): 1 for x0 in xs}
    # Each Phi_d is built and squared once, for d = 2 .. n_max, and
    # nothing else is multiplied: every cell passes.
    assert _calls(builds, "qpoly._cyclotomic") == {(d,): 1 for d in range(2, n + 1)}
    assert _calls(builds, "qpoly._product") == {phi: 1 for phi in phis}
    # q-specialize's rows read one table of central q-binomials; no
    # other q-binomial is formed.
    assert _calls(builds, "qpoly.central_q_binomials") == {(n,): 1}
    assert _calls(builds, "qpoly.q_binom") == {}


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
    # q-sun reads Phi_d^2 alone: a passing q-sun run builds no table of
    # central q-binomials and forms no [2k choose k].
    assert cli.run(cli.GridConfig("q-sun", n_max=12)).ok
    assert _calls(builds, "qpoly.central_q_binomials") == {}
    assert _calls(builds, "qpoly.q_binom") == {}


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


@pytest.fixture
def faulty_binom(monkeypatch) -> None:
    """C(2, 1) one too large where `identities` and `congruences` read it."""
    real = identities.binom_int

    def binom_int(top, k):
        return real(top, k) + 1 if (top, k) == (2, 1) else real(top, k)

    for module in (identities, congruences):
        monkeypatch.setattr(module, "binom_int", binom_int)


def _last(failing: list[dict], **where) -> list[int]:
    """[top], top the largest n (or k) of the failing keys that match
    `where`, or [] when none matches: the one wider build of a row."""
    tops = [key.get("n", key.get("k")) for key in failing
            if all(key.get(name) == value for name, value in where.items())]
    return [max(tops)] if tops else []


@pytest.mark.parametrize("task", ["transform", "recurrence", "chu-vandermonde", "catalan-form"])
def test_a_failing_row_builds_its_witness_values_once(builds, monkeypatch, faulty_binom, task):
    # Each row decides its cells from the run's tables, then builds the
    # wider values its witnesses read once, at its last failing cell:
    # one more build per closed form, not one per failing cell.
    for module, name in [(identities, "power_sums"), (congruences, "catalan_form_values")]:
        label = f"{module.__name__.rpartition('.')[2]}.{name}"

        def counted(*args, original=getattr(module, name), label=label):
            builds[label, args] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    report = cli.run(cli.GridConfig(task, n_max=12, k_max=12, jobs=1))
    failing = [dict(case.key) for case in report.cases if not case.ok]
    assert len(failing) > 2
    table = Counter({(12, RAGGED_12): 1})
    if task == "transform":
        wide = Counter((top, 2 * top + 1) for top in _last(failing))
        assert _calls(builds, "identities.build_lhs") == table + wide
        assert _calls(builds, "identities.build_rhs") == table + wide
    elif task == "recurrence":
        base = Counter((top, 2 * top + 1) for top in _last(failing, family="base"))
        for family in ("lhs", "rhs"):
            wide = Counter((top + 2, 2 * top + 5) for top in _last(failing, family=family))
            assert _calls(builds, f"identities.build_{family}") == table + base + wide
    elif task == "chu-vandermonde":
        [top] = _last(failing)
        table = Counter({(1, x, 13, 2 * x): 1 for x in range(7)})
        wide = Counter({(1, x, top + 1): 1 for x in range(top + 1)})
        assert _calls(builds, "identities.power_sums") == table + wide
    else:
        [top] = _last(failing, part="identity")
        assert _calls(builds, "identities.build_lhs") == {(11, 12): 1}
        assert _calls(builds, "congruences.build_lhs") == {(top - 1, 2 * top - 1): 1}
        assert _calls(builds, "congruences.catalan_form_values") == {(12,): 1, (top, True): 1}
