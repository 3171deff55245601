"""The row functions against the per-cell oracle in cell_oracle.py.

A row function decides a whole grid row from one running sum, so a
bug in it would corrupt every later cell of the row.  These tests
rebuild each cell from scratch and compare the two cell for cell:
key, status, witness and severity.  With a fault drawn into one
binomial coefficient, or into one value S_k(x) of the S_k tables that
the transform, recurrence and weighted-sum rows read (the same fault in
the verifier's tables, in the wider builds its witnesses read, and in
the oracle's one-S_k builds), the failing cells and their witnesses
must agree as well.
The closed form n C(n,k+1) C(n+k,k) of telescope and of conjecture-final
at l = 1 reads no binomial, as the verifier forms it by running
products; it meets a fault of its own, added to one (n, k) of the
verifier's `telescope_rhs` and of the oracle's.
The q-sun and q-specialize rows meet a fault as 1 added to one
coefficient of one cell's unscaled q-sum A_n, in the verifier's row and
in the oracle's per-cell sum alike; the oracle then forms the full
product A_n [2k choose k]^2, which the verifier never does.
"""

import functools
import pickle
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cell_oracle
from cell_oracle import LaurentPoly, binom_rat
from conftest import cases_of
from ivpverify import cli, congruences, gridrun, identities, qpoly
from ivpverify.combinat import binom_int
from ivpverify.congruences import (
    conjecture_final_values,
    power_sums,
    schmidt_coefficient_rows,
    weighted_sum_rows,
)
from ivpverify.identities import build_lhs, central_columns
from ivpverify.report import Block


def _row_cases(task, config):
    cases = cases_of(*(row() for row in cli._task_rows(config)[task]))
    return sorted(cases, key=lambda c: c.sort_key)


def _is_package_function(value):
    return callable(value) and value.__module__.startswith("ivpverify.")


def _is_plain(value):
    """An int or a str, or a list or tuple of plain values."""
    if type(value) in (int, str):
        return True
    return type(value) in (list, tuple) and all(map(_is_plain, value))


def test_rows_are_picklable_calls_that_make_up_the_report():
    # A task's rows are partials of package functions, whose arguments
    # are ints, tuples and strs and the run's tables (lists and tuples
    # of ints, and of lists and tuples of ints), all of which a worker
    # process could unpickle; called in order, they give exactly the
    # cases of the task's report, one block each.
    for task in cli._TASKS:
        config = cli.GridConfig(task, l_max=2, n_max=4, k_max=5, m=3, x_min=-2, x_max=2)
        rows = cli._task_rows(config)[task]
        for row in rows:
            assert isinstance(row, functools.partial), task
            assert _is_package_function(row.func), (task, row)
            assert all(map(_is_plain, row.args)), (task, row)
            copy = pickle.loads(pickle.dumps(row))
            assert (copy.func, copy.args, copy.keywords) == (row.func, row.args, row.keywords)
        blocks = [row() for row in rows]
        assert all(type(block) is Block for block in blocks), task
        assert sorted(cases_of(*blocks), key=lambda c: c.sort_key) == cli.run(config).cases, task


# q-sun and q-specialize keep one row per k, the q side's unit of
# parallel work: their cells come in (k, n) order and `collect` sorts
# them, a few hundred cells at the grids the q side can afford.
_ROWS_PER_K = {"q-sun", "q-specialize"}

_KEY_ORDER_GRIDS = [
    # the benchmark's all-jobs2 grid
    dict(l_max=3, n_max=14, k_max=30, m=2, eps=(1, -1), x_min=-10, x_max=10),
    *(dict(eps=eps) for eps in [(1,), (-1,), (1, -1)]),
    *(dict(l_max=l_max) for l_max in (1, 4)),
    *(dict(n_max=n_max) for n_max in (1, 2, 20)),
    # x windows without 0
    dict(m=3, x_min=3, x_max=7),
    dict(x_min=-6, x_max=-2, eps=(-1,)),
]


@pytest.mark.parametrize("grid", _KEY_ORDER_GRIDS, ids=repr)
def test_rows_emit_their_cases_in_key_order(grid):
    # Every other task's rows' cells, in table order, are in key order,
    # so `collect` keeps the blocks as they come; the q tasks' are not,
    # and `collect` sorts them.
    for name, task in cli._TASKS.items():
        if grid.get("n_max", 20) < task.min_n_max:
            continue
        blocks = [row() for row in cli._task_rows(cli.GridConfig(name, **grid))[name]]
        cases = cases_of(*blocks)
        in_order = cases == sorted(cases, key=lambda c: c.sort_key)
        assert gridrun._in_key_order(blocks) == in_order, (name, grid)
        assert in_order or name in _ROWS_PER_K and len(blocks) > 1, (name, grid)


def _corrupted_binom(bad, delta):
    def corrupted(top, k):
        value = binom_int(top, k)
        return value + delta if (top, k) == bad else value

    return corrupted


def _plus_at(values, x, delta):
    return values[:x] + (values[x] + delta,) + values[x + 1:]


def _corrupted_s(build, bad, delta):
    """The oracle's build of one S_n, with delta added to S_k(x) wherever
    (k, x) == bad is built."""
    k, x = bad

    def corrupted(n, points):
        values = build(n, points)
        return _plus_at(values, x, delta) if n == k and x < points else values

    return corrupted


def _corrupted_table(build, bad, delta):
    """The verifier's table S_0 .. S_{n_max}, with the same fault wherever
    S_k(x) is built: at x < points, or, for a count per entry, at
    x < points[k]."""
    k, x = bad

    def corrupted(n_max, points):
        table = build(n_max, points)
        if k >= len(table) or x >= len(table[k]):
            return table
        return [_plus_at(values, x, delta) if n == k else values for n, values in enumerate(table)]

    return corrupted


def _corrupted_closed_forms(bad, delta):
    """identities.telescope_rhs, with delta added to its entry k at n,
    for bad = (n, k)."""
    n, k = bad
    original = identities.telescope_rhs

    def corrupted(row_n):
        forms = original(row_n)
        if row_n == n:
            forms[k] += delta
        return forms

    return corrupted


def _corrupted_closed_form(bad, delta):
    """cell_oracle.telescope_rhs with the same fault."""
    original = cell_oracle.telescope_rhs

    def corrupted(n, k):
        return original(n, k) + (delta if (n, k) == bad else 0)

    return corrupted


def _corrupted_q_sums(bad, exponent):
    """qpoly.q_sun_sums, with q^exponent added to the unscaled sum A_n of
    the cell bad = (n, k): its (low, coeffs) pair grows at either end
    when q^exponent lies outside it."""
    n, k = bad
    original = qpoly.q_sun_sums

    def corrupted(row_k, n_max):
        sums = original(row_k, n_max)
        if row_k == k and n <= n_max:
            low, coeffs = sums[n - k - 1]
            faulted = LaurentPoly(coeffs, low) + LaurentPoly([1], exponent)
            sums[n - k - 1] = (faulted.min_exp, list(faulted.coeffs))
        return sums

    return corrupted


def _corrupted_q_sum(bad, exponent):
    """cell_oracle.q_sun_sum with the same fault."""
    original = cell_oracle.q_sun_sum

    def corrupted(n, k):
        value = original(n, k)
        return value + LaurentPoly([1], exponent) if (n, k) == bad else value

    return corrupted


@settings(max_examples=60, deadline=None)
@given(
    l_max=st.integers(1, 3),
    n_max=st.integers(1, 12),
    x_min=st.integers(-8, 8),
    width=st.integers(0, 5),
    eps=st.sampled_from([(1,), (-1,), (1, -1)]),
    m=st.integers(1, 3),
    fault=st.none() | st.tuples(st.integers(-6, 14), st.integers(0, 8), st.integers(1, 5)),
    s_fault=st.none() | st.tuples(st.integers(0, 11), st.integers(0, 22), st.integers(1, 5)),
    q_fault=st.none() | st.tuples(st.integers(1, 12), st.integers(0, 11), st.integers(-40, 30)),
    closed_fault=st.none() | st.tuples(st.integers(1, 12), st.integers(0, 11), st.integers(-3, 3)),
)
# C(3,4) = 0 is the Schmidt term C(k+j,2j) at k = 1 < j = 2, which no
# cell sums; it must not reach lemma-schmidt through the fault.
@example(
    l_max=1, n_max=4, x_min=0, width=0, eps=(1, -1), m=1,
    fault=(3, 4, 1), s_fault=None, q_fault=None, closed_fault=None,
)
# C(2,1) = 3 makes both catalan-form summands of n = 2 non-integers at
# x = 1 (3/2 and 9/2); the witness must name the first.
@example(
    l_max=1, n_max=2, x_min=1, width=0, eps=(1,), m=1,
    fault=(2, 1, 1), s_fault=None, q_fault=None, closed_fault=None,
)
# C(4,3) = 4 reads 5 in the closed form of (n, k) = (4, 2): telescope's
# right side 240 becomes 300, and conjecture-final's l = 1 closed form
# 1440 becomes 1800.
@example(
    l_max=1, n_max=4, x_min=0, width=0, eps=(1,), m=1,
    fault=None, s_fault=None, q_fault=None, closed_fault=(4, 2, 60),
)
# C(2,3) = 0 reads 1: a vanishing binomial that the power sums at x = 2
# drop only when it is zero, so the left form of S_n(2), n >= 3, and
# with it transform's cells n >= 3, must fail as the oracle's do.
@example(
    l_max=1, n_max=6, x_min=0, width=0, eps=(1,), m=1,
    fault=(2, 3, 1), s_fault=None, q_fault=None, closed_fault=None,
)
# S_3(1) one too large fails transform's n = 3 and the lhs recurrence
# cells n = 1, 2, 3; each witness reads a slice of the one build of S_0
# .. S_5 at x = 0 .. 10 for the last of them.
@example(
    l_max=1, n_max=6, x_min=0, width=0, eps=(1,), m=1,
    fault=None, s_fault=(3, 1, 1), q_fault=None, closed_fault=None,
)
def test_rows_match_per_cell_oracle(
    l_max, n_max, x_min, width, eps, m, fault, s_fault, q_fault, closed_fault
):
    with ExitStack() as stack:
        if fault is not None:
            corrupted = _corrupted_binom(fault[:2], fault[2])
            for module in (congruences, identities, cell_oracle):
                stack.enter_context(mock.patch.object(module, "binom_int", corrupted))
        if s_fault is not None:
            # One value S_k(x) of the left closed form, in every table the
            # verifier builds and in every build of S_k by the oracle.
            bad, delta = s_fault[:2], s_fault[2]
            for module in (identities, congruences):
                corrupted = _corrupted_table(module.build_lhs, bad, delta)
                stack.enter_context(mock.patch.object(module, "build_lhs", corrupted))
            corrupted = _corrupted_s(cell_oracle.build_lhs, bad, delta)
            stack.enter_context(mock.patch.object(cell_oracle, "build_lhs", corrupted))
        if q_fault is not None:
            n, k, exponent = q_fault
            bad = (n, min(k, n - 1))
            stack.enter_context(
                mock.patch.object(qpoly, "q_sun_sums", _corrupted_q_sums(bad, exponent))
            )
            stack.enter_context(
                mock.patch.object(cell_oracle, "q_sun_sum", _corrupted_q_sum(bad, exponent))
            )
        if closed_fault is not None:
            # The closed form n C(n,k+1) C(n+k,k) of one (n, k), in the
            # verifier's running products and in the oracle's cell.
            n, k, delta = closed_fault
            bad = (n, min(k, n - 1))
            corrupted = _corrupted_closed_forms(bad, delta)
            for module in (identities, congruences):
                stack.enter_context(mock.patch.object(module, "telescope_rhs", corrupted))
            stack.enter_context(
                mock.patch.object(cell_oracle, "telescope_rhs", _corrupted_closed_form(bad, delta))
            )
        for task in cell_oracle.ORACLE:
            if n_max < cli._TASKS[task].min_n_max:
                continue  # recurrence needs n_max >= 2
            config = cli.GridConfig(
                task, l_max=l_max, n_max=n_max, m=m, eps=eps,
                x_min=x_min, x_max=x_min + width,
            )
            assert _row_cases(task, config) == cell_oracle.oracle_cases(task, config), task


def test_q_specialize_matches_per_cell_oracle_beyond_the_drawn_grids():
    # The central q-binomials of a run come from one running product over
    # k; the oracle forms each cell's full product A_n [2k choose k]^2
    # from q-Pascal binomials, at a larger n_max than the draws above.
    config = cli.GridConfig("q-specialize", n_max=20)
    assert _row_cases("q-specialize", config) == cell_oracle.oracle_cases("q-specialize", config)


@settings(max_examples=30, deadline=None)
@given(
    l=st.integers(1, 3),
    eps=st.sampled_from([1, -1]),
    n_max=st.integers(1, 12),
    m=st.integers(1, 3),
    x0=st.integers(-8, 8),
)
def test_row_builders_match_per_cell_sums(l, eps, n_max, m, x0):
    # Values, not only verdicts: a sum off by a multiple of the modulus
    # would still pass a cell.
    ns = range(1, n_max + 1)
    assert weighted_sum_rows(l, eps, build_lhs(n_max - 1, 2 * n_max - 1)) == [
        cell_oracle.weighted_sum_values(l, n, eps) for n in ns
    ]
    assert schmidt_coefficient_rows(l, eps, central_columns(n_max)) == [
        cell_oracle.schmidt_combination_coeffs(l, n, eps).coeffs for n in ns
    ]
    for k in range(n_max):
        assert conjecture_final_values(l, k, central_columns(n_max)) == [
            cell_oracle.conjecture_final_value(l, n, k).value for n in range(k + 1, n_max + 1)
        ]
    expected = [cell_oracle.power_sum_at(m, k, x0) for k in range(n_max)]
    assert power_sums(m, x0, n_max) == expected
    # Skipped entries are None; the others keep their index and value.
    for first in (1, n_max // 2, n_max, n_max + 1):
        skipped = min(first, n_max)
        assert power_sums(m, x0, n_max, first) == [None] * skipped + expected[skipped:]


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(1, 4),
    eps=st.sampled_from([1, -1]),
    columns=st.lists(st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=10), max_size=4),
)
@example(l=1, eps=1, columns=[])
@example(l=4, eps=-1, columns=[[], [5, -7, 2], [1]])
def test_odd_power_sums_match_per_term_sums(l, eps, columns):
    # Values, not verdicts: a sun-m or theorem1 sum off by a multiple
    # of n would still pass its cell.  Columns may be empty and of
    # different lengths; term k of a column is X_k.
    def term(k, x):
        return eps ** k * (2 * k + 1) ** (2 * l - 1) * x

    assert identities.odd_power_sums(l, eps, *columns) == [
        [sum(term(k, x) for k, x in enumerate(c[:n])) for n in range(1, len(c) + 1)]
        for c in columns
    ]


@pytest.mark.parametrize("l, eps", [(0, 1), (1, 0)])
def test_odd_power_sums_rejects_bad_weights(l, eps):
    with pytest.raises(ValueError):
        identities.odd_power_sums(l, eps, [1, 2, 3])


@settings(max_examples=20, deadline=None)
@given(l=st.integers(1, 4), eps=st.sampled_from([1, -1]), n_max=st.integers(1, 10))
def test_sun_m_sums_at_m_2_are_the_weighted_sums(l, eps, n_max):
    # conjecture-sun-m at m = 2 sums the power sums of build_lhs's
    # column x0, so its sums at x0 are theorem1's weighted sums there.
    weighted = weighted_sum_rows(l, eps, build_lhs(n_max - 1, 2 * n_max - 1))
    for x0 in range(2 * n_max - 1):
        [sums] = identities.odd_power_sums(l, eps, power_sums(2, x0, n_max))
        # Row n of the weighted sums holds x = 0 .. 2n-2.
        ns = [n for n in range(1, n_max + 1) if x0 <= 2 * n - 2]
        assert [sums[n - 1] for n in ns] == [weighted[n - 1][x0] for n in ns]


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(0, 30), data=st.data())
def test_closed_forms_match_per_term_formulas(n_max, data):
    # The verifier builds each closed form as one table S_0 .. S_n_max;
    # the oracle builds one S_n per call, one binom_int call per term.
    points = data.draw(st.integers(0, 2 * n_max + 5))
    ns = range(n_max + 1)
    assert identities.build_lhs(n_max, points) == [cell_oracle.build_lhs(n, points) for n in ns]
    assert identities.build_rhs(n_max, points) == [cell_oracle.build_rhs(n, points) for n in ns]


# A fault at a binomial that vanishes: C(top, k) = 0 for k > top >= 0,
# which is C(x0, j) at j > x0 and C(x+k, 2k) at k > x.
_VANISHING = st.none() | st.tuples(st.integers(0, 10), st.integers(1, 6)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 4),
    x0=st.integers(-12, 12),
    count=st.integers(0, 16),
    first=st.integers(0, 18),
    fault=_VANISHING,
)
@example(m=2, x0=2, count=8, first=0, fault=(2, 3))
@example(m=1, x0=-3, count=8, first=5, fault=(2, 3))
def test_trimmed_power_sums_match_per_term_sums(m, x0, count, first, fault):
    # power_sums drops the zeros that end each list of binomials it
    # reads; a binomial that wrongly reads nonzero there is still summed.
    with ExitStack() as stack:
        if fault is not None:
            corrupted = _corrupted_binom(fault, 1)
            for module in (identities, cell_oracle):
                stack.enter_context(mock.patch.object(module, "binom_int", corrupted))
        skipped = min(first, count)
        assert identities.power_sums(m, x0, count, first) == [None] * skipped + [
            cell_oracle.power_sum_at(m, k, x0) for k in range(skipped, count)
        ]


@settings(max_examples=80, deadline=None)
@given(n_max=st.integers(0, 12), data=st.data(), fault=_VANISHING)
@example(n_max=6, data=None, fault=(2, 3))
@example(n_max=6, data=None, fault=(3, 4))
def test_tables_at_per_entry_points_are_prefixes_of_full_tables(n_max, data, fault):
    # Entry n of a table built at per-entry point counts is entry n of
    # the full table, cut to its count, and the full tables are the
    # per-term sums, with or without a fault.  data=None checks the
    # ragged shape of transform and recurrence.
    if data is None:
        counts = identities.ragged_points(n_max)
    else:
        counts = data.draw(st.lists(st.integers(0, 2 * n_max + 3),
                                    min_size=n_max + 1, max_size=n_max + 1))
    full = max(counts)
    weights = [[binom_int(n + k, k) - k for k in range(n + 1)] for n in range(n_max + 1)]
    with ExitStack() as stack:
        binom = binom_int if fault is None else _corrupted_binom(fault, 1)
        for module in (identities, cell_oracle):
            stack.enter_context(mock.patch.object(module, "binom_int", binom))
        for build in ("build_lhs", "build_rhs"):
            table = getattr(identities, build)(n_max, full)
            assert table == [getattr(cell_oracle, build)(n, full) for n in range(n_max + 1)]
            assert getattr(identities, build)(n_max, counts) == [
                values[:count] for values, count in zip(table, counts)
            ]
        table = identities.in_central_basis(weights, full)
        assert table == [
            tuple(sum(c * binom(x + k, 2 * k) for k, c in enumerate(w)) for x in range(full))
            for w in weights
        ]
        assert identities.in_central_basis(weights, counts) == [
            values[:count] for values, count in zip(table, counts)
        ]


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12), max_size=6),
    points=st.integers(0, 20),
    n_max=st.integers(1, 15),
)
@example(weights=[[1, 2, 3], [], [5]], points=0, n_max=1)
def test_central_basis_sums_match_per_term_sums(weights, points, n_max):
    # Values, not verdicts.  The weight lists are ragged, and at
    # points = 0 each of them gives an empty tuple.
    assert identities.in_central_basis(weights, points) == [
        tuple(sum(c * binom_int(x + k, 2 * k) for k, c in enumerate(w)) for x in range(points))
        for w in weights
    ]
    # n times entry n-1 is the term-for-term form
    # sum_k C(n,k+1) C(n+k,k) C(2k,k) C(x+k,2k), at x = 0 .. n-1, or at
    # x = 0 .. 2n-2 in the wide table.
    for wide, points in ((False, lambda n: n), (True, lambda n: 2 * n - 1)):
        table = congruences.catalan_form_values(n_max, wide)
        assert len(table) == n_max
        for n, values in enumerate(table, 1):
            assert [n * v for v in values] == [
                sum(
                    binom_int(n, k + 1) * binom_int(n + k, k) * binom_int(2 * k, k)
                    * binom_int(x + k, 2 * k)
                    for k in range(n)
                )
                for x in range(points(n))
            ]


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(1, 8),
    p1=st.integers(-20, 20),
    p2=st.integers(-20, 20),
    scale=st.integers(),
    n_max=st.integers(0, 30),
)
def test_rational_point_lhs_matches_fraction_sum(q, p1, p2, scale, n_max):
    # Every integer pair (N, D) of one sweep against the sum itself, term
    # by term in Fractions; p/q need not be in lowest terms.
    pairs = identities._rational_point_lhs(p1, p2, q, scale, n_max)
    assert len(pairs) == n_max + 1
    r1, r2 = Fraction(p1, q), Fraction(p2, q)
    for n, (num, den) in enumerate(pairs):
        expected = scale ** n * sum(
            binom_rat(r1, k) ** 2 * binom_rat(r2, n - k) ** 2 for k in range(n + 1)
        )
        assert Fraction(num, den) == expected, n


def test_rational_point_faults_match_oracle_at_large_n():
    # Every right side off by one binomial change: each n in 1..60 of one
    # sweep fails in the verifier's integer decider and in the oracle's
    # Fraction cell, with the same witness text.
    def corrupted(top, k):
        return binom_int(top, k) + 1

    with ExitStack() as stack:
        for module in (identities, cell_oracle):
            stack.enter_context(mock.patch.object(module, "binom_int", corrupted))
        for row, cell in ((identities.sun_one_row, cell_oracle.sun_one_case),
                          (identities.sun_two_row, cell_oracle.sun_two_case)):
            cases = cases_of(row(60))
            for n in range(1, 61):
                assert cases[n].status == "fail", (row, n)
                assert cases[n] == cell(n), (row, n)
