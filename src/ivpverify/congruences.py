"""Integer-side claims: integer-valuedness of the weighted
transformation sums, divisibility of the Schmidt-combination
coefficients, and the mod-n^2 congruence family: their row builders
and one row function per claim.

Most grid rows are prefix sums over n of sum_{k<n} eps^k (2k+1)^(2l-1) X_k,
read off one running sum with the weights `identities.odd_weights`
forms once per (l, eps), with X_k the S_k(x) of the weighted sums,
C(k+j,2j) of the Schmidt coefficients, C(m+k,2k) of the congruence
values or a power sum of the spot checks.  The tables X_k comes from
are arguments of the row functions, which `cli` builds once per run:
the S corner (below), `identities.central_columns` (the Schmidt
coefficients' and the congruence values' columns) and `sun_m_sums`.
So a cell costs O(1) (O(n) for a vector of values) instead of a fresh
sum.  The Catalan-form summands are one row per n, which forms their
integer weights once and reads them at each x of the window.  The
Schmidt, congruence, spot-check and (2l-1)!!/n^2 rows are one row per
l, so each row has one severity.  Every row returns one block
(`report.row_cases`), its cells in key order, eps ascending, its
verdicts decided first and each failing cell's witness after them.

Severity matters here.  Most grid cells instantiate proved statements
(severity "theorem"); the l >= 2 congruence rows and the m >= 3 spot
checks instantiate open conjectures (severity "conjecture"), so a
failing cell there would be a counterexample, not a bug in a proof.
Every verdict is computed on exact integers -- no modular reduction
happens before the final divisibility test.  The weighted sums of
S_k(x) are symmetric of degree 2n-2, so by the symmetric rule of
`values` each is decided on its n values at x = 0 .. n-1: p/m is
integer-valued exactly when each of them is a multiple of m.  They come
from `weighted_sum_rows`, one running sum per x of the table its row
function reads: the S corner S_k(x), k, x < n_max, of the left closed
form.  `cli` builds it as `build_lhs(n_max - 1, n_max)` when one of
these tasks runs alone, and `verify all` cuts it from the full left
table `build_lhs(n_max, n_max + 1)` that transform and recurrence read
there.  The corner stays on the left form: the catalan-form identity
compares it with a sum in the right form's basis C(x+k,2k), so a bug
in that basis cannot cancel out.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, eq, mod

from .combinat import binom_int, catalan, double_factorial_odd
from .identities import (
    in_central_basis,
    odd_power_sums,
    odd_weights,
    power_sums,
    staggered_sums,
    telescope_rhs,
    triangle,
)
from .report import Block, grid_columns, row_cases
from .values import first_difference, fraction

__all__ = [
    "schmidt_coefficient_rows",
    "schmidt_row",
    "weighted_sum_rows",
    "theorem1_row",
    "theorem2_row",
    "catalan_form_values",
    "catalan_identity_row",
    "catalan_terms_row",
    "conjecture_final_values",
    "conjecture_final_row",
    "sun_m_sums",
    "sun_m_row",
    "sun_m_regime",
    "sun_ii_row",
]


# -- Schmidt-combination coefficients ----------------------------------------

def schmidt_coefficient_rows(
    l: int, eps: int, table: tuple[list[list[int]], list[int]]
) -> list[tuple[int, ...]]:
    """The integer coefficient vectors of sum_{k<n} eps^k (2k+1)^(2l-1) S_k(x_0..x_k)
    for n = 1 .. n_max (entry n-1), from table = `central_columns(n_max)`,

    where S_k(x_0,...,x_k) = sum_j C(k+j,2j) C(2j,j) x_j.  Collecting by
    x_j gives coeffs[j] = sum_{k=j}^{n-1} eps^k (2k+1)^(2l-1) C(k+j,2j)
    C(2j,j): the running sum of the table's column j, from k = j on, as
    C(k+j,2j) = 0 for k < j.  The divisibility claim: every entry is a
    multiple of n.
    """
    columns, central = table
    n_max = len(columns)
    if n_max < 1:
        raise ValueError(f"schmidt_coefficient_rows: need n_max >= 1, got {n_max}")
    sums = staggered_sums(odd_weights(l, eps, n_max), columns)
    return [
        tuple(central[j] * sums[j][n - 1 - j] for j in range(n)) for n in range(1, n_max + 1)
    ]


def schmidt_row(
    l: int, eps_values: tuple[int, ...], table: tuple[list[list[int]], list[int]]
) -> Block:
    """Every Schmidt-combination coefficient for (l, n, eps) is divisible
    by n, for n = 1 .. n_max and eps in eps_values, in key order: eps
    ascending within each n.  table = `central_columns(n_max)`."""
    signs = sorted(eps_values)
    columns = grid_columns([l], range(1, len(table[0]) + 1), signs)
    rows = [schmidt_coefficient_rows(l, eps, table) for eps in signs]
    cells = [(n, row[n - 1]) for n in range(1, len(table[0]) + 1) for row in rows]

    def witness(i):
        n, coeffs = cells[i]
        bad = next(j for j, c in enumerate(coeffs) if c % n)
        return f"coefficient j={bad} is {coeffs[bad]}, not divisible by {n}"

    return row_cases(("l", "n", "eps"), columns,
                     [not any(map(mod, coeffs, repeat(n))) for n, coeffs in cells], witness)


# -- weighted sums of S_k and integer-valuedness -----------------------------

def weighted_sum_rows(l: int, eps: int, table: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """sum_{k=0}^{n-1} eps^k (2k+1)^(2l-1) S_k(x) at the points x of
    `table` = S_0 .. S_{n_max - 1} at x = 0 .. points-1, up to its degree
    2n-2, for n = 1 .. n_max (entry n-1): one `odd_power_sums` column per x."""
    n_max = len(table)
    if n_max < 1:
        raise ValueError(f"weighted_sum_rows: need n_max >= 1, got {n_max}")
    sums = odd_power_sums(l, eps, *zip(*table))
    return [row[: 2 * n - 1] for n, row in enumerate(zip(*sums), 1)]


def _int_valued_row(names, columns, cells, severity: str = "theorem") -> Block:
    """The block of cells (values, m), each asking: is p/m integer-valued,
    p symmetric with these values at x = 0 .. d (see `values`)?"""

    def witness(i):
        values, m = cells[i]
        x0 = next(x for x, v in enumerate(values) if v % m)
        return f"p({x0}) = {fraction(values[x0], m)} is not an integer"

    return row_cases(names, columns, [not any(map(mod, values, repeat(m))) for values, m in cells],
                     witness, severity=severity)


def theorem1_row(l_max: int, eps_values: tuple[int, ...], table: list[tuple[int, ...]]) -> Block:
    """The 1/n weighted sum for (l, n, eps) is integer-valued, for every
    l <= l_max, eps in eps_values and n = 1 .. n_max, in key order: eps
    ascending within each (l, n).  table = the S corner S_k(x), k, x < n_max."""
    signs = sorted(eps_values)
    ns = range(1, len(table) + 1)
    cells = []
    for l in range(1, l_max + 1):
        rows = [weighted_sum_rows(l, eps, table) for eps in signs]
        cells += [(row[n - 1][:n], n) for n in ns for row in rows]
    return _int_valued_row(("l", "n", "eps"), grid_columns(range(1, l_max + 1), ns, signs), cells)


def theorem2_row(table: list[tuple[int, ...]]) -> Block:
    """(1/n^2) sum_{k=0}^{n-1} (2k+1) S_k(x) is integer-valued, for n = 1 .. n_max,
    from table = the S corner S_k(x), k, x < n_max."""
    cells = [(values[:n], n * n) for n, values in enumerate(weighted_sum_rows(1, 1, table), 1)]
    return _int_valued_row(("n",), [list(range(1, len(cells) + 1))], cells)


# -- Catalan-weighted rewriting of the theorem2 sum --------------------------

def catalan_form_values(n_max: int) -> list[tuple[int, ...]]:
    """sum_{k=0}^{n-1} catalan(k) C(n-1,k) C(n+k,k) C(x+k,2k) at
    x = 0 .. n-1, the points the identity row decides on, for
    n = 1 .. n_max (entry n-1).

    Term-for-term this is (1/n) C(n,k+1) C(n+k,k) C(2k,k) C(x+k,2k);
    pulling the 1/(k+1) into the central binomial makes every scalar
    weight a visible integer.
    """
    if n_max < 1:
        raise ValueError(f"catalan_form_values: n_max must be >= 1, got {n_max}")
    ns = range(1, n_max + 1)
    return in_central_basis([
        [catalan(k) * binom_int(n - 1, k) * binom_int(n + k, k) for k in range(n)] for n in ns
    ], ns)


def catalan_identity_row(table: list[tuple[int, ...]]) -> Block:
    """For every n <= n_max the Catalan-weighted sum equals the 1/n^2
    weighted sum as a polynomial (compared at x = 0 .. n-1, see `values`),
    the latter from table = the S corner S_k(x), k, x < n_max.  The
    witness of a failing cell n gives both sides at the first of those x
    where they differ; cell n is entry i = n-1 of the row."""
    sums = [v[:n] for n, v in enumerate(weighted_sum_rows(1, 1, table), 1)]
    forms = catalan_form_values(len(table))

    def witness(i):
        square = (i + 1) ** 2
        x = first_difference(sums[i], (square * c for c in forms[i]))
        return f"at x={x}: 1/n^2 sum {fraction(sums[i][x], square)} vs Catalan form {forms[i][x]}"

    return row_cases(
        ("part", "n"), [["identity"] * len(table), list(range(1, len(table) + 1))],
        [v == tuple(n * n * c for c in form) for n, (v, form) in enumerate(zip(sums, forms), 1)],
        witness,
    )


def catalan_terms_row(n: int, x_min: int, x_max: int) -> Block:
    """Each summand (1/n) W_k C(x+k,2k), W_k = C(n,k+1) C(n+k,k) C(2k,k),
    is an integer, at x = x_min .. x_max.

    The weights W_k are formed once for the row.  A summand whose weight
    n divides is an integer at every x, so only the others are read at
    each x, in increasing k; the first that is not an integer is the
    witness.
    """
    weights = [binom_int(n, k + 1) * binom_int(n + k, k) * binom_int(2 * k, k) for k in range(n)]
    suspects = [k for k, weight in enumerate(weights) if weight % n]
    xs = list(range(x_min, x_max + 1))

    def terms(x):
        return ((k, weights[k] * binom_int(x + k, 2 * k)) for k in suspects)

    def witness(i):
        k, term = next((k, term) for k, term in terms(xs[i]) if term % n)
        return f"k={k} summand {fraction(term, n)} is not an integer"

    return row_cases(("part", "n", "x"), [["terms"] * len(xs), [n] * len(xs), xs],
                     [not any(term % n for _, term in terms(x)) for x in xs], witness)


# -- the mod-n^2 congruence family -------------------------------------------

def conjecture_final_values(l: int, k: int, table: tuple[list[list[int]], list[int]]) -> list[int]:
    """(2l-1)!! sum_{m=k}^{n-1} (2m+1)^(2l-1) C(m+k,2k) C(2k,k)^2 for
    n = k+1 .. n_max (entry n-k-1): column k of the eps = 1 staggered sum
    of table = `central_columns(n_max)`, scaled as in `conjecture_final_row`."""
    columns, centrals = table
    if not 0 <= k < len(columns):
        raise ValueError(
            f"conjecture_final_values: need 0 <= k < n_max, got k={k}, n_max={len(columns)}"
        )
    [sums] = staggered_sums(odd_weights(l, 1, len(columns))[k:], columns[k:k + 1])
    scale = double_factorial_odd(l) * centrals[k] ** 2
    return [scale * partial for partial in sums]


def conjecture_final_row(l: int, table: tuple[list[list[int]], list[int]]) -> Block:
    """The congruence mod n^2 at (l, n, k), for n = 1 .. n_max and k < n,
    in key order, from table = `central_columns(n_max)`.

    Cell (n, k) is entry n-k-1 of column k of the row's one eps = 1
    staggered sum of the columns, times (2l-1)!! C(2k,k)^2.  l = 1 cells
    are proved and also have to match the closed form
    n C(n,k+1) C(n+k,k) C(2k,k) exactly, entry k of `telescope_rhs(n)`
    times C(2k,k); l >= 2 cells are conjectures.
    """
    columns, centrals = table
    n_max = len(centrals)
    sums = staggered_sums(odd_weights(l, 1, n_max), columns)
    scales = [double_factorial_odd(l) * central ** 2 for central in centrals]
    ns, ks = triangle(n_max)
    values = [scales[k] * sums[k][n - k - 1] for n, k in zip(ns, ks)]
    oks = [not value % (n * n) for value, n in zip(values, ns)]
    if l == 1:  # the proved route: the sum telescopes to a closed product
        closed = [form * centrals[k] for n in range(1, n_max + 1)
                  for k, form in enumerate(telescope_rhs(n))]
        oks = map(and_, oks, map(eq, values, closed))

    def witness(i):
        value, modulus = values[i], ns[i] * ns[i]
        if value % modulus:
            return f"value {value} = {value % modulus} mod {modulus}"
        return f"value {value} != closed form {closed[i]}"

    return row_cases(("l", "n", "k"), [[l] * len(ns), ns, ks], oks, witness,
                     severity="theorem" if l == 1 else "conjecture")


# -- numeric spot checks for general power m ---------------------------------

def sun_m_sums(m: int, n_max: int, x_min: int, x_max: int) -> list[list[int]]:
    """The power sums `power_sums(m, x0, n_max)` at x0 = x_min .. x_max,
    which every l row of conjecture-sun-m reads."""
    return [power_sums(m, x0, n_max) for x0 in range(x_min, x_max + 1)]


def sun_m_row(
    m: int, l: int, eps_values: tuple[int, ...], x_min: int, sums: list[list[int]]
) -> Block:
    """Pointwise integrality at each x0 = x_min .. x_max, for every
    n <= n_max and eps in eps_values, of
    (1/n) sum_k eps^k (2k+1)^(2l-1) sum_j C(-x0-1,j)^m C(x0,k-j)^m,
    in key order: (n, eps, x), eps ascending.

    sums = `sun_m_sums(m, n_max, x_min, x_max)`, the power sums
    (`identities.power_sums`) at each x0, are summed by `odd_power_sums`
    for each eps: at m = 2 they are `build_lhs`'s column x0, so the sums
    are theorem1's at x0.  m <= 2 instances are proved; m >= 3 ones are
    open.  The case key leaves m out: one report holds a single m, which
    its config echoes.
    """
    signs = sorted(eps_values)
    ns = range(1, len(sums[0]) + 1)
    columns = grid_columns([l], ns, signs, range(x_min, x_min + len(sums)))
    totals = [odd_power_sums(l, eps, *sums) for eps in signs]
    values = [column[n - 1] for n in ns for by_x in totals for column in by_x]
    return row_cases(
        ("l", "n", "eps", "x"), columns, [not v % n for v, n in zip(values, columns[1])],
        lambda i: f"sum {values[i]} at x={columns[3][i]} is not divisible by {columns[1][i]}",
        severity="theorem" if m <= 2 else "conjecture",
    )


def sun_m_regime(m: int, n_max: int, points: int) -> str:
    """Which n an x range of `points` consecutive integers certifies.

    The polynomial behind `sun_m_row` has degree m(n-1), so when the x
    range contains at least m(n-1)+1 consecutive integers the pointwise
    check is a complete integer-valuedness certificate for that n;
    beyond that bound it is a spot check.
    """
    n_complete = (points - 1) // m + 1
    if n_complete >= n_max:
        regime = f"complete integer-valuedness certificate for every n <= {n_max}"
    else:
        regime = (
            f"complete certificate for n <= {n_complete}, "
            f"spot check for {n_complete} < n <= {n_max}"
        )
    return f"degree is m(n-1) = {m}(n-1); x range holds {points} consecutive points: " + regime


# -- the (2l-1)!!/n^2 strengthening ------------------------------------------

def sun_ii_row(l: int, table: list[tuple[int, ...]]) -> Block:
    """((2l-1)!!/n^2) sum_{k=0}^{n-1} (2k+1)^(2l-1) S_k(x) is integer-valued,
    for n = 1 .. n_max, from table = the S corner S_k(x), k, x < n_max.

    l = 1 is the proved 1/n^2 statement; l >= 2 instances follow from
    the open mod-n^2 congruence, so they carry conjecture severity.
    """
    scale = double_factorial_odd(l)
    cells = [([scale * v for v in values[:n]], n * n)
             for n, values in enumerate(weighted_sum_rows(l, 1, table), 1)]
    return _int_valued_row(("l", "n"), grid_columns([l], range(1, len(cells) + 1)), cells,
                           "theorem" if l == 1 else "conjecture")
