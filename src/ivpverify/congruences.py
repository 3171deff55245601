"""Integer-side claims: integer-valuedness of the weighted
transformation sums, divisibility of the Schmidt-combination
coefficients, and the mod-n^2 congruence family.  The module holds
their row builders and one row function per claim, each taking its own
arguments.

Most grid rows are prefix sums over n of sum_{k<n} eps^k (2k+1)^(2l-1) X_k,
read off one running sum with the weights `identities.odd_weights`
forms once per (l, eps), with X_k the S_k(x) of the weighted sums,
C(k+j,2j) of the Schmidt coefficients, C(m+k,2k) of the congruence
values or a power sum of the spot checks.  The tables X_k comes from
are arguments of the row functions, which `cli` builds once per run:
the S corner (below), `identities.central_columns` (the Schmidt
coefficients' and the congruence values' columns) and `sun_m_sums`.
So a cell costs O(1) (O(n) for a vector of values) instead of a fresh
sum, and a row function decides each of its cells.  The Catalan-form
summands are one row per n, which forms the summands' integer weights
once and reads them at each x of the window.  The Schmidt, congruence
and spot-check rows are one row per l, and every row emits its cells
in key order, eps ascending (-1 before +1), with each key pair built
once per row or per n.

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
function reads: the S corner S_k(x), k, x < n_max, which `cli` cuts
from the run's one left table `build_lhs(n_max, n_max + 1)`.
"""

from __future__ import annotations

from .combinat import binom_int, catalan, double_factorial_odd
from .identities import (
    build_lhs,
    coeff_mismatch,
    in_central_basis,
    odd_power_sums,
    odd_weights,
    power_sums,
    staggered_sums,
    telescope_rhs,
)
from .report import CaseResult, make_case, row_cases
from .values import coefficients, fraction

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
) -> list[CaseResult]:
    """Every Schmidt-combination coefficient for (l, n, eps) is divisible
    by n, for n = 1 .. n_max and eps in eps_values, in key order: eps
    ascending within each n.  table = `central_columns(n_max)`."""
    signs = sorted(eps_values)
    n_max = len(table[0])
    rows = [schmidt_coefficient_rows(l, eps, table) for eps in signs]
    l_pair = ("l", l)
    eps_pairs = [("eps", eps) for eps in signs]
    cases = []
    for n in range(1, n_max + 1):
        n_pair = ("n", n)
        for eps_pair, row in zip(eps_pairs, rows):
            coeffs = row[n - 1]
            bad = next((j for j, c in enumerate(coeffs) if c % n), None)
            witness = None
            if bad is not None:
                witness = f"coefficient j={bad} is {coeffs[bad]}, not divisible by {n}"
            cases.append(make_case((l_pair, n_pair, eps_pair), bad is None, witness))
    return cases


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


def _int_valued_case(key, values, m: int, severity: str = "theorem") -> CaseResult:
    """Is p/m integer-valued, p symmetric with these values at x = 0 .. d (see `values`)?"""
    x0 = next((x for x, v in enumerate(values) if v % m), None)
    witness = None if x0 is None else f"p({x0}) = {fraction(values[x0], m)} is not an integer"
    return make_case(key, x0 is None, witness, severity=severity)


def theorem1_row(
    l_max: int, eps_values: tuple[int, ...], table: list[tuple[int, ...]]
) -> list[CaseResult]:
    """The 1/n weighted sum for (l, n, eps) is integer-valued, for every
    l <= l_max, eps in eps_values and n = 1 .. n_max, in key order: eps
    ascending within each (l, n).  table = the S corner S_k(x), k, x < n_max."""
    n_max = len(table)
    signs = sorted(eps_values)
    eps_pairs = [("eps", eps) for eps in signs]
    cases = []
    for l in range(1, l_max + 1):
        l_pair = ("l", l)
        rows = [weighted_sum_rows(l, eps, table) for eps in signs]
        for n in range(1, n_max + 1):
            n_pair = ("n", n)
            for eps_pair, row in zip(eps_pairs, rows):
                cases.append(_int_valued_case((l_pair, n_pair, eps_pair), row[n - 1][:n], n))
    return cases


def theorem2_row(table: list[tuple[int, ...]]) -> list[CaseResult]:
    """(1/n^2) sum_{k=0}^{n-1} (2k+1) S_k(x) is integer-valued, for n = 1 .. n_max,
    from table = the S corner S_k(x), k, x < n_max."""
    return [
        _int_valued_case((("n", n),), values[:n], n * n)
        for n, values in enumerate(weighted_sum_rows(1, 1, table), 1)
    ]


# -- Catalan-weighted rewriting of the theorem2 sum --------------------------

def catalan_form_values(n_max: int) -> list[tuple[int, ...]]:
    """sum_{k=0}^{n-1} catalan(k) C(n-1,k) C(n+k,k) C(x+k,2k) at
    x = 0 .. n_max - 1, for n = 1 .. n_max (entry n-1).

    Term-for-term this is (1/n) C(n,k+1) C(n+k,k) C(2k,k) C(x+k,2k);
    pulling the 1/(k+1) into the central binomial makes every scalar
    weight a visible integer.
    """
    if n_max < 1:
        raise ValueError(f"catalan_form_values: n_max must be >= 1, got {n_max}")
    return in_central_basis([
        [catalan(k) * binom_int(n - 1, k) * binom_int(n + k, k) for k in range(n)]
        for n in range(1, n_max + 1)
    ], n_max)


def catalan_identity_row(table: list[tuple[int, ...]]) -> list[CaseResult]:
    """For every n <= n_max the Catalan-weighted sum equals the 1/n^2
    weighted sum as a polynomial (compared at x = 0 .. n-1, see `values`),
    the latter from table = the S corner S_k(x), k, x < n_max.  The
    witness of a failing cell n reads both sides at x = 0 .. 2n-2; cell
    n is entry i = n-1 of the row."""
    pairs = zip(weighted_sum_rows(1, 1, table), catalan_form_values(len(table)))
    return row_cases(
        [((("part", "identity"), ("n", n)), v[:n] == tuple(n * n * ci for ci in c[:n]))
         for n, (v, c) in enumerate(pairs, 1)],
        lambda top: (weighted_sum_rows(1, 1, build_lhs(top, 2 * top + 1)),
                     catalan_form_values(2 * top + 1)),
        lambda i, sides: coeff_mismatch(
            [fraction(a, (i + 1) ** 2) for a in coefficients(sides[0][i])],
            coefficients(sides[1][i][: 2 * i + 1])),
    )


def catalan_terms_row(n: int, x_min: int, x_max: int) -> list[CaseResult]:
    """Each summand (1/n) W_k C(x+k,2k), W_k = C(n,k+1) C(n+k,k) C(2k,k),
    is an integer, at x = x_min .. x_max.

    The weights W_k are formed once for the row.  A summand whose weight
    n divides is an integer at every x, so only the others are read at
    each x, in increasing k; the first that is not an integer is the
    witness.
    """
    weights = [binom_int(n, k + 1) * binom_int(n + k, k) * binom_int(2 * k, k) for k in range(n)]
    suspects = [k for k, weight in enumerate(weights) if weight % n]
    cases = []
    for x in range(x_min, x_max + 1):
        bad = None
        for k in suspects:
            term = weights[k] * binom_int(x + k, 2 * k)
            if term % n:
                bad = f"k={k} summand {fraction(term, n)} is not an integer"
                break
        cases.append(make_case((("part", "terms"), ("n", n), ("x", x)), bad is None, bad))
    return cases


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


def conjecture_final_row(l: int, table: tuple[list[list[int]], list[int]]) -> list[CaseResult]:
    """The congruence mod n^2 at (l, n, k), for n = 1 .. n_max and k < n,
    in key order, from table = `central_columns(n_max)`.

    Cell (n, k) is entry n-k-1 of column k of the row's one eps = 1
    staggered sum of the columns, times (2l-1)!! C(2k,k)^2.  The key
    pairs are built once: ("l", l) for the row, ("n", n) per n, ("k", k)
    per k.  l = 1 cells are proved and also have to match the closed
    form n C(n,k+1) C(n+k,k) C(2k,k) exactly, entry k of
    `telescope_rhs(n)` times C(2k,k); l >= 2 cells are conjectures.
    """
    severity = "theorem" if l == 1 else "conjecture"
    columns, centrals = table
    n_max = len(centrals)
    sums = staggered_sums(odd_weights(l, 1, n_max), columns)
    scales = [double_factorial_odd(l) * central ** 2 for central in centrals]
    l_pair = ("l", l)
    k_pairs = [("k", k) for k in range(n_max)]
    cases = []
    for n in range(1, n_max + 1):
        n_pair = ("n", n)
        modulus = n * n
        # The proved route: at l=1 the sum telescopes to a closed product.
        closed_forms = telescope_rhs(n) if l == 1 else None
        for k in range(n):
            value = scales[k] * sums[k][n - k - 1]
            witness = None
            if value % modulus:
                witness = f"value {value} = {value % modulus} mod {modulus}"
            elif l == 1:
                closed = closed_forms[k] * centrals[k]
                if value != closed:
                    witness = f"value {value} != closed form {closed}"
            key = (l_pair, n_pair, k_pairs[k])
            cases.append(make_case(key, witness is None, witness, severity))
    return cases


# -- numeric spot checks for general power m ---------------------------------

def sun_m_sums(m: int, n_max: int, x_min: int, x_max: int) -> list[list[int]]:
    """The power sums `power_sums(m, x0, n_max)` at x0 = x_min .. x_max,
    which every l row of conjecture-sun-m reads."""
    return [power_sums(m, x0, n_max) for x0 in range(x_min, x_max + 1)]


def sun_m_row(
    m: int, l: int, eps_values: tuple[int, ...], x_min: int, sums: list[list[int]]
) -> list[CaseResult]:
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
    xs = range(x_min, x_min + len(sums))
    n_max = len(sums[0])
    signs = sorted(eps_values)
    totals = [odd_power_sums(l, eps, *sums) for eps in signs]
    severity = "theorem" if m <= 2 else "conjecture"
    l_pair = ("l", l)
    eps_pairs = [("eps", eps) for eps in signs]
    x_pairs = [("x", x0) for x0 in xs]
    cases = []
    for n in range(1, n_max + 1):
        n_pair = ("n", n)
        for eps_pair, by_x in zip(eps_pairs, totals):
            for x_pair, column in zip(x_pairs, by_x):
                total = column[n - 1]
                ok = total % n == 0
                witness = None if ok else f"sum {total} at x={x_pair[1]} is not divisible by {n}"
                cases.append(make_case((l_pair, n_pair, eps_pair, x_pair), ok, witness, severity))
    return cases


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

def sun_ii_row(l_max: int, table: list[tuple[int, ...]]) -> list[CaseResult]:
    """((2l-1)!!/n^2) sum_{k=0}^{n-1} (2k+1)^(2l-1) S_k(x) is integer-valued,
    for every l <= l_max and n = 1 .. n_max, from table = the S corner
    S_k(x), k, x < n_max.

    l = 1 is the proved 1/n^2 statement; l >= 2 instances follow from
    the open mod-n^2 congruence, so they carry conjecture severity.
    """
    return [
        _int_valued_case(
            (("l", l), ("n", n)), [double_factorial_odd(l) * v for v in values[:n]], n * n,
            "theorem" if l == 1 else "conjecture",
        )
        for l in range(1, l_max + 1)
        for n, values in enumerate(weighted_sum_rows(l, 1, table), 1)
    ]
