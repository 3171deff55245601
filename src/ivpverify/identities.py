"""The binomial-sum identity family: builders and one row function per
claim, each deciding its grid cells exactly.  A row function takes its
own arguments, and the task table in `cli` calls it.

The central object is the degree-2n polynomial

    S_n(x) = sum_{k=0}^n C(-x-1,k)^2 C(x,n-k)^2
           = sum_{k=0}^n C(n+k,2k) C(2k,k)^2 C(x+k,2k).

`build_lhs` and `build_rhs` evaluate the two closed forms independently
at x = 0, 1, ..., as one table S_0 .. S_n per call; nothing is cached.
`power_sums` builds sum_j C(-x-1,j)^m C(x,k-j)^m at one integer x for
every k at once: the Chu-Vandermonde sums at m = 1, the left table at
m = 2.  `in_central_basis` evaluates sums in the basis C(x+k,2k): the
right table, and the Catalan form in `congruences`.
`odd_power_sums` is the one weighted running sum
sum_{k<n} eps^k (2k+1)^(2l-1) X_k, of the telescope's left side here
and of every prefix-sum row in `congruences`.
Every polynomial claim here is symmetric about x = -1/2, so by the
symmetric rule of `values` it is decided at x = 0 .. d only: S_n at
x = 0 .. n, the order-2 recurrence's residual at x = 0 .. n+2, the
Chu-Vandermonde sum at x = 0 .. k//2.  A failing cell rebuilds its
values at x = 0 .. 2d for its witness.
The module also checks a telescoping sum of odd-weighted binomials
(one row, one `odd_power_sums` column per k) and two rational-value
identities at x = -1/2 and x = -1/4, -3/4, one row over n each, decided
on integers: with C(p/q, k) = p(p-q)...(p-(k-1)q) / (q^k k!), the
scaled left side is a fraction N / D of integers, and a cell passes
when N = rhs D.

All checks are exact and run on `int`; a failure carries a witness
(the first differing coefficient, the polynomial interpolated from the
failing values, or the two unequal values), and only a witness uses
`Fraction`.
"""

from __future__ import annotations

import math
from itertools import accumulate, zip_longest
from operator import mul, neg
from typing import Callable, Optional

from .combinat import binom_int
from .report import CaseResult, make_case
from .values import coefficients, fraction, poly_text

__all__ = [
    "build_lhs",
    "build_rhs",
    "power_sums",
    "in_central_basis",
    "odd_power_sums",
    "coeff_mismatch",
    "transform_row",
    "recurrence_coefficients",
    "recurrence_base_row",
    "recurrence_row",
    "chu_row",
    "telescope_row",
    "sun_one_row",
    "sun_two_row",
]


# -- the two closed forms ----------------------------------------------------

def power_sums(m: int, x0: int, count: int, first: int = 0) -> list[Optional[int]]:
    """P_k(x0) = sum_j C(-x0-1,j)^m C(x0,k-j)^m at the integer point x0,
    entry k for k = 0 .. count-1; the entries k < first are None, not
    computed."""
    left = [binom_int(-x0 - 1, j) ** m for j in range(count)]
    right = [binom_int(x0, j) ** m for j in range(count)]
    skipped = [None] * min(first, count)
    return skipped + [
        sum(left[j] * right[k - j] for j in range(k + 1)) for k in range(first, count)
    ]


def in_central_basis(weights: list[list[int]], points: int) -> list[tuple[int, ...]]:
    """sum_k w[k] C(x+k,2k) at x = 0 .. points-1, for each (ragged) weight list w."""
    size = max(map(len, weights), default=0)
    basis = [[binom_int(x + k, 2 * k) for k in range(size)] for x in range(points)]
    return [tuple(sum(map(mul, w, row)) for row in basis) for w in weights]


def odd_power_sums(l: int, eps: int, *columns, first: int = 0) -> list[list[int]]:
    """sum_{k=first}^{n-1} eps^k (2k+1)^(2l-1) X_k for n = first+1, ...
    (entry n-first-1), for each column X_first, X_first+1, ... of ints;
    the weights are formed once for all columns."""
    if l < 1 or eps not in (1, -1):
        raise ValueError(f"odd_power_sums: need l >= 1 and eps = +1 or -1, got l={l}, eps={eps}")
    size = max(map(len, columns), default=0)
    weights = [(2 * k + 1) ** (2 * l - 1) for k in range(first, first + size)]
    if eps == -1:
        odd_k = slice(1 - first % 2, None, 2)
        weights[odd_k] = map(neg, weights[odd_k])
    return [list(accumulate(map(mul, weights, column))) for column in columns]


def build_lhs(n_max: int, points: int) -> list[tuple[int, ...]]:
    """S_0 .. S_{n_max}, each at x = 0 .. points-1, from the left closed form
    sum_{k=0}^n C(-x-1,k)^2 C(x,n-k)^2: the m = 2 power sums at each x."""
    if n_max < 0:
        raise ValueError(f"build_lhs: n_max must be >= 0, got {n_max}")
    sums = [power_sums(2, x, n_max + 1) for x in range(points)]
    return [tuple(row[n] for row in sums) for n in range(n_max + 1)]


def build_rhs(n_max: int, points: int) -> list[tuple[int, ...]]:
    """S_0 .. S_{n_max}, each at x = 0 .. points-1, from the right closed form
    sum_{k=0}^n C(n+k,2k) C(2k,k)^2 C(x+k,2k)."""
    if n_max < 0:
        raise ValueError(f"build_rhs: n_max must be >= 0, got {n_max}")
    return in_central_basis([
        [binom_int(n + k, 2 * k) * binom_int(2 * k, k) ** 2 for k in range(n + 1)]
        for n in range(n_max + 1)
    ], points)


def coeff_mismatch(p, q) -> str:
    """Witness for p != q, given as coefficient lists: the first
    coefficient where they differ."""
    for i, (a, b) in enumerate(zip_longest(p, q, fillvalue=0)):
        if a != b:
            return f"coeff of x^{i}: {a} vs {b}"
    return "polynomials agree"


def _forms(n: int, points: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """S_n at x = 0 .. points-1 from each closed form, for one cell."""
    return build_lhs(n, points)[n], build_rhs(n, points)[n]


def transform_row(n_max: int) -> list[CaseResult]:
    """Both closed forms of S_n agree, for n = 0 .. n_max: cell n compares
    the first n+1 values of one table of each form at x = 0 .. n_max."""
    lhs, rhs = build_lhs(n_max, n_max + 1), build_rhs(n_max, n_max + 1)
    cases = []
    for n in range(n_max + 1):
        ok = lhs[n][: n + 1] == rhs[n][: n + 1]
        witness = None if ok else coeff_mismatch(*map(coefficients, _forms(n, 2 * n + 1)))
        cases.append(make_case((("n", n),), ok, witness))
    return cases


# -- order-2 recurrence ------------------------------------------------------

def recurrence_coefficients(n: int, x: int) -> tuple[int, int, int]:
    """Coefficients (a_n, b_n(x), c_n) of the order-2 recurrence

        a_n S_{n+2} - b_n(x) S_{n+1} + c_n S_n = 0,

    with a_n = (n+2)^3, b_n = (2n+3)(2x^2+2x+n^2+3n+3), c_n = (n+1)^3.
    Sanity anchor: S_n(0) = 1 for every n, which forces
    c_n = (2n+3)(n^2+3n+3) - (n+2)^3 = (n+1)^3.
    """
    a = (n + 2) ** 3
    b = (2 * n + 3) * (2 * x * x + 2 * x + n * n + 3 * n + 3)
    c = (n + 1) ** 3
    return a, b, c


_BASE_CASES = {0: [1], 1: [1, 2, 2]}  # S_0 and S_1, little-endian in x


def recurrence_base_row() -> list[CaseResult]:
    """Both closed forms give the base cases S_0 = 1 and S_1 = 2x^2+2x+1
    that start the order-2 recurrence, compared at x = 0 .. n."""
    cases = []
    for n, base in _BASE_CASES.items():
        lhs, rhs = _forms(n, n + 1)
        ok = lhs == rhs == tuple(sum(c * x ** i for i, c in enumerate(base)) for x in range(n + 1))
        witness = None
        if not ok:  # the witness reads both forms at x = 0 .. 2n
            lhs_p, rhs_p = (poly_text(coefficients(v)) for v in _forms(n, 2 * n + 1))
            witness = f"S_{n}: lhs {lhs_p}, rhs {rhs_p}, expected {poly_text(base)}"
        cases.append(make_case((("family", "base"), ("n", n)), ok, witness))
    return cases


def _residual(table: list[tuple[int, ...]], n: int, points: int) -> list[int]:
    """a_n S_{n+2} - b_n S_{n+1} + c_n S_n at x = 0 .. points-1, from `table`."""
    coeffs = (recurrence_coefficients(n, x) for x in range(points))
    return [a * table[n + 2][x] - b * table[n + 1][x] + c * table[n][x]
            for x, (a, b, c) in enumerate(coeffs)]


def recurrence_row(family: str, n_max: int) -> list[CaseResult]:
    """The closed form `family` ("lhs" or "rhs") satisfies the order-2
    recurrence: one table S_0 .. S_{n_max} at x = 0 .. n_max is built and,
    at each n <= n_max - 2, the residual, symmetric of degree at most
    2n+4 (b_n depends on x only through x(x+1)), is formed at x = 0 .. n+2."""
    build = build_lhs if family == "lhs" else build_rhs
    table = build(n_max, n_max + 1)
    cases = []
    for n in range(n_max - 1):
        ok = not any(_residual(table, n, n + 3))
        witness = None
        if not ok:  # the witness reads the residual at x = 0 .. 2n+4
            residual = _residual(build(n + 2, 2 * n + 5), n, 2 * n + 5)
            witness = f"residual {poly_text(coefficients(residual))}"
        cases.append(make_case((("family", family), ("n", n)), ok, witness))
    return cases


# -- Chu-Vandermonde convolution --------------------------------------------

def chu_row(k_max: int) -> list[CaseResult]:
    """sum_j C(-x-1,j) C(x,k-j) collapses to the constant (-1)^k, for
    k = 0 .. k_max.

    The sum is symmetric of degree at most k, so it is compared at
    x = 0 .. k//2: the m = 1 power sums at each x <= k_max//2 are built
    once, and cell k reads them at x = 0 .. k//2, so at x only the
    entries k >= 2x are computed.
    """
    sums = [power_sums(1, x, k_max + 1, 2 * x) for x in range(k_max // 2 + 1)]
    cases = []
    for k in range(k_max + 1):
        expected = (-1) ** k
        ok = all(sums[x][k] == expected for x in range(k // 2 + 1))
        witness = None
        if not ok:  # the witness reads the sum at x = 0 .. k
            values = [power_sums(1, x, k + 1)[k] for x in range(k + 1)]
            witness = f"sum is {poly_text(coefficients(values))}, expected {expected}"
        cases.append(make_case((("k", k),), ok, witness))
    return cases


# -- telescoping sum ---------------------------------------------------------

def telescope_row(n_max: int) -> list[CaseResult]:
    """sum_{m=k}^{n-1} (2m+1) C(m+k,2k) C(2k,k) = n C(n,k+1) C(n+k,k), for
    n = 1 .. n_max and k < n, in key order.

    The left side of cell (n, k) is entry n-k-1 of the l = 1, eps = 1
    `odd_power_sums` column C(m+k,2k), m >= k, times C(2k,k); the right
    side is the closed form at (n, k).  The key pairs ("n", n) and
    ("k", k) are built once each.
    """
    columns = [
        odd_power_sums(1, 1, [binom_int(m + k, 2 * k) for m in range(k, n_max)], first=k)[0]
        for k in range(n_max)
    ]
    centrals = [binom_int(2 * k, k) for k in range(n_max)]
    k_pairs = [("k", k) for k in range(n_max)]
    cases = []
    for n in range(1, n_max + 1):
        n_pair = ("n", n)
        for k in range(n):
            lhs = columns[k][n - k - 1] * centrals[k]
            rhs = n * binom_int(n, k + 1) * binom_int(n + k, k)
            ok = lhs == rhs
            cases.append(make_case((n_pair, k_pairs[k]), ok, None if ok else f"{lhs} != {rhs}"))
    return cases


# -- rational-value identities at half-integer points ------------------------

def _rational_point_lhs(p1: int, p2: int, q: int, scale: int, n_max: int) -> list[tuple[int, int]]:
    """scale^n sum_k C(p1/q,k)^2 C(p2/q,n-k)^2 as an integer pair (N, D),
    equal to N / D, with D = (q^n n!)^2, for n = 0 .. n_max (entry n).

    C(p/q, k) = a_k / (q^k k!) with a_k = p(p-q)...(p-(k-1)q), so each
    product C(p1/q,k) C(p2/q,n-k) is C(n,k) a_k b_(n-k) / (q^n n!); the
    a_k and b_k are formed once for every n.
    """
    a, b = (list(accumulate(range(p, p - n_max * q, -q), mul, initial=1)) for p in (p1, p2))
    return [
        (scale ** n * sum((math.comb(n, k) * a[k] * b[n - k]) ** 2 for k in range(n + 1)),
         (q ** n * math.factorial(n)) ** 2)
        for n in range(n_max + 1)
    ]


def _rational_point_row(
    p1: int, p2: int, q: int, scale: int, n_max: int, term: Callable[[int, int], int]
) -> list[CaseResult]:
    """Cell n, for n = 0 .. n_max, compares the pair (N, D) of
    `_rational_point_lhs` with rhs = sum_{k<=n} term(n, k) and passes
    when N == rhs D; only a failing cell forms N / D."""
    cases = []
    for n, (num, den) in enumerate(_rational_point_lhs(p1, p2, q, scale, n_max)):
        rhs = sum(term(n, k) for k in range(n + 1))
        ok = num == rhs * den
        cases.append(make_case((("n", n),), ok, None if ok else f"{fraction(num, den)} != {rhs}"))
    return cases


def sun_one_row(n_max: int) -> list[CaseResult]:
    """16^n sum C(-1/2,k)^2 C(-1/2,n-k)^2 = sum C(2k,k)^3 C(k,n-k) (-16)^(n-k),
    for n = 0 .. n_max; C(2k,k)^3 is formed once for every n."""
    cubes = [binom_int(2 * k, k) ** 3 for k in range(n_max + 1)]
    return _rational_point_row(
        -1, -1, 2, 16, n_max, lambda n, k: cubes[k] * binom_int(k, n - k) * (-16) ** (n - k)
    )


def sun_two_row(n_max: int) -> list[CaseResult]:
    """64^n sum C(-1/4,k)^2 C(-3/4,n-k)^2 = sum C(2k,k)^3 C(2n-2k,n-k) 16^(n-k),
    for n = 0 .. n_max; C(2k,k) is formed once for every n."""
    central = [binom_int(2 * k, k) for k in range(n_max + 1)]
    return _rational_point_row(
        -1, -3, 4, 64, n_max, lambda n, k: central[k] ** 3 * central[n - k] * 16 ** (n - k)
    )
