"""The binomial-sum identity family: builders and one row (or cell)
function per claim, each deciding its grid cells exactly.  A row
function takes its own arguments, and the task table in `cli` calls it.

The central object is the degree-2n polynomial

    S_n(x) = sum_{k=0}^n C(-x-1,k)^2 C(x,n-k)^2
           = sum_{k=0}^n C(n+k,2k) C(2k,k)^2 C(x+k,2k).

`build_lhs` and `build_rhs` evaluate the two closed forms independently,
by exact integer ratio updates, at the integer points x = 0, 1, ...;
nothing is cached.  `power_sums` builds the convolutions
sum_j C(-x-1,j)^m C(x,k-j)^m at one integer x for every k at once; at
m = 2 they are S_k(x), and at m = 1 they are the Chu-Vandermonde sums.
Every polynomial claim here is decided on integer values: a polynomial
of degree d is zero exactly when it vanishes at d+1 points.  So the
transformation compares 2n+1 values, the order-2 recurrence forms its
residual at 2n+5 points, and the Chu-Vandermonde sum of degree <= k is
compared at k+1 points.
The module also checks a telescoping sum of odd-weighted binomials
(each row over n shares one running sum) and two rational-value
identities at x = -1/2 and x = -1/4, -3/4, decided on integers: with
C(p/q, k) = p(p-q)...(p-(k-1)q) / (q^k k!), the scaled left side is a
fraction N / D of integers, and a cell passes when N = rhs D.

All checks are exact and run on `int`; a failure carries a witness
(the first differing coefficient, the polynomial interpolated from the
failing values, or the two unequal values), and only a witness uses
`Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .combinat import binom_int
from .report import CaseResult, make_case
from .values import coefficients, poly_text

__all__ = [
    "build_lhs",
    "build_rhs",
    "power_sums",
    "coeff_mismatch",
    "transform_case",
    "recurrence_coefficients",
    "recurrence_base_row",
    "recurrence_row",
    "chu_row",
    "telescope_row",
    "sun_one_case",
    "sun_two_case",
]


# -- the two closed forms ----------------------------------------------------

def build_lhs(n: int, points: int) -> tuple[int, ...]:
    """S_n(0), ..., S_n(points-1) from sum_{k=0}^n C(-x-1,k)^2 C(x,n-k)^2, with
    the rows C(r, 0..n), r = -x-1 and x, from C(r, k+1) = C(r, k) (r-k) / (k+1)."""
    if n < 0:
        raise ValueError(f"build_lhs: n must be >= 0, got {n}")
    values = []
    for x in range(points):
        left, right = [1], [1]
        for k in range(n):
            left.append(left[-1] * (-x - 1 - k) // (k + 1))
            right.append(right[-1] * (x - k) // (k + 1))
        values.append(sum((left[k] * right[n - k]) ** 2 for k in range(n + 1)))
    return tuple(values)


def build_rhs(n: int, points: int) -> tuple[int, ...]:
    """S_n(0), ..., S_n(points-1) from sum_{k=0}^n C(n+k,2k) C(2k,k)^2 C(x+k,2k),
    with C(x+k+1,2k+2) = C(x+k,2k) (x+k+1)(x-k) / ((2k+1)(2k+2)) over k."""
    if n < 0:
        raise ValueError(f"build_rhs: n must be >= 0, got {n}")
    weights = [binom_int(n + k, 2 * k) * binom_int(2 * k, k) ** 2 for k in range(n + 1)]
    values = []
    for x in range(points):
        total, c = 0, 1
        for k, w in enumerate(weights):
            total += w * c
            c = c * (x + k + 1) * (x - k) // ((2 * k + 1) * (2 * k + 2))
        values.append(total)
    return tuple(values)


def power_sums(m: int, x0: int, count: int) -> list[int]:
    """P_k(x0) = sum_j C(-x0-1,j)^m C(x0,k-j)^m at the integer point x0,
    for k = 0 .. count-1."""
    left = [binom_int(-x0 - 1, j) ** m for j in range(count)]
    right = [binom_int(x0, j) ** m for j in range(count)]
    return [sum(left[j] * right[k - j] for j in range(k + 1)) for k in range(count)]


def coeff_mismatch(p, q) -> str:
    """Witness for p != q, given as coefficient lists: the first
    coefficient where they differ."""
    for i in range(max(len(p), len(q))):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        if a != b:
            return f"coeff of x^{i}: {a} vs {b}"
    return "polynomials agree"


def transform_case(n: int) -> CaseResult:
    """Both closed forms of S_n agree, compared at their 2n+1 values."""
    lhs, rhs = build_lhs(n, 2 * n + 1), build_rhs(n, 2 * n + 1)
    ok = lhs == rhs
    witness = None if ok else coeff_mismatch(coefficients(lhs), coefficients(rhs))
    return make_case((("n", n),), ok, witness)


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


_BASE_CASES = {0: lambda x: 1, 1: lambda x: 2 * x * x + 2 * x + 1}


def recurrence_base_row() -> list[CaseResult]:
    """Both closed forms give the base cases S_0 = 1 and S_1 = 2x^2+2x+1
    that start the order-2 recurrence."""
    cases = []
    for n, base in _BASE_CASES.items():
        points = 2 * n + 1
        lhs, rhs = build_lhs(n, points), build_rhs(n, points)
        expected = tuple(base(x) for x in range(points))
        ok = lhs == rhs == expected
        witness = None
        if not ok:
            lhs_p, rhs_p, expected_p = (poly_text(coefficients(v)) for v in (lhs, rhs, expected))
            witness = f"S_{n}: lhs {lhs_p}, rhs {rhs_p}, expected {expected_p}"
        cases.append(make_case((("family", "base"), ("n", n)), ok, witness))
    return cases


def recurrence_row(family: str, n_max: int) -> list[CaseResult]:
    """The closed form `family` ("lhs" or "rhs") satisfies the order-2
    recurrence: S_0 .. S_{n_max} are built once and, at each
    n <= n_max - 2, the residual, of degree at most 2n+4, is formed at
    x = 0 .. 2n+4."""
    build = build_lhs if family == "lhs" else build_rhs
    cases = []
    table = [build(j, 2 * n_max + 1) for j in range(n_max + 1)]
    for n in range(n_max - 1):
        residual = []
        for x in range(2 * n + 5):
            a, b, c = recurrence_coefficients(n, x)
            residual.append(a * table[n + 2][x] - b * table[n + 1][x] + c * table[n][x])
        ok = not any(residual)
        witness = None if ok else f"residual {poly_text(coefficients(residual))}"
        cases.append(make_case((("family", family), ("n", n)), ok, witness))
    return cases


# -- Chu-Vandermonde convolution --------------------------------------------

def chu_row(k_max: int) -> list[CaseResult]:
    """sum_j C(-x-1,j) C(x,k-j) collapses to the constant (-1)^k, for
    k = 0 .. k_max.

    The sum has degree at most k, so it is compared at x = 0 .. k: the
    m = 1 power sums at each x <= k_max are built once, and cell k reads
    them at x = 0 .. k.
    """
    sums = [power_sums(1, x, k_max + 1) for x in range(k_max + 1)]
    cases = []
    for k in range(k_max + 1):
        values = [sums[x][k] for x in range(k + 1)]
        expected = (-1) ** k
        ok = all(v == expected for v in values)
        witness = None if ok else f"sum is {poly_text(coefficients(values))}, expected {expected}"
        cases.append(make_case((("k", k),), ok, witness))
    return cases


# -- telescoping sum ---------------------------------------------------------

def telescope_row(k: int, n_max: int) -> list[CaseResult]:
    """sum_{m=k}^{n-1} (2m+1) C(m+k,2k) C(2k,k) = n C(n,k+1) C(n+k,k), for
    n = k+1 .. n_max.

    The left side is one running sum over m; the right side is the
    closed form at each n.
    """
    central = binom_int(2 * k, k)
    lhs = 0
    cases = []
    for n in range(k + 1, n_max + 1):
        m = n - 1
        lhs += (2 * m + 1) * binom_int(m + k, 2 * k) * central
        rhs = n * binom_int(n, k + 1) * binom_int(n + k, k)
        ok = lhs == rhs
        cases.append(make_case((("n", n), ("k", k)), ok, None if ok else f"{lhs} != {rhs}"))
    return cases


# -- rational-value identities at half-integer points ------------------------

def _rational_point_lhs(p1: int, p2: int, q: int, scale: int, n: int) -> tuple[int, int]:
    """scale^n sum_k C(p1/q,k)^2 C(p2/q,n-k)^2 as an integer pair (N, D),
    equal to N / D, with D = (q^n n!)^2.

    C(p/q, k) = a_k / (q^k k!) with a_k = p(p-q)...(p-(k-1)q), so each
    product C(p1/q,k) C(p2/q,n-k) is C(n,k) a_k b_(n-k) / (q^n n!).
    """
    a = list(accumulate(range(p1, p1 - n * q, -q), mul, initial=1))
    b = list(accumulate(range(p2, p2 - n * q, -q), mul, initial=1))
    total = sum((math.comb(n, k) * a[k] * b[n - k]) ** 2 for k in range(n + 1))
    return scale ** n * total, (q ** n * math.factorial(n)) ** 2


def sun_one_case(n: int) -> CaseResult:
    """16^n sum C(-1/2,k)^2 C(-1/2,n-k)^2 = sum C(2k,k)^3 C(k,n-k) (-16)^(n-k).

    The left side is the integer fraction N / D of `_rational_point_lhs`,
    so the cell passes when N == rhs D; only a failing cell forms N / D.
    """
    rhs = sum(
        binom_int(2 * k, k) ** 3 * binom_int(k, n - k) * (-16) ** (n - k)
        for k in range(n + 1)
    )
    num, den = _rational_point_lhs(-1, -1, 2, 16, n)
    ok = num == rhs * den
    return make_case((("n", n),), ok, None if ok else f"{Fraction(num, den)} != {rhs}")


def sun_two_case(n: int) -> CaseResult:
    """64^n sum C(-1/4,k)^2 C(-3/4,n-k)^2 = sum C(2k,k)^3 C(2n-2k,n-k) 16^(n-k)."""
    rhs = sum(
        binom_int(2 * k, k) ** 3 * binom_int(2 * (n - k), n - k) * 16 ** (n - k)
        for k in range(n + 1)
    )
    num, den = _rational_point_lhs(-1, -3, 4, 64, n)
    ok = num == rhs * den
    return make_case((("n", n),), ok, None if ok else f"{Fraction(num, den)} != {rhs}")
