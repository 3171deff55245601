"""The binomial-sum identity family: builders and one row function per
claim, each deciding its grid cells exactly.  A row function takes its
own arguments, and the task table in `cli` calls it.

The central object is the degree-2n polynomial

    S_n(x) = sum_{k=0}^n C(-x-1,k)^2 C(x,n-k)^2
           = sum_{k=0}^n C(n+k,2k) C(2k,k)^2 C(x+k,2k).

`build_lhs` and `build_rhs` evaluate the two closed forms independently
at x = 0, 1, ..., as one table S_0 .. S_n per call; nothing is cached.
A table holds the points its readers decide on: every entry at the
same x, or entry n of S_0 .. S_{n_max} at x = 0 .. min(n+2, n_max)
(`ragged_points`), the points transform and recurrence read.
`power_sums` builds sum_j C(-x-1,j)^m C(x,k-j)^m at one integer x for
every k at once: the Chu-Vandermonde sums at m = 1, the left table at
m = 2.  `in_central_basis` evaluates sums in the basis C(x+k,2k): the
right table, and the Catalan form in `congruences`.  Both read every
binomial they read before, then drop the zeros that end each list of
them (C(x,j) = 0 for j > x >= 0, C(x+k,2k) = 0 for k > x), so a sum
runs over its nonzero terms only, and a binomial that is wrongly
nonzero still counts.
`odd_weights` forms the weights of the weighted running sum
sum_{k<n} eps^k (2k+1)^(2l-1) X_k of every prefix-sum row, here and in
`congruences`.  `odd_power_sums` sums columns that all start at k = 0;
`staggered_sums` sums column k from weight k on, which is how the
telescope's left side here, and conjecture-final and lemma-schmidt in
`congruences`, read the columns C(m+k,2k) of `central_columns`.  Tables
that several rows read arrive as arguments: `cli` builds them once per
run.
Every polynomial claim here is symmetric about x = -1/2, so by the
symmetric rule of `values` it is decided at x = 0 .. d only: S_n at
x = 0 .. n, the order-2 recurrence's residual at x = 0 .. n+2, the
Chu-Vandermonde sum at x = 0 .. k//2.  A row returns one block
(`report.row_cases`), its cells decided from its tables first; the
witness of a failing cell reads the values that decided it and names
the first of those points where they disagree (`values.first_difference`).
The module also checks a telescoping sum of odd-weighted binomials
(one row, one running sum per column k, against the closed form that
`telescope_rhs` forms by running products) and two rational-value
identities at x = -1/2 and x = -1/4, -3/4, one row over n each, decided
on integers: with C(p/q, k) = p(p-q)...(p-(k-1)q) / (q^k k!), the
scaled left side is a fraction N / D of integers, and a cell passes
when N = rhs D.

All checks are exact and run on `int`; a failure carries a witness
(the first decided point where the values differ, and the values
there, or the two unequal values), and only a witness uses `Fraction`.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import eq, mul, neg
from typing import Optional, Sequence

from .combinat import binom_int
from .report import Block, row_cases
from .values import first_difference, fraction

__all__ = [
    "build_lhs",
    "build_rhs",
    "ragged_points",
    "power_sums",
    "in_central_basis",
    "odd_weights",
    "odd_power_sums",
    "staggered_sums",
    "central_columns",
    "triangle",
    "telescope_rhs",
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

def _trimmed(values: list[int]) -> list[int]:
    """values without the zeros that end it: terms a sum may skip."""
    end = len(values)
    while end and not values[end - 1]:
        end -= 1
    return values[:end]


def power_sums(m: int, x0: int, count: int, first: int = 0) -> list[Optional[int]]:
    """P_k(x0) = sum_j C(-x0-1,j)^m C(x0,k-j)^m at the integer point x0,
    entry k for k = 0 .. count-1; the entries k < first are None, not
    computed.  Every binomial j < count is read, and each side drops its
    trailing zeros (C(x0,j) = 0 for j > x0 >= 0, C(-x0-1,j) = 0 for
    j > -x0-1 >= 0), so entry k sums only the terms whose two factors
    both survive."""
    left = _trimmed([binom_int(-x0 - 1, j) ** m for j in range(count)])
    rev = _trimmed([binom_int(x0, j) ** m for j in range(count)])[::-1]
    # Entry k pairs left[j] with right[k-j] = rev[len(rev)-1-k+j], from
    # j = max(0, k+1-len(rev)) on; `map` stops where either side ends.
    # Two ranges, so that for each k only one side is sliced (copied).
    size = len(rev)
    split = max(first, size)
    return ([None] * min(first, count)
            + [sum(map(mul, left, rev[size - 1 - k:])) for k in range(first, split)]
            + [sum(map(mul, left[k + 1 - size:k + 1], rev)) for k in range(split, count)])


def _per_entry(points: int | Sequence[int], entries: int) -> list[int]:
    """The point count of each of `entries` table entries: `points` when
    it is a count per entry, one int `points` for every entry."""
    return [points] * entries if isinstance(points, int) else list(points)


def in_central_basis(
    weights: list[list[int]], points: int | Sequence[int]
) -> list[tuple[int, ...]]:
    """sum_k w[k] C(x+k,2k) for each (ragged) weight list w, at x = 0 ..
    points-1, or with `points` a count per weight list, at x = 0 ..
    points[i]-1 for weight list i.  Every C(x+k,2k), k < the longest
    list, is read at each x, and the zeros C(x+k,2k) = 0 for k > x that
    end a row are dropped before it is summed."""
    counts = _per_entry(points, len(weights))
    size = max(map(len, weights), default=0)
    basis = [_trimmed([binom_int(x + k, 2 * k) for k in range(size)])
             for x in range(max(counts, default=0))]
    return [tuple(sum(map(mul, w, row)) for row in basis[:count])
            for w, count in zip(weights, counts)]


def odd_weights(l: int, eps: int, stop: int) -> list[int]:
    """eps^k (2k+1)^(2l-1) for k = 0 .. stop-1."""
    if l < 1 or eps not in (1, -1):
        raise ValueError(f"odd_weights: need l >= 1 and eps = +1 or -1, got l={l}, eps={eps}")
    weights = [(2 * k + 1) ** (2 * l - 1) for k in range(stop)]
    if eps == -1:
        weights[1::2] = map(neg, weights[1::2])
    return weights


def odd_power_sums(l: int, eps: int, *columns) -> list[list[int]]:
    """sum_{k=0}^{n-1} eps^k (2k+1)^(2l-1) X_k for n = 1, ... (entry n-1),
    for each column X_0, X_1, ... of ints; the weights are formed once
    for all columns."""
    weights = odd_weights(l, eps, max(map(len, columns), default=0))
    return [list(accumulate(map(mul, weights, column))) for column in columns]


def staggered_sums(weights: list[int], columns: list[list[int]]) -> list[list[int]]:
    """sum_{m=k}^{n-1} weights[m] X_m for n = k+1, ... (entry n-k-1), for
    each column k = 0, 1, ... of ints X_k, X_k+1, ...: column k is summed
    from weight k on, so one list of `odd_weights` serves every column."""
    return [list(accumulate(map(mul, weights[k:], column))) for k, column in enumerate(columns)]


def central_columns(n_max: int) -> tuple[list[list[int]], list[int]]:
    """(columns, centrals) for k = 0 .. n_max-1: column k holds C(m+k,2k)
    for m = k .. n_max-1, and centrals[k] is C(2k,k).  The telescope's
    left side sums them, and so do conjecture-final, q-specialize and
    lemma-schmidt (as C(k+j,2j), k >= j) in `congruences`."""
    columns = [[binom_int(m + k, 2 * k) for m in range(k, n_max)] for k in range(n_max)]
    return columns, [binom_int(2 * k, k) for k in range(n_max)]


def triangle(n_max: int) -> tuple[list[int], list[int]]:
    """The key columns n, k of the cells n = 1 .. n_max, k < n, in key order."""
    ns = range(1, n_max + 1)
    return list(chain.from_iterable(map(repeat, ns, ns))), list(chain.from_iterable(map(range, ns)))


def ragged_points(n_max: int) -> tuple[int, ...]:
    """min(n+3, n_max+1) for n = 0 .. n_max: the point counts of the S
    tables that transform and recurrence read, entry n at x = 0 ..
    min(n+2, n_max), as the recurrence's cell n reads S_n at x <= n+2
    and transform's at x <= n."""
    return tuple(min(n + 3, n_max + 1) for n in range(n_max + 1))


def build_lhs(n_max: int, points: int | Sequence[int]) -> list[tuple[int, ...]]:
    """S_0 .. S_{n_max}, each at x = 0 .. points-1, or with `points` a
    count per entry, entry n at x = 0 .. points[n]-1, from the left
    closed form sum_{k=0}^n C(-x-1,k)^2 C(x,n-k)^2: the m = 2 power sums
    at each x, from the first entry that holds x on."""
    if n_max < 0:
        raise ValueError(f"build_lhs: n_max must be >= 0, got {n_max}")
    counts = _per_entry(points, n_max + 1)
    sums = [power_sums(2, x, n_max + 1, next(n for n, c in enumerate(counts) if c > x))
            for x in range(max(counts))]
    return [tuple(row[n] for row in sums[:count]) for n, count in enumerate(counts)]


def build_rhs(n_max: int, points: int | Sequence[int]) -> list[tuple[int, ...]]:
    """S_0 .. S_{n_max}, each at x = 0 .. points-1, or with `points` a
    count per entry, entry n at x = 0 .. points[n]-1, from the right
    closed form sum_{k=0}^n C(n+k,2k) C(2k,k)^2 C(x+k,2k)."""
    if n_max < 0:
        raise ValueError(f"build_rhs: n_max must be >= 0, got {n_max}")
    return in_central_basis([
        [binom_int(n + k, 2 * k) * binom_int(2 * k, k) ** 2 for k in range(n + 1)]
        for n in range(n_max + 1)
    ], points)


def transform_row(lhs: list[tuple[int, ...]], rhs: list[tuple[int, ...]]) -> Block:
    """Both closed forms of S_n agree, for n = 0 .. n_max: cell n compares
    the first n+1 values of entry n of the tables lhs and rhs of
    `recurrence_row`, or of any wider ones.  The witness of a failing
    cell n gives both forms at the first of those x where they differ."""
    ns = list(range(len(lhs)))

    def witness(n):
        x = first_difference(lhs[n][: n + 1], rhs[n][: n + 1])
        return f"S_{n}({x}): lhs {lhs[n][x]} vs rhs {rhs[n][x]}"

    return row_cases(("n",), [ns], [lhs[n][: n + 1] == rhs[n][: n + 1] for n in ns], witness)


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


_BASE_CASES = [[1], [1, 2, 2]]  # S_0 and S_1, little-endian in x


def recurrence_base_row(lhs: list[tuple[int, ...]], rhs: list[tuple[int, ...]]) -> Block:
    """Both closed forms give the base cases S_0 = 1 and S_1 = 2x^2+2x+1
    that start the order-2 recurrence, compared at x = 0 .. n: the first
    n+1 values of entry n of the tables lhs and rhs of `recurrence_row`.
    The witness of a failing cell n gives the three values at the first
    of those x where they do not all agree."""
    expected = [tuple(sum(c * x ** i for i, c in enumerate(base)) for x in range(n + 1))
                for n, base in enumerate(_BASE_CASES)]
    sides = [(lhs[n][: n + 1], rhs[n][: n + 1], values) for n, values in enumerate(expected)]

    def witness(n):
        x = first_difference(*sides[n])
        return "S_{}({}): lhs {}, rhs {}, expected {}".format(n, x, *(v[x] for v in sides[n]))

    return row_cases(("family", "n"), [["base", "base"], [0, 1]],
                     [a == b == c for a, b, c in sides], witness)


def _residual(table: list[tuple[int, ...]], n: int, points: int) -> list[int]:
    """a_n S_{n+2} - b_n S_{n+1} + c_n S_n at x = 0 .. points-1, from `table`."""
    coeffs = (recurrence_coefficients(n, x) for x in range(points))
    return [a * table[n + 2][x] - b * table[n + 1][x] + c * table[n][x]
            for x, (a, b, c) in enumerate(coeffs)]


def recurrence_row(family: str, table: list[tuple[int, ...]]) -> Block:
    """The closed form `family` ("lhs" or "rhs") satisfies the order-2
    recurrence: `table` is its S_0 .. S_{n_max}, entry n at x = 0 ..
    min(n+2, n_max) at least (`ragged_points`), and, at each
    n <= n_max - 2, the residual, symmetric of degree at most 2n+4
    (b_n depends on x only through x(x+1)), is formed at x = 0 .. n+2.
    The witness of a failing cell n gives it at the first of those x
    where it is not zero."""
    ns = list(range(len(table) - 2))

    def witness(n):
        residual = _residual(table, n, n + 3)
        x = first_difference(residual, repeat(0))
        return f"residual at x={x} is {residual[x]}"

    return row_cases(("family", "n"), [[family] * len(ns), ns],
                     [not any(_residual(table, n, n + 3)) for n in ns], witness)


# -- Chu-Vandermonde convolution --------------------------------------------

def chu_row(k_max: int) -> Block:
    """sum_j C(-x-1,j) C(x,k-j) collapses to the constant (-1)^k, for
    k = 0 .. k_max.

    The sum is symmetric of degree at most k, so it is compared at
    x = 0 .. k//2: the m = 1 power sums at each x <= k_max//2 are built
    once, and cell k reads them at x = 0 .. k//2, so at x only the
    entries k >= 2x are computed.  The witness of a failing cell k gives
    the sum at the first of those x where it is not (-1)^k.
    """
    sums = [power_sums(1, x, k_max + 1, 2 * x) for x in range(k_max // 2 + 1)]
    ks = list(range(k_max + 1))

    def witness(k):
        x = first_difference((s[k] for s in sums[: k // 2 + 1]), repeat((-1) ** k))
        return f"sum at x={x} is {sums[x][k]}, expected {(-1) ** k}"

    return row_cases(
        ("k",), [ks], [all(sums[x][k] == (-1) ** k for x in range(k // 2 + 1)) for k in ks], witness
    )


# -- telescoping sum ---------------------------------------------------------

def telescope_rhs(n: int) -> list[int]:
    """n C(n,k+1) C(n+k,k) for k = 0 .. n-1, by a running product in k
    from n^2 at k = 0: entry k+1 is entry k times (n-k-1)(n+k+1), divided
    exactly by (k+1)(k+2)."""
    forms, t = [], n * n
    for k in range(n):
        forms.append(t)
        t = t * ((n - k - 1) * (n + k + 1)) // ((k + 1) * (k + 2))
    return forms


def telescope_row(table: tuple[list[list[int]], list[int]]) -> Block:
    """sum_{m=k}^{n-1} (2m+1) C(m+k,2k) C(2k,k) = n C(n,k+1) C(n+k,k), for
    n = 1 .. n_max and k < n, in key order.

    table = `central_columns(n_max)`.  The left side of cell (n, k) is
    entry n-k-1 of the l = 1, eps = 1 running sum of column k, times
    C(2k,k); the right side is entry k of `telescope_rhs(n)`.
    """
    columns, centrals = table
    n_max = len(columns)
    sums = staggered_sums(odd_weights(1, 1, n_max), columns)
    ns, ks = triangle(n_max)
    lhs = [sums[k][n - k - 1] * centrals[k] for n, k in zip(ns, ks)]
    rhs = [form for n in range(1, n_max + 1) for form in telescope_rhs(n)]
    return row_cases(("n", "k"), [ns, ks], map(eq, lhs, rhs), lambda i: f"{lhs[i]} != {rhs[i]}")


# -- rational-value identities at half-integer points ------------------------

def _rational_point_lhs(p1: int, p2: int, q: int, scale: int, n_max: int) -> list[tuple[int, int]]:
    """scale^n sum_k C(p1/q,k)^2 C(p2/q,n-k)^2 as an integer pair (N, D),
    equal to N / D, with D = (q^n n!)^2, for n = 0 .. n_max (entry n).

    C(p/q, k) = a_k / (q^k k!) with a_k = p(p-q)...(p-(k-1)q), so each
    product C(p1/q,k) C(p2/q,n-k) is C(n,k) a_k b_(n-k) / (q^n n!).  The
    squares a_k^2 and b_k^2 are formed once for every n, C(n,k) by a
    running product in k (no binomial is read, so the left side stays
    independent of the right side's), and scale^n and D by running
    products in n.
    """
    a, b = ([v * v for v in accumulate(range(p, p - n_max * q, -q), mul, initial=1)]
            for p in (p1, p2))
    pairs, power, den = [], 1, 1
    for n in range(n_max + 1):
        total, c = 0, 1
        for k in range(n + 1):
            total += c * c * a[k] * b[n - k]
            c = c * (n - k) // (k + 1)
        pairs.append((power * total, den))
        power *= scale
        den *= (q * (n + 1)) ** 2
    return pairs


def _rational_point_row(p1: int, p2: int, q: int, scale: int, rhs: list[int]) -> Block:
    """Cell n, for n = 0 .. len(rhs) - 1, compares the pair (N, D) of
    `_rational_point_lhs` with rhs[n] and passes when N == rhs[n] D;
    only a failing cell forms N / D."""
    lhs = _rational_point_lhs(p1, p2, q, scale, len(rhs) - 1)
    return row_cases(
        ("n",), [list(range(len(rhs)))], [num == r * den for (num, den), r in zip(lhs, rhs)],
        lambda n: f"{fraction(*lhs[n])} != {rhs[n]}",
    )


def sun_one_row(n_max: int) -> Block:
    """16^n sum C(-1/2,k)^2 C(-1/2,n-k)^2 = sum C(2k,k)^3 C(k,n-k) (-16)^(n-k),
    for n = 0 .. n_max; C(2k,k)^3 and (-16)^j are formed once for every n."""
    cubes = [binom_int(2 * k, k) ** 3 for k in range(n_max + 1)]
    powers = [(-16) ** j for j in range(n_max + 1)]
    return _rational_point_row(-1, -1, 2, 16, [
        sum(cubes[k] * binom_int(k, n - k) * powers[n - k] for k in range(n + 1))
        for n in range(n_max + 1)
    ])


def sun_two_row(n_max: int) -> Block:
    """64^n sum C(-1/4,k)^2 C(-3/4,n-k)^2 = sum C(2k,k)^3 C(2n-2k,n-k) 16^(n-k),
    for n = 0 .. n_max; C(2k,k)^3 and C(2j,j) 16^j are formed once for
    every n, and the right side is their convolution."""
    central = [binom_int(2 * k, k) for k in range(n_max + 1)]
    cubes = [c ** 3 for c in central]
    tails = [c * 16 ** j for j, c in enumerate(central)]
    return _rational_point_row(-1, -3, 4, 64, [
        sum(map(mul, cubes[: n + 1], tails[n::-1])) for n in range(n_max + 1)
    ])
