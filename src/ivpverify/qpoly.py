"""The q side: the central q-binomials of a run, the q-sum row
builder, and the row functions of q-sun and q-specialize, all on
integer coefficient lists.

A polynomial in q is a list of int coefficients, entry i that of q^i,
and a Laurent polynomial is a pair (low, coeffs) with low the exponent
of coeffs[0].  A witness is written from its list by `_q_text`.

Everything rests on one linear-time pair: multiplying by 1 - q^j,
and dividing by it with the recurrence h_i = f_i + h_(i-j), which is
exact when its last j entries are zero.  A q-binomial is the product
formula prod_i (1 - q^(n-k+i)) / (1 - q^i): `central_q_binomials`
builds [2k choose k] for every k by one running product, two ratio
steps per k, and a q-sum row steps [m+k choose 2k] and [2m+1] along m
by the same ratios.  q-specialize sums [2k choose k] at q = 1.  Both
tasks run one row per k, the q side's unit of parallel work, each in n
order, and `by_n` puts their cells in key order, n then k, by one index
transpose.

q-sun never forms the product A [2k choose k]^2 of a cell.  It
decides each cell from the cyclotomic factors of [n]^2: [n] is the
product of the cyclotomic polynomials Phi_d with d | n, d > 1, and
Phi_d divides [2k choose k] floor(2k/d) - 2 floor(k/d) times, which is
0 or 1.  So [n]^2 divides A [2k choose k]^2 exactly when Phi_d^2
divides A for every d | n, d > 1, with floor(2k/d) = 2 floor(k/d).
Phi_d^2 divides (1 - q^d)^2, so A is reduced to its 2d coefficients
modulo (1 - q^d)^2 and these are divided by the monic Phi_d^2, each d
in increasing order until one leaves a nonzero remainder.  That
remainder, A modulo Phi_d^2, is the witness of a failing cell: with d
dividing n and Phi_d not dividing [2k choose k], it proves on its own
that [n]^2 does not divide A [2k choose k]^2.  Phi_d^2 is the product
of the (1 - q^e)^(2 mu(d/e)) over e | d, by the same pair; each
Phi_d^2, d <= n_max, is built once per run, by `phi_squares`, and
every q-sun row reads it.  General long division in the Laurent ring,
`laurent_divisible` in tests/cell_oracle.py, is the reference the
tests check the verdicts and witnesses against.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, eq, mul, sub
from typing import Optional, Sequence

from .congruences import conjecture_final_values
from .report import Block, row_cases
from .values import terms_text

__all__ = [
    "central_q_binomials",
    "q_sun_sums",
    "phi_squares",
    "q_sun_row",
    "q_specialize_row",
    "by_n",
]


def _times_one_minus(coeffs: Sequence[int], j: int) -> list[int]:
    """Coefficients of f (1 - q^j), j >= 1, for f with these coefficients."""
    out = [*coeffs, *[0] * j]
    out[j:] = map(sub, out[j:], coeffs)
    return out


def _over_one_minus(coeffs: Sequence[int], j: int) -> Optional[list[int]]:
    """Coefficients of f / (1 - q^j), j >= 1, or None when 1 - q^j does not
    divide f.  The quotient satisfies h_i = f_i + h_(i-j), a running sum
    along each residue class of i mod j; the division is exact when the
    last j entries are zero."""
    h = list(coeffs)
    for r in range(min(j, len(h))):
        h[r::j] = accumulate(h[r::j])
    if any(h[-j:]):
        return None
    return h[:-j]


def _ratio_step(coeffs: Sequence[int], up: int, down: int) -> list[int]:
    """f (1 - q^up) / (1 - q^down), one step of a q-binomial product
    formula: every partial product there is a polynomial, so the
    division is exact."""
    quotient = _over_one_minus(_times_one_minus(coeffs, up), down)
    if quotient is None:
        raise ArithmeticError(f"1 - q^{down} does not divide a q-binomial partial product")
    return quotient


def central_q_binomials(n_max: int) -> list[list[int]]:
    """[2k choose k] at entry k, for k < n_max, from one running product:
    [2k+2 choose k+1] = [2k choose k] (1 - q^(2k+1)) (1 - q^(2k+2))
    / (1 - q^(k+1))^2, as [2k+1 choose k+1] and then [2k+2 choose k+1],
    so each division is exact."""
    centrals = [[1]]
    for k in range(n_max - 1):
        half = _ratio_step(centrals[k], 2 * k + 1, k + 1)
        centrals.append(_ratio_step(half, 2 * k + 2, k + 1))
    return centrals[:n_max]


def _residue(coeffs: Sequence[int], n: int) -> list[int]:
    """The 2n coefficients of f modulo (1 - q^n)^2, the same residue as
    folding q^i -> 2 q^(i-n) - q^(i-2n) from the top.  Writing
    f = sum_(r<n) q^r g_r(q^n), each g_r(x) is g_r(1) + g_r'(1) (x - 1)
    modulo (x - 1)^2."""
    value, slope = [], []
    for r in range(n):
        column = coeffs[r::n]
        d = sum(map(mul, range(len(column)), column))
        value.append(sum(column) - d)
        slope.append(d)
    return value + slope


def _mobius(m: int) -> int:
    """The Moebius function mu(m), m >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


def _monic_remainder(coeffs: Sequence[int], divisor: Sequence[int]) -> list[int]:
    """The remainder of f on long division from the top by the monic
    divisor: its len(divisor) - 1 low coefficients."""
    rem = list(coeffs)
    top = len(divisor) - 1
    for i in range(len(rem) - 1, top - 1, -1):
        step = rem[i]
        if step:
            window = slice(i - top, i + 1)
            rem[window] = map(sub, rem[window], [step * c for c in divisor])
    return rem[:top]


def phi_squares(n_max: int) -> list[list[int]]:
    """Phi_d^2 at entry d, for d = 2 .. n_max (entries 0 and 1 are empty):
    every square a q-sun row up to n_max may divide by.  Phi_d^2 is
    prod_{e | d} (1 - q^e)^(2 mu(d/e)): every factor with mu = 1 is
    multiplied in, twice, before any with mu = -1 divides, so each
    division is exact."""
    squares = [[], []]
    for d in range(2, n_max + 1):
        mu = [(e, _mobius(d // e)) for e in range(1, d + 1) if d % e == 0]
        coeffs = [1]
        for e, sign in mu:
            if sign == 1:
                coeffs = _times_one_minus(_times_one_minus(coeffs, e), e)
        for e, sign in mu:
            if sign == -1:
                coeffs = _over_one_minus(_over_one_minus(coeffs, e), e)
        squares.append(coeffs)
    return squares


def _cyclotomic_miss(
    a: Sequence[int], n: int, k: int, squares: list[list[int]]
) -> Optional[tuple[int, list[int]]]:
    """None when [n]^2 divides a [2k choose k]^2, else (d, rem) for the
    first d | n, d > 1, with floor(2k/d) = 2 floor(k/d), in increasing
    order, whose Phi_d^2 leaves the nonzero remainder rem on a.  q is a
    unit modulo Phi_d^2, so the exponent of a's first coefficient does
    not matter.  squares = `phi_squares(m)`, m >= n."""
    for d in range(2, n + 1):
        if n % d == 0 and 2 * k // d == 2 * (k // d):
            rem = _monic_remainder(_residue(a, d), squares[d])
            if any(rem):
                return d, rem
    return None


def q_sun_sums(k: int, n_max: int) -> list[tuple[int, list[int]]]:
    """The q-sums A_n = sum_{m=k}^{n-1} [2m+1] [m+k choose 2k] q^(-(k+1)m)
    for n = k+1 .. n_max, from one running sum over m, each a pair
    (low, coeffs) whose first and last coefficients are 1.  q-sun's
    claim is that [n]^2 divides A_n [2k choose k]^2."""
    if k < 0:
        raise ValueError(f"q_sun_sums: need k >= 0, got {k}")
    # The m-th term spans the exponents -(k+1)m .. (k+1)m - 2k^2, so it
    # covers every earlier term: the partial sum up to m is the window
    # of `total` under the m-th term.
    low = -(k + 1) * (n_max - 1)
    total = [0] * ((k + 1) * (n_max - 1) - 2 * k * k - low + 1)
    binom = [1]  # [m+k choose 2k], from [2k choose 2k] = 1 at m = k
    sums = []
    for m in range(k, n_max):
        if m > k:
            binom = _ratio_step(binom, m + k, m - k)
        term = _ratio_step(binom, 2 * m + 1, 1)  # times [2m+1]
        start = -(k + 1) * m - low
        window = slice(start, start + len(term))
        total[window] = map(add, total[window], term)
        sums.append((-(k + 1) * m, total[window]))
    return sums


def _q_text(coeffs: Sequence[int], low: int) -> str:
    """sum_i coeffs[i] q^(low+i) by increasing exponent, such as
    "2*q^-1 - 3 + q"."""
    return terms_text(enumerate(coeffs, low), "q")


def q_sun_row(k: int, n_max: int, squares: list[list[int]]) -> Block:
    """[n]^2 divides the q-sum A_n [2k choose k]^2, for n = k+1 .. n_max.
    Each cell is decided from the cyclotomic factors of [n]^2, with
    squares = `phi_squares(n_max)`, built once for every row of the run.
    A failing cell's witness is the remainder that decided it, A_n
    modulo the first Phi_d^2 that does not divide it."""
    sums = q_sun_sums(k, n_max)
    ns = list(range(k + 1, n_max + 1))
    misses = [_cyclotomic_miss(a, n, k, squares) for n, (_, a) in zip(ns, sums)]

    def witness(i):
        d, rem = misses[i]
        return f"A_{ns[i]} = {_q_text(rem, sums[i][0])} mod Phi_{d}^2"

    return row_cases(("n", "k"), [ns, [k] * len(ns)], [miss is None for miss in misses], witness)


def q_specialize_row(
    k: int, central: Sequence[int], table: tuple[list[list[int]], list[int]]
) -> Block:
    """Setting q = 1 in the q-sum A_n [2k choose k]^2 reproduces the
    classical weighted sum sum_m (2m+1) C(m+k,2k) C(2k,k)^2, for
    n = k+1 .. n_max.  central is [2k choose k], entry k of
    `central_q_binomials(n_max)`, built once for every row of the run;
    the classical sums are the l = 1 running sums of conjecture-final,
    from table = `identities.central_columns(n_max)`."""
    central_sq = sum(central) ** 2
    at_one = [sum(a) * central_sq for _, a in q_sun_sums(k, len(table[0]))]
    classical = conjecture_final_values(1, k, table)
    ns = list(range(k + 1, k + 1 + len(at_one)))
    return row_cases(
        ("n", "k"), [ns, [k] * len(ns)], map(eq, at_one, classical),
        lambda i: f"q=1 value {at_one[i]} != classical sum {classical[i]}",
    )


def by_n(blocks: list[Block]) -> list[Block]:
    """q-sun's or q-specialize's blocks, row k holding the cells (n, k)
    for n = k+1 .. n_max in n order, as one block in key order: n, then
    k.  Cell (n, k) is cell n - k - 1 of row k, with its key, status and
    witness."""
    cells = [(blocks[k], n - k - 1) for n in range(1, len(blocks) + 1) for k in range(n)]
    columns = [[block.columns[c][i] for block, i in cells] for c in (0, 1)]
    status = bytearray(block.status[i] for block, i in cells)
    witnesses = {j: block.witnesses[i] for j, (block, i) in enumerate(cells) if not status[j]}
    return [Block(("n", "k"), columns, status, witnesses)]
