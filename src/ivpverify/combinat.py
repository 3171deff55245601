"""Exact scalar combinatorics: binomial coefficients (for a rational
upper argument, a whole row C(r, 0..k) at once), double factorials,
Catalan numbers.

Everything runs on Python's arbitrary-precision integers and
`fractions.Fraction`; there are no floating-point code paths anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["binom_int", "binom_rat_row", "double_factorial_odd", "catalan"]


def binom_int(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integer n and k >= 0.

    The upper argument may be negative, following the generalized
    definition C(n, k) = n(n-1)...(n-k+1) / k!; in particular
    C(-1, k) = (-1)**k and C(-n, k) = (-1)**k * C(n+k-1, k).

    Negative k is a hard error: the call sites never index below zero,
    and a silent zero would mask bugs.
    """
    if k < 0:
        raise ValueError(f"binom_int: k must be >= 0, got {k}")
    if n >= 0:
        return math.comb(n, k)
    sign = -1 if k % 2 else 1
    return sign * math.comb(k - n - 1, k)


def binom_rat_row(r: Fraction | int, k_max: int) -> list[Fraction]:
    """[C(r, 0), ..., C(r, k_max)] for rational r = p/q, in one pass.

    Each entry follows from the one before by the exact ratio update
    C(r, k+1) = C(r, k) (p - kq) / (q (k+1)), kept as an integer
    numerator and denominator, so the row costs k_max updates; for
    integer r it agrees with :func:`binom_int`.
    """
    if k_max < 0:
        raise ValueError(f"binom_rat_row: k_max must be >= 0, got {k_max}")
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    num = den = 1
    row = [Fraction(1)]
    for k in range(k_max):
        num *= p - k * q
        den *= q * (k + 1)
        row.append(Fraction(num, den))
    return row


def double_factorial_odd(l: int) -> int:
    """(2l-1)!! = 1 * 3 * 5 * ... * (2l-1), for l >= 1."""
    if l < 1:
        raise ValueError(f"double_factorial_odd: l must be >= 1, got {l}")
    return math.prod(range(1, 2 * l, 2))


def catalan(k: int) -> int:
    """The k-th Catalan number C(2k, k) / (k + 1), exactly.

    The division is checked to be exact and the result is cross-checked
    against the difference form C(2k, k) - C(2k, k-1), with the k = 0
    convention C(0, -1) = 0.
    """
    if k < 0:
        raise ValueError(f"catalan: k must be >= 0, got {k}")
    central = math.comb(2 * k, k)
    value, rem = divmod(central, k + 1)
    if rem:
        raise ArithmeticError(f"C({2 * k},{k}) not divisible by {k + 1}")
    if value != central - (math.comb(2 * k, k - 1) if k else 0):
        raise ArithmeticError(f"catalan({k}) disagrees with the difference form")
    return value
