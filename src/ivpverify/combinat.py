"""Exact scalar combinatorics: binomial coefficients with an integer
upper argument, double factorials, Catalan numbers.

Everything runs on Python's arbitrary-precision integers; there are no
rational or floating-point code paths.
"""

from __future__ import annotations

import math

__all__ = ["binom_int", "double_factorial_odd", "catalan"]


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
