"""Polynomials of known degree held as their integer values at x = 0, 1, ...

A polynomial of degree at most d is fixed by its values at x = 0 .. d.
Its coefficients in the binomial basis C(x,0), C(x,1), ... are the
forward differences of those values at 0 (Newton's forward formula),
and p/m maps every integer to an integer exactly when each of them is
a multiple of m (Polya's criterion; Cahen-Chabert, *Integer-Valued
Polynomials*, 1997, ch. I).

The symmetric rule.  Every polynomial claimed about S_n(x) is symmetric,
p(-1-x) = p(x), so one of degree at most 2d is sum_{k<=d} c_k C(x+k,2k);
as C(x+k,2k) = 0 for 0 <= x < k and C(2k,2k) = 1, its values at
x = 0 .. d fix c_0 .. c_d unitriangularly over the integers.  So p is
zero exactly when p(0..d) = 0, and p/m is integer-valued exactly when m
divides p(0), ..., p(d); the first x >= 0 with p(x) % m is then <= d.
Every verdict runs on exact integers at these d+1 points.

Monomial coefficients, as `Fraction`s, are recovered by Newton
interpolation from the values at x = 0 .. 2d only to write the witness
of a failing cell; `terms_text` writes them, and the q side's Laurent
polynomials, as text.  Only a witness needs a `Fraction`, so
`fractions` is imported when `coefficients` or `fraction` first runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["forward_differences", "coefficients", "fraction", "terms_text", "poly_text"]


def forward_differences(values: Sequence) -> list:
    """[D^0 p(0), D^1 p(0), ...] from p(0), p(1), ..., the binomial-basis
    coefficients of the polynomial through those values, for `coefficients`."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def coefficients(values: Sequence) -> list[Fraction]:
    """Monomial coefficients, little-endian with trailing zeros trimmed, of
    the polynomial of degree < len(values) taking values[x] at x."""
    from fractions import Fraction

    coeffs = [Fraction(0)] * len(values)
    falling = [1]  # x(x-1)...(x-i+1), little-endian
    for i, d in enumerate(forward_differences(values)):
        scale = Fraction(d, math.factorial(i))
        for j, c in enumerate(falling):
            coeffs[j] += scale * c
        falling = [a - i * b for a, b in zip([0] + falling, falling + [0])]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def fraction(num, den) -> Fraction:
    """num / den in lowest terms, for a witness's text."""
    from fractions import Fraction

    return Fraction(num, den)


def terms_text(terms: Iterable[tuple[int, Fraction | int]], var: str) -> str:
    """(exponent, coefficient) pairs, in writing order, as a sum in var
    without its zero terms, such as '2*x^2 - x + 1/2'; "0" when every
    coefficient is zero."""
    parts = []
    for e, c in terms:
        if not c:
            continue
        if e == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" if e == 1 else f"{mag}{var}^{e}"
        parts.append(("- " if c < 0 else "+ ") + term)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_text(coeffs: Sequence[Fraction]) -> str:
    """Little-endian coefficients in x, highest power first."""
    return terms_text(reversed(list(enumerate(coeffs))), "x")
