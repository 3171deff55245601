"""Polynomials of known degree held as their integer values at x = 0..deg.

A polynomial of degree at most d is fixed by its values at the d+1
points 0, 1, ..., d, so two such polynomials are equal exactly when
those values agree.  Its coefficients in the binomial basis C(x,0),
C(x,1), ... are the forward differences of the values at 0 (Newton's
forward formula), and p/m maps every integer to an integer exactly when
each of them is a multiple of m (Polya's criterion for integer-valued
polynomials; Cahen-Chabert, *Integer-Valued Polynomials*, 1997).  Every
verdict therefore runs on exact integers.

Monomial coefficients, as `Fraction`s, are recovered by Newton
interpolation only to write the witness of a failing cell; `terms_text`
writes them, and the q side's Laurent polynomials, as text.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = [
    "forward_differences",
    "first_non_multiple",
    "coefficients",
    "terms_text",
    "poly_text",
]


def forward_differences(values: Sequence) -> list:
    """[D^0 p(0), D^1 p(0), ...] from p(0), p(1), ..., the binomial-basis
    coefficients of the polynomial through those values."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def first_non_multiple(values: Sequence, m: int) -> Optional[int]:
    """First i whose i-th forward difference at 0 is not a multiple of m.

    None means p/m is integer-valued.  Otherwise p(i)/m is itself not an
    integer: p(i) = sum_{j<=i} C(i,j) D^j p(0), where every term but the
    last is a multiple of m.
    """
    for i, d in enumerate(forward_differences(values)):
        if d % m:
            return i
    return None


def coefficients(values: Sequence) -> list[Fraction]:
    """Monomial coefficients, little-endian with trailing zeros trimmed, of
    the polynomial of degree < len(values) taking values[x] at x."""
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
