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

A witness reads the values its verdict read: a failing identity names
`first_difference`, the first decided x where its sides' values differ,
and gives them there.  A ratio in a witness's text is one `Fraction`,
from `fraction`, so `fractions` is imported only when a witness first
needs one; `terms_text` writes the q side's Laurent polynomials.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["first_difference", "fraction", "terms_text"]


def first_difference(*sides: Iterable) -> int:
    """The first x at which the value lists `sides`, entry x the value at
    x, do not all agree; the caller's verdict found that they differ
    within the shortest of them."""
    return next(x for x, values in enumerate(zip(*sides)) if len(set(values)) > 1)


def fraction(num, den) -> Fraction:
    """num / den in lowest terms, for a witness's text."""
    from fractions import Fraction

    return Fraction(num, den)


def terms_text(terms: Iterable[tuple[int, int]], var: str) -> str:
    """(exponent, coefficient) pairs, in writing order, as a sum in var
    without its zero terms, such as '2*q^-1 - 3 + q'; "0" when every
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
