"""Integer Laurent polynomials in q, with q-integers, q-binomials, and
the congruence family modulo the squared q-integer: the q-sum row
builder and the row functions of q-sun and q-specialize.

Everything rests on one linear-time pair: multiplying by 1 - q^j,
and dividing by it with the recurrence h_i = f_i + h_(i-j), which is
exact when its last j entries are zero.  A q-binomial is the product
formula prod_i (1 - q^(n-k+i)) / (1 - q^i), and a q-sum row steps
[m+k choose 2k] and [2m+1] along m by the same ratios.

q-sun never forms the product A [2k choose k]^2 of a cell.  Since
[n]^2 (1 - q)^2 = (1 - q^n)^2, the remainder of a polynomial on
division by [n]^2 is the remainder of its residue modulo
(1 - q^n)^2, so each factor is reduced to 2n coefficients, the
residues are multiplied and reduced again, and two steps of division
by the monic [n]^2 leave the remainder: zero decides the cell, and a
nonzero one is its witness.  Products are schoolbook.  The general
`laurent_divisible` (long division in the Laurent ring) is the
reference the tests check this against.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

from .congruences import conjecture_final_values
from .report import CaseResult, make_case

__all__ = [
    "LaurentPoly",
    "q_integer",
    "q_binom",
    "laurent_divisible",
    "remainder_by_q_integer_squared",
    "q_sun_sums",
    "q_sun_row",
    "q_specialize_row",
]


class LaurentPoly:
    """Immutable polynomial in q with integer coefficients and possibly
    negative exponents.

    coeffs[i] is the coefficient of q**(min_exp + i); both ends are kept
    trimmed, and the zero polynomial is the empty tuple with min_exp 0.
    """

    __slots__ = ("min_exp", "coeffs")

    min_exp: int
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = (), min_exp: int = 0):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"LaurentPoly coefficients must be int, got {type(c)}")
        while cs and cs[-1] == 0:
            cs.pop()
        drop = 0
        while drop < len(cs) and cs[drop] == 0:
            drop += 1
        cs = cs[drop:]
        min_exp = min_exp + drop if cs else 0
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def max_exp(self) -> int:
        """Largest exponent with nonzero coefficient (min_exp - 1 if zero)."""
        return self.min_exp + len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.min_exp == other.min_exp and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == LaurentPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash((self.min_exp, self.coeffs))

    # -- ring operations ----------------------------------------------------

    def shift(self, s: int) -> "LaurentPoly":
        """Multiply by q**s."""
        if self.is_zero:
            return self
        return LaurentPoly(self.coeffs, self.min_exp + s)

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly([other])
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return LaurentPoly(out, lo)

    __radd__ = __add__

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly([c * other for c in self.coeffs], self.min_exp)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(_product(self.coeffs, other.coeffs), self.min_exp + other.min_exp)

    __rmul__ = __mul__

    def eval_at_one(self) -> int:
        """Specialize q = 1: simply the sum of the coefficients."""
        return sum(self.coeffs)

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.min_exp + i
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}q" if e == 1 else f"{mag}q^{e}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two coefficient lists (schoolbook:
    one shifted copy of b per coefficient of a)."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            window = slice(i, i + len(b))
            out[window] = map(add, out[window], [x * y for y in b])
    return out


def q_integer(n: int) -> LaurentPoly:
    """[n] = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError(f"q_integer: n must be >= 1, got {n}")
    return LaurentPoly([1] * n)


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


def q_binom(n: int, k: int) -> LaurentPoly:
    """The Gaussian coefficient [n choose k] = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i);
    zero polynomial when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"q_binom: need n, k >= 0, got {n}, {k}")
    if k > n:
        return LaurentPoly()
    k = min(k, n - k)
    coeffs = [1]
    for i in range(1, k + 1):
        coeffs = _ratio_step(coeffs, n - k + i, i)
    return LaurentPoly(coeffs)


def laurent_divisible(f: LaurentPoly, g: LaurentPoly) -> tuple[bool, LaurentPoly]:
    """Decide whether f = g*h for some integer-coefficient Laurent h.

    Returns (True, quotient) or (False, obstruction), where the
    obstruction is the nonzero partial remainder at which integer long
    division stopped: either a term whose coefficient the divisor's
    leading coefficient does not divide, or a nonzero tail of degree
    below deg g.

    Writing f = q^a F and g = q^b G with F, G having nonzero constant
    terms, any Laurent cofactor h with Gh = F must itself be a genuine
    polynomial (a negative shift in h would force a zero constant term
    on one side), so dividing F by G over the integers is a complete
    decision procedure; the Laurent quotient is the polynomial quotient
    shifted by q^(a-b).
    """
    if g.is_zero:
        raise ValueError("laurent_divisible: divisor must be nonzero")
    if f.is_zero:
        return True, LaurentPoly()
    rem = list(f.coeffs)
    div = g.coeffs
    lead = div[-1]
    span = len(rem) - len(div) + 1
    if span <= 0:
        return False, f
    quot = [0] * span
    for i in range(span - 1, -1, -1):
        c = rem[i + len(div) - 1]
        if not c:
            continue
        step, leftover = divmod(c, lead)
        if leftover:
            return False, LaurentPoly(rem, f.min_exp)
        quot[i] = step
        for j, d in enumerate(div):
            rem[i + j] -= step * d
    if any(rem):
        return False, LaurentPoly(rem, f.min_exp)
    return True, LaurentPoly(quot, f.min_exp - g.min_exp)


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


def remainder_by_q_integer_squared(a: LaurentPoly, c: LaurentPoly, n: int) -> LaurentPoly:
    """The remainder of a c^2 on division by [n]^2, shifted as
    `laurent_divisible` leaves it: zero exactly when [n]^2 divides a c^2.
    Works on residues modulo (1 - q^n)^2 = [n]^2 (1 - q)^2 and never
    forms a c^2."""
    c_mod = _residue(c.coeffs, n)
    rem = _residue(_product(_residue(a.coeffs, n), _residue(_product(c_mod, c_mod), n)), n)
    square = [*range(1, n + 1), *range(n - 1, 0, -1)]  # [n]^2, monic of degree 2n - 2
    for i in (1, 0):  # the quotient of a residue has degree at most 1
        step = rem[i + 2 * n - 2]
        window = slice(i, i + 2 * n - 1)
        rem[window] = map(sub, rem[window], [step * d for d in square])
    return LaurentPoly(rem, a.min_exp + 2 * c.min_exp)


def q_sun_sums(k: int, n_max: int) -> list[LaurentPoly]:
    """The q-sums A_n = sum_{m=k}^{n-1} [2m+1] [m+k choose 2k] q^(-(k+1)m)
    for n = k+1 .. n_max, from one running sum over m.  q-sun's claim
    is that [n]^2 divides A_n [2k choose k]^2."""
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
        sums.append(LaurentPoly(total[window], -(k + 1) * m))
    return sums


def q_sun_row(key: tuple[int, int]) -> list[CaseResult]:
    """[n]^2 divides the q-sum A_n [2k choose k]^2, for the row key
    (k, n_max) over n = k+1 .. n_max."""
    k, n_max = key
    central = q_binom(2 * k, k)
    cases = []
    for n, a in enumerate(q_sun_sums(k, n_max), k + 1):
        remainder = remainder_by_q_integer_squared(a, central, n)
        witness = f"remainder {remainder} after division by [{n}]^2" if remainder else None
        cases.append(make_case((("n", n), ("k", k)), not remainder, witness))
    return cases


def q_specialize_row(key: tuple[int, int]) -> list[CaseResult]:
    """Setting q = 1 in the q-sum A_n [2k choose k]^2 reproduces the
    classical weighted sum sum_m (2m+1) C(m+k,2k) C(2k,k)^2, for the row
    key (k, n_max) over n = k+1 .. n_max; the classical sums are the
    l = 1 running sums of conjecture-final."""
    k, n_max = key
    central_sq = q_binom(2 * k, k).eval_at_one() ** 2
    cases = []
    pairs = zip(q_sun_sums(k, n_max), conjecture_final_values(1, k, n_max))
    for n, (a, classical) in enumerate(pairs, k + 1):
        at_one = a.eval_at_one() * central_sq
        ok = at_one == classical
        witness = None if ok else f"q=1 value {at_one} != classical sum {classical}"
        cases.append(make_case((("n", n), ("k", k)), ok, witness))
    return cases
