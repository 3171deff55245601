"""Integer Laurent polynomials in q, with q-integers, q-binomials, and
the congruence family modulo the squared q-integer: the q-sum builder,
the cell function of q-sun and the row function of q-specialize.

Products use Kronecker substitution: both coefficient lists are packed
into one big integer each, at a slot width no coefficient of the
product can overflow, so a single integer multiplication (Karatsuba in
CPython) does the whole convolution.

Divisibility of f by [n]^2 is decided in linear time.  Since
[n] (1 - q) = 1 - q^n and Z[q] has no zero divisors, [n] divides f
exactly when 1 - q^n divides f (1 - q), and dividing by 1 - q^n is the
recurrence h_i = g_i + h_(i-n), which succeeds when its last n entries
are zero; q-sun divides by [n] this way twice.  The general `laurent_divisible` (long
division in the Laurent ring) only writes the remainder witness of a
failing cell.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .congruences import conjecture_final_values
from .report import CaseResult, make_case

__all__ = [
    "LaurentPoly",
    "q_integer",
    "q_binom",
    "laurent_divisible",
    "divisible_by_q_integer_squared",
    "q_sun_sum",
    "q_sun_case",
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

    def coeff(self, e: int) -> int:
        i = e - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

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

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly([-c for c in self.coeffs], self.min_exp)

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

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly([other])
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly([c * other for c in self.coeffs], self.min_exp)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        product = _kronecker_mul(self.coeffs, other.coeffs)
        return LaurentPoly(product, self.min_exp + other.min_exp)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "LaurentPoly":
        if exp < 0:
            raise ValueError("LaurentPoly only supports non-negative powers")
        result = LaurentPoly([1])
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

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


def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum_i c_i 2^(8 width i): the positive and the negative coefficients
    are packed separately, each as one run of unsigned slots."""
    value = int.from_bytes(
        b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in coeffs), "little"
    )
    if min(coeffs) < 0:
        value -= int.from_bytes(
            b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in coeffs), "little"
        )
    return value


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two nonempty coefficient lists."""
    # No product coefficient exceeds this in absolute value; one more bit
    # holds the sign, rounded up to whole bytes.
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    size = len(a) + len(b) - 1
    # Adding half a slot to every slot makes each one a nonnegative digit
    # below 2^(8 width), so no borrow crosses a slot boundary.
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    data = (_pack(a, width) * _pack(b, width) + bias).to_bytes(width * size, "little")
    return [
        int.from_bytes(data[i:i + width], "little") - half
        for i in range(0, width * size, width)
    ]


def q_integer(n: int) -> LaurentPoly:
    """[n] = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError(f"q_integer: n must be >= 1, got {n}")
    return LaurentPoly([1] * n)


# The q-Pascal recursion fills every (n, k) with k <= n <= 2 n_max, about
# 2 n_max^2 entries; this bound holds that for n_max up to 90.
@lru_cache(maxsize=1 << 14)
def _q_binom_poly(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial via the q-Pascal rule B(n,k) = B(n-1,k-1) + q^k B(n-1,k)."""
    if k < 0 or k > n:
        return LaurentPoly()
    if k == 0 or k == n:
        return LaurentPoly([1])
    return _q_binom_poly(n - 1, k - 1) + _q_binom_poly(n - 1, k).shift(k)


def q_binom(n: int, k: int) -> LaurentPoly:
    """The Gaussian coefficient [n choose k]; zero polynomial when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"q_binom: need n, k >= 0, got {n}, {k}")
    return _q_binom_poly(n, k)


def laurent_divisible(f: LaurentPoly, g: LaurentPoly) -> tuple[bool, LaurentPoly]:
    """Decide whether f = g*h for some integer-coefficient Laurent h.

    Returns (True, quotient) or (False, obstruction), where the
    obstruction is the nonzero partial remainder at which integer long
    division stopped: either a term whose coefficient the divisor's
    leading coefficient does not divide, or a nonzero tail of degree
    below deg g.  q-sun does not decide with it: it calls it only for a
    cell that `divisible_by_q_integer_squared` failed, to write that
    obstruction as the witness.

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


def _divide_by_q_integer(coeffs: Sequence[int], n: int) -> Optional[list[int]]:
    """Coefficients of f / [n] for f with these coefficients, or None when
    [n] does not divide f: g = f (1 - q) is divided by 1 - q^n."""
    g = [c - prev for c, prev in zip([*coeffs, 0], [0, *coeffs])]
    for i in range(n, len(g)):
        g[i] += g[i - n]
    if any(g[-n:]):
        return None
    return g[:-n]


def divisible_by_q_integer_squared(f: LaurentPoly, n: int) -> bool:
    """Whether [n]^2 divides f, in time linear in the length of f."""
    once = _divide_by_q_integer(f.coeffs, n)
    return once is not None and _divide_by_q_integer(once, n) is not None


def q_sun_sum(n: int, k: int) -> LaurentPoly:
    """sum_{m=k}^{n-1} [2m+1] [m+k choose 2k] [2k choose k]^2 q^(-(k+1)m)."""
    if n < 1:
        raise ValueError(f"q_sun_sum: n must be >= 1, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"q_sun_sum: need 0 <= k <= n-1, got k={k}, n={n}")
    # [2m+1] = (1 - q^(2m+1)) / (1 - q): every term adds q^s (1 - q^(2m+1))
    # times its q-binomial to one list, and one running sum divides the
    # total by 1 - q.  The m = n-1 term, of degree 2m + 2k(m-k) above its
    # shift -(k+1)m, spans the lowest and the highest exponent of the sum.
    low = -(k + 1) * (n - 1)
    high = (k + 1) * (n - 1) - 2 * k * k
    diff = [0] * (high - low + 2)
    for m in range(k, n):
        start = -(k + 1) * m - low
        for i, c in enumerate(_q_binom_poly(m + k, 2 * k).coeffs, start):
            diff[i] += c
            diff[i + 2 * m + 1] -= c
    central = _q_binom_poly(2 * k, k)
    return LaurentPoly(accumulate(diff), low) * (central * central)


def q_sun_case(key: tuple[int, int]) -> CaseResult:
    """The q-sum for (n, k), 0 <= k < n, is divisible by [n]^2."""
    n, k = key
    f = q_sun_sum(n, k)
    if divisible_by_q_integer_squared(f, n):
        return make_case((("n", n), ("k", k)), True)
    modulus = q_integer(n)
    ok, witness_poly = laurent_divisible(f, modulus * modulus)
    if ok:
        raise ArithmeticError(f"q-sun n={n}, k={k}: long division and the [n] recurrence disagree")
    witness = f"remainder {witness_poly} after division by [{n}]^2"
    return make_case((("n", n), ("k", k)), False, witness)


def q_specialize_row(key: tuple[int, int]) -> list[CaseResult]:
    """Setting q = 1 in the q-sum for (n, k) reproduces the classical
    weighted sum sum_m (2m+1) C(m+k,2k) C(2k,k)^2, for the row key
    (k, n_max) over n = k+1 .. n_max; the classical sums are the l = 1
    running sums of conjecture-final."""
    k, n_max = key
    cases = []
    for n, classical in enumerate(conjecture_final_values(1, k, n_max), k + 1):
        at_one = q_sun_sum(n, k).eval_at_one()
        ok = at_one == classical
        witness = None if ok else f"q=1 value {at_one} != classical sum {classical}"
        cases.append(make_case((("n", n), ("k", k)), ok, witness))
    return cases
