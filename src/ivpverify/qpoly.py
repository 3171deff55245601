"""Integer Laurent polynomials in q, with q-integers, q-binomials, and
the congruence family modulo the squared q-integer: the q-sum row
builder and the row functions of q-sun and q-specialize.

Products use Kronecker substitution: both coefficient lists are packed
into one big integer each, at a slot width no coefficient of the
product can overflow, so a single integer multiplication (Karatsuba in
CPython) does the whole convolution.

Everything else rests on one linear-time pair: multiplying by 1 - q^j,
and dividing by it with the recurrence h_i = f_i + h_(i-j), which is
exact when its last j entries are zero.  A q-binomial is the product
formula prod_i (1 - q^(n-k+i)) / (1 - q^i), a q-sum row steps
[m+k choose 2k] and [2m+1] along m by the same ratios, and since
[n] (1 - q) = 1 - q^n, [n]^2 divides f exactly when (1 - q^n)^2 divides
f (1 - q)^2.  The general `laurent_divisible` (long division in the
Laurent ring) only writes the remainder witness of a failing cell.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .congruences import conjecture_final_values
from .report import CaseResult, make_case

__all__ = [
    "LaurentPoly",
    "q_integer",
    "q_binom",
    "laurent_divisible",
    "divisible_by_q_integer_squared",
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
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        product = _kronecker_mul(self.coeffs, other.coeffs)
        return LaurentPoly(product, self.min_exp + other.min_exp)

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


def divisible_by_q_integer_squared(f: LaurentPoly, n: int) -> bool:
    """Whether [n]^2 divides f, that is whether (1 - q^n)^2 divides
    f (1 - q)^2, in time linear in the length of f."""
    g = _times_one_minus(_times_one_minus(f.coeffs, 1), 1)
    once = _over_one_minus(g, n)
    return once is not None and _over_one_minus(once, n) is not None


def q_sun_sums(k: int, n_max: int) -> list[LaurentPoly]:
    """The q-sums sum_{m=k}^{n-1} [2m+1] [m+k choose 2k] [2k choose k]^2 q^(-(k+1)m)
    for n = k+1 .. n_max, from one running sum over m."""
    central = q_binom(2 * k, k)
    central_sq = central * central
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
        sums.append(LaurentPoly(total[window], -(k + 1) * m) * central_sq)
    return sums


def q_sun_row(key: tuple[int, int]) -> list[CaseResult]:
    """The q-sum for (n, k) is divisible by [n]^2, for the row key
    (k, n_max) over n = k+1 .. n_max."""
    k, n_max = key
    cases = []
    for n, f in enumerate(q_sun_sums(k, n_max), k + 1):
        if divisible_by_q_integer_squared(f, n):
            cases.append(make_case((("n", n), ("k", k)), True))
            continue
        modulus = q_integer(n)
        ok, witness_poly = laurent_divisible(f, modulus * modulus)
        if ok:
            raise ArithmeticError(f"q-sun n={n}, k={k}: long division and the linear-time test disagree")
        witness = f"remainder {witness_poly} after division by [{n}]^2"
        cases.append(make_case((("n", n), ("k", k)), False, witness))
    return cases


def q_specialize_row(key: tuple[int, int]) -> list[CaseResult]:
    """Setting q = 1 in the q-sum for (n, k) reproduces the classical
    weighted sum sum_m (2m+1) C(m+k,2k) C(2k,k)^2, for the row key
    (k, n_max) over n = k+1 .. n_max; the classical sums are the l = 1
    running sums of conjecture-final."""
    k, n_max = key
    cases = []
    pairs = zip(q_sun_sums(k, n_max), conjecture_final_values(1, k, n_max))
    for n, (f, classical) in enumerate(pairs, k + 1):
        at_one = f.eval_at_one()
        ok = at_one == classical
        witness = None if ok else f"q=1 value {at_one} != classical sum {classical}"
        cases.append(make_case((("n", n), ("k", k)), ok, witness))
    return cases
