"""Per-cell formulas: an independent oracle for the row functions.

The verifier decides a prefix-sum grid row from one running sum, the
Chu-Vandermonde row from power sums shared by its cells, and the
transform and recurrence rows from one table of each closed form.  This
module keeps the formulas that build every cell's sum from scratch,
together with the cell keys of each task's grid.  `ORACLE[task]` gives (cell function, cell keys of
a `GridConfig`); a cell function returns the `CaseResult` the row
function must produce for that key, witness and severity included.
`CaseResult`, the view of one cell, lives here: the verifier keeps a
row's cells as one block of columns, and `conftest.cases_of` reads
blocks as cases, so the tests compare a row with its cells one at a
time.

Every binomial of a cell goes through this module's own `binom_int` and
every S_k(x) through its own `build_lhs`, so a test can corrupt one and
the verifier's copy the same way and compare the failing cells too; the
one exception is the closed form n C(n,k+1) C(n+k,k) of the telescope
and of conjecture-final at l = 1, which the verifier forms by running
products and this module as `telescope_rhs`, from `math.comb`, so a
test corrupts the two closed forms instead.
`build_lhs` and `build_rhs` keep the per-term formulas of the two closed
forms, one S_n per call and one `binom_int` call per binomial: they
oracle the verifier's table builders, whose values come through
`binom_int` as well, so a fault drawn into this module's `binom_int`
reaches both sides.
The q side keeps the per-cell q-sum, each q-binomial from the q-Pascal
rule, and forms the full product with [2k choose k]^2 that the verifier
never forms: a test corrupts the unscaled `q_sun_sum` here and the
verifier's row builder `qpoly.q_sun_sums` the same way.

The module also holds the algebra that only the tests use, as their
oracle: `LaurentPoly`, a trimmed integer Laurent polynomial with its
own schoolbook product, `q_integer`, `laurent_divisible` (long division
in the Laurent ring, against which the verifier's q-sun verdicts and
remainders are checked), `cyclotomic` (Phi_d from [d] by long
division), `binom_rat` (one rational binomial C(r, k), against which
the integer left side of sun-one and sun-two is checked),
`forward_differences` and `first_non_multiple` (Polya's
forward-difference test of integer-valuedness, against which the
verifier's test on values is checked), `coefficients` (Newton
interpolation of monomial coefficients from values, which the tests
read S_n's coefficients through), and `eval_transform_at` (both
closed forms of S_n at a rational point).
The cells of a symmetric claim of degree 2d are decided, as the
verifier decides them, on their values at x = 0 .. d, and a failing
cell's witness gives its values at the first of those points where the
claim fails, found here by a loop of the oracle's own: no witness text
comes from the verifier's code.
The verifier works on plain coefficient lists and never imports any
of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from typing import Iterable, NamedTuple, Optional

from ivpverify import combinat
from ivpverify.combinat import binom_int, catalan, double_factorial_odd


class CaseResult(NamedTuple):
    """The view of one cell: key holds its (name, value) pairs in order.
    A failing "conjecture" case is a mathematical discovery, not a bug."""

    key: tuple[tuple[str, object], ...]
    status: str  # "pass" | "fail"
    witness: Optional[str] = None
    severity: str = "theorem"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    @property
    def sort_key(self) -> tuple:
        return tuple(v for _, v in self.key)

    @property
    def label(self) -> str:
        return ";".join(f"{name}={value}" for name, value in self.key)


def _validate_eps(eps: int) -> None:
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")


# -- integer-valuedness by forward differences --------------------------------

def forward_differences(values) -> list:
    """[D^0 p(0), D^1 p(0), ...] from p(0), p(1), ..., the binomial-basis
    coefficients of the polynomial through those values."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def coefficients(values) -> list[Fraction]:
    """Monomial coefficients, little-endian with trailing zeros trimmed, of
    the polynomial of degree < len(values) taking values[x] at x."""
    # Newton's formula times d! = (len - 1)!, so that every step is on
    # integers: D^i p(0) d!/i! times x(x-1)...(x-i+1).
    scale = math.factorial(max(len(values) - 1, 0))
    coeffs = [0] * len(values)
    falling = [1]  # x(x-1)...(x-i+1), little-endian
    for i, d in enumerate(forward_differences(values)):
        term = d * (scale // math.factorial(i))
        for j, c in enumerate(falling):
            coeffs[j] += term * c
        falling = [a - i * b for a, b in zip([0] + falling, falling + [0])]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return [Fraction(c, scale) for c in coeffs]


def first_non_multiple(values, m: int) -> Optional[int]:
    """First i whose i-th forward difference at 0 is not a multiple of m.

    None means p/m, with p the polynomial through the values, is
    integer-valued (Polya's criterion).  Otherwise p(i)/m is itself not
    an integer: p(i) = sum_{j<=i} C(i,j) D^j p(0), where every term but
    the last is a multiple of m.  The verifier's "first x <= d with
    p(x) % m" on a symmetric p of degree 2d must give the same i.
    """
    for i, d in enumerate(forward_differences(values)):
        if d % m:
            return i
    return None


# -- rational binomials -------------------------------------------------------

def binom_rat(r: Fraction | int, k: int) -> Fraction:
    """C(r, k) = r(r-1)...(r-k+1) / k! for rational r and integer k >= 0.

    Agrees with `combinat.binom_int` whenever r is an integer.
    """
    if k < 0:
        raise ValueError(f"binom_rat: k must be >= 0, got {k}")
    r = Fraction(r)
    num = 1
    for i in range(k):
        num *= r.numerator - i * r.denominator
    return Fraction(num, r.denominator**k * math.factorial(k))


# -- the two closed forms of S_n, one binomial per term ----------------------

def build_lhs(n: int, points: int) -> tuple[int, ...]:
    """S_n(0), ..., S_n(points-1) from sum_{k=0}^n C(-x-1,k)^2 C(x,n-k)^2."""
    return tuple(
        sum(binom_int(-x - 1, k) ** 2 * binom_int(x, n - k) ** 2 for k in range(n + 1))
        for x in range(points)
    )


def build_rhs(n: int, points: int) -> tuple[int, ...]:
    """S_n(0), ..., S_n(points-1) from sum_{k=0}^n C(n+k,2k) C(2k,k)^2 C(x+k,2k)."""
    weights = [binom_int(n + k, 2 * k) * binom_int(2 * k, k) ** 2 for k in range(n + 1)]
    return tuple(
        sum(w * binom_int(x + k, 2 * k) for k, w in enumerate(weights))
        for x in range(points)
    )


def eval_transform_at(n: int, x0: int | Fraction) -> Fraction:
    """Evaluate both closed forms of S_n at x0 and return the common value.

    The two sums are evaluated independently (no shared polynomial
    construction), so agreement here is a genuine cross-check; a
    mismatch would mean the identity itself fails at (n, x0) and raises
    RuntimeError.
    """
    if n < 0:
        raise ValueError(f"eval_transform_at: n must be >= 0, got {n}")
    x0 = Fraction(x0)
    lhs = sum(
        binom_rat(-x0 - 1, k) ** 2 * binom_rat(x0, n - k) ** 2 for k in range(n + 1)
    )
    rhs = sum(
        combinat.binom_int(n + k, 2 * k) * combinat.binom_int(2 * k, k) ** 2
        * binom_rat(x0 + k, 2 * k)
        for k in range(n + 1)
    )
    if lhs != rhs:
        raise RuntimeError(
            f"closed forms disagree at n={n}, x={x0}: {lhs} vs {rhs}"
        )
    return Fraction(lhs)


# -- the sums, one cell at a time -------------------------------------------

@dataclass(frozen=True)
class SchmidtCoeffs:
    """coeffs[j] = sum_{k=j}^{n-1} eps^k (2k+1)^(2l-1) C(k+j,2j) C(2j,j)."""

    l: int
    n: int
    eps: int
    coeffs: tuple[int, ...]

    def first_indivisible(self) -> Optional[int]:
        for j, c in enumerate(self.coeffs):
            if c % self.n:
                return j
        return None


def schmidt_combination_coeffs(l: int, n: int, eps: int) -> SchmidtCoeffs:
    if l < 1 or n < 1:
        raise ValueError(f"schmidt_combination_coeffs: need l, n >= 1, got {l}, {n}")
    _validate_eps(eps)
    power = 2 * l - 1
    coeffs = tuple(
        sum(
            eps ** k * (2 * k + 1) ** power * binom_int(k + j, 2 * j)
            for k in range(j, n)
        )
        * binom_int(2 * j, j)
        for j in range(n)
    )
    return SchmidtCoeffs(l=l, n=n, eps=eps, coeffs=coeffs)


def weighted_sum_values(l: int, n: int, eps: int) -> tuple[int, ...]:
    """sum_{k=0}^{n-1} eps^k (2k+1)^(2l-1) S_k(x) at x = 0 .. 2n-2 (degree 2n-2)."""
    if l < 1 or n < 1:
        raise ValueError(f"weighted_sum_values: need l, n >= 1, got {l}, {n}")
    _validate_eps(eps)
    power = 2 * l - 1
    points = 2 * n - 1
    total = [0] * points
    for k in range(n):
        weight = eps ** k * (2 * k + 1) ** power
        for x, s in enumerate(build_lhs(k, points)):
            total[x] += weight * s
    return tuple(total)


@dataclass(frozen=True)
class CongruenceCase:
    """One congruence instance: value, modulus, and the division verdict."""

    l: int
    n: int
    k: int
    value: int
    modulus: int

    @property
    def holds(self) -> bool:
        return self.value % self.modulus == 0


def conjecture_final_value(l: int, n: int, k: int) -> CongruenceCase:
    """(2l-1)!! sum_{m=k}^{n-1} (2m+1)^(2l-1) C(m+k,2k) C(2k,k)^2 mod n^2."""
    if l < 1 or n < 1:
        raise ValueError(f"conjecture_final_value: need l, n >= 1, got {l}, {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"conjecture_final_value: need 0 <= k <= n-1, got k={k}, n={n}")
    power = 2 * l - 1
    central_sq = binom_int(2 * k, k) ** 2
    total = double_factorial_odd(l) * central_sq * sum(
        (2 * m + 1) ** power * binom_int(m + k, 2 * k) for m in range(k, n)
    )
    return CongruenceCase(l=l, n=n, k=k, value=total, modulus=n * n)


def power_sum_at(m: int, k: int, x0: int) -> int:
    """sum_j C(-x0-1,j)^m C(x0,k-j)^m at the integer point x0."""
    return sum(
        binom_int(-x0 - 1, j) ** m * binom_int(x0, k - j) ** m for j in range(k + 1)
    )


def telescope_rhs(n: int, k: int) -> int:
    """n C(n,k+1) C(n+k,k), the telescope's closed form, from `math.comb`:
    the verifier forms it by a running product in k, which reads no
    `binom_int`, so a fault drawn into `binom_int` reaches neither."""
    return n * math.comb(n, k + 1) * math.comb(n + k, k)


def telescope_lhs(n: int, k: int) -> int:
    """sum_{m=k}^{n-1} (2m+1) C(m+k,2k) C(2k,k)."""
    return sum(
        (2 * m + 1) * binom_int(m + k, 2 * k) * binom_int(2 * k, k) for m in range(k, n)
    )


# -- integer Laurent polynomials in q ---------------------------------------

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
        return NotImplemented

    def shift(self, s: int) -> "LaurentPoly":
        """Multiply by q**s."""
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
        out = [0] * (max(self.max_exp, other.max_exp) - lo + 1)
        for p in (self, other):
            for i, c in enumerate(p.coeffs, p.min_exp - lo):
                out[i] += c
        return LaurentPoly(out, lo)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly([other])
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly(out, self.min_exp + other.min_exp)

    __rmul__ = __mul__

    def eval_at_one(self) -> int:
        """Specialize q = 1: simply the sum of the coefficients."""
        return sum(self.coeffs)

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


def q_integer(n: int) -> LaurentPoly:
    """[n] = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError(f"q_integer: n must be >= 1, got {n}")
    return LaurentPoly([1] * n)


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


# -- the q-sums, one cell at a time ------------------------------------------

@lru_cache(maxsize=None)
def q_binom(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial via the q-Pascal rule B(n,k) = B(n-1,k-1) + q^k B(n-1,k)."""
    if k < 0 or k > n:
        return LaurentPoly()
    if k == 0 or k == n:
        return LaurentPoly([1])
    return q_binom(n - 1, k - 1) + q_binom(n - 1, k).shift(k)


def q_sun_sum(n: int, k: int) -> LaurentPoly:
    """A_n = sum_{m=k}^{n-1} [2m+1] [m+k choose 2k] q^(-(k+1)m)."""
    # [2m+1] = (1 - q^(2m+1)) / (1 - q): every term adds q^s (1 - q^(2m+1))
    # times its q-binomial to one list, and one running sum divides the
    # total by 1 - q.  The m = n-1 term spans the lowest and the highest
    # exponent of the sum.
    low = -(k + 1) * (n - 1)
    high = (k + 1) * (n - 1) - 2 * k * k
    diff = [0] * (high - low + 2)
    for m in range(k, n):
        start = -(k + 1) * m - low
        for i, c in enumerate(q_binom(m + k, 2 * k).coeffs, start):
            diff[i] += c
            diff[i + 2 * m + 1] -= c
    return LaurentPoly(accumulate(diff), low)


def q_sun_product(n: int, k: int) -> LaurentPoly:
    """The q-sum of the claim, A_n [2k choose k]^2."""
    central = q_binom(2 * k, k)
    return q_sun_sum(n, k) * (central * central)


def cell_case(key, ok: bool, witness: Optional[str] = None, severity: str = "theorem"):
    """The case the verifier's report must hold for one cell: a passing
    case keeps no witness."""
    return CaseResult(tuple(key), "pass" if ok else "fail", None if ok else witness, severity)


# -- one cell at a time ------------------------------------------------------

def _first_miss(*sides) -> int:
    """The first x at which the value lists `sides` do not all agree."""
    x = 0
    while all(side[x] == sides[0][x] for side in sides):
        x += 1
    return x


def transform_case(n):
    """Both closed forms of S_n, each from its per-term formula, at x = 0 .. n,
    where S_n, being symmetric, is decided."""
    lhs, rhs = build_lhs(n, n + 1), build_rhs(n, n + 1)
    ok = lhs == rhs
    witness = None
    if not ok:
        x = _first_miss(lhs, rhs)
        witness = f"S_{n}({x}): lhs {lhs[x]} vs rhs {rhs[x]}"
    return cell_case((("n", n),), ok, witness)


def recurrence_case(key):
    """("base", n): both closed forms give S_0 = 1 and S_1 = 2x^2+2x+1,
    decided on x = 0 .. n.  ("lhs" or "rhs", n): that closed form
    satisfies (n+2)^3 S_{n+2} - (2n+3)(2x^2+2x+n^2+3n+3) S_{n+1}
    + (n+1)^3 S_n = 0, its residual decided on x = 0 .. n+2.  Each S_k
    is read from its per-term formula."""
    family, n = key
    if family == "base":
        base = [1] if n == 0 else [1, 2, 2]
        lhs, rhs = build_lhs(n, n + 1), build_rhs(n, n + 1)
        expected = tuple(sum(c * x ** i for i, c in enumerate(base)) for x in range(n + 1))
        ok = lhs == rhs == expected
        witness = None
        if not ok:
            x = _first_miss(lhs, rhs, expected)
            witness = f"S_{n}({x}): lhs {lhs[x]}, rhs {rhs[x]}, expected {expected[x]}"
    else:
        build = build_lhs if family == "lhs" else build_rhs
        s0, s1, s2 = (build(m, n + 3) for m in (n, n + 1, n + 2))
        residual = [
            (n + 2) ** 3 * s2[x] - (2 * n + 3) * (2 * x * x + 2 * x + n * n + 3 * n + 3) * s1[x]
            + (n + 1) ** 3 * s0[x]
            for x in range(n + 3)
        ]
        ok = not any(residual)
        witness = None
        if not ok:
            x = _first_miss(residual, [0] * len(residual))
            witness = f"residual at x={x} is {residual[x]}"
    return cell_case((("family", family), ("n", n)), ok, witness)


def chu_case(k):
    """The convolution, one binom_int pair per term, at x = 0 .. k//2,
    where it is decided, as it is symmetric of degree <= k."""
    values = [
        sum(binom_int(-x - 1, j) * binom_int(x, k - j) for j in range(k + 1))
        for x in range(k // 2 + 1)
    ]
    expected = (-1) ** k
    ok = all(v == expected for v in values)
    witness = None
    if not ok:
        x = _first_miss(values, [expected] * len(values))
        witness = f"sum at x={x} is {values[x]}, expected {expected}"
    return cell_case((("k", k),), ok, witness)


def telescope_case(key):
    n, k = key
    lhs = telescope_lhs(n, k)
    rhs = telescope_rhs(n, k)
    ok = lhs == rhs
    return cell_case((("n", n), ("k", k)), ok, None if ok else f"{lhs} != {rhs}")


def sun_one_case(n):
    half = Fraction(-1, 2)
    lhs = 16 ** n * sum(
        binom_rat(half, k) ** 2 * binom_rat(half, n - k) ** 2 for k in range(n + 1)
    )
    rhs = sum(
        binom_int(2 * k, k) ** 3 * binom_int(k, n - k) * (-16) ** (n - k)
        for k in range(n + 1)
    )
    ok = lhs == rhs
    return cell_case((("n", n),), ok, None if ok else f"{lhs} != {rhs}")


def sun_two_case(n):
    quarter, three_quarter = Fraction(-1, 4), Fraction(-3, 4)
    lhs = 64 ** n * sum(
        binom_rat(quarter, k) ** 2 * binom_rat(three_quarter, n - k) ** 2
        for k in range(n + 1)
    )
    rhs = sum(
        binom_int(2 * k, k) ** 3 * binom_int(2 * (n - k), n - k) * 16 ** (n - k)
        for k in range(n + 1)
    )
    ok = lhs == rhs
    return cell_case((("n", n),), ok, None if ok else f"{lhs} != {rhs}")


def _int_valued_case(key, values, m, severity="theorem"):
    """values at x = 0 .. 2d of a symmetric polynomial of degree 2d,
    decided on x = 0 .. d."""
    x0 = first_non_multiple(values[: (len(values) + 1) // 2], m)
    witness = None if x0 is None else f"p({x0}) = {Fraction(values[x0], m)} is not an integer"
    return cell_case(key, x0 is None, witness, severity=severity)


def theorem1_case(key):
    l, n, eps = key
    return _int_valued_case(
        (("l", l), ("n", n), ("eps", eps)), weighted_sum_values(l, n, eps), n
    )


def theorem2_case(n):
    return _int_valued_case((("n", n),), weighted_sum_values(1, n, 1), n * n)


def _catalan_form_values(n):
    """The Catalan form of n at x = 0 .. n-1, where the identity is decided."""
    weights = [catalan(k) * binom_int(n - 1, k) * binom_int(n + k, k) for k in range(n)]
    return tuple(
        sum(w * binom_int(x + k, 2 * k) for k, w in enumerate(weights))
        for x in range(n)
    )


def catalan_form_case(key):
    part = key[0]
    if part == "identity":
        n = key[1]
        v, c = weighted_sum_values(1, n, 1)[:n], _catalan_form_values(n)
        scaled = tuple(n * n * ci for ci in c)
        ok = v == scaled
        witness = None
        if not ok:
            x = _first_miss(v, scaled)
            witness = f"at x={x}: 1/n^2 sum {Fraction(v[x], n * n)} vs Catalan form {c[x]}"
        return cell_case((("part", part), ("n", n)), ok, witness)
    _, n, x0 = key
    bad = None
    for k in range(n):
        term = (
            binom_int(n, k + 1) * binom_int(n + k, k) * binom_int(2 * k, k)
            * binom_int(x0 + k, 2 * k)
        )
        if term % n:
            bad = f"k={k} summand {Fraction(term, n)} is not an integer"
            break
    return cell_case((("part", part), ("n", n), ("x", x0)), bad is None, bad)


def schmidt_case(key):
    l, n, eps = key
    sc = schmidt_combination_coeffs(l, n, eps)
    bad = sc.first_indivisible()
    witness = None
    if bad is not None:
        witness = f"coefficient j={bad} is {sc.coeffs[bad]}, not divisible by {n}"
    return cell_case((("l", l), ("n", n), ("eps", eps)), bad is None, witness)


def conjecture_final_case(key):
    l, n, k = key
    case = conjecture_final_value(l, n, k)
    severity = "theorem" if l == 1 else "conjecture"
    witness = None
    if not case.holds:
        witness = f"value {case.value} = {case.value % case.modulus} mod {case.modulus}"
    elif l == 1:
        closed = telescope_rhs(n, k) * binom_int(2 * k, k)
        if case.value != closed:
            witness = f"value {case.value} != closed form {closed}"
    return cell_case((("l", l), ("n", n), ("k", k)), witness is None, witness, severity=severity)


def sun_m_case(key):
    m, l, n, eps, x0 = key
    power = 2 * l - 1
    total = sum(
        eps ** k * (2 * k + 1) ** power * power_sum_at(m, k, x0) for k in range(n)
    )
    ok = total % n == 0
    witness = None if ok else f"sum {total} at x={x0} is not divisible by {n}"
    severity = "theorem" if m <= 2 else "conjecture"
    return cell_case(
        (("l", l), ("n", n), ("eps", eps), ("x", x0)), ok, witness, severity=severity
    )


def sun_ii_case(key):
    l, n = key
    severity = "theorem" if l == 1 else "conjecture"
    scale = double_factorial_odd(l)
    values = [scale * v for v in weighted_sum_values(l, n, 1)]
    return _int_valued_case((("l", l), ("n", n)), values, n * n, severity)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentPoly:
    """Phi_d, d > 1: [d] divided by Phi_e for every divisor 1 < e < d."""
    phi = q_integer(d)
    for e in range(2, d):
        if d % e == 0:
            ok, phi = laurent_divisible(phi, cyclotomic(e))
            if not ok:
                raise ArithmeticError(f"Phi_{e} does not divide [{d}]")
    return phi


def q_sun_case(key):
    """Decided by long division of the full product by [n]^2; the
    witness is A_n modulo Phi_d^2 for the first d | n, d > 1, whose
    Phi_d^2 does not divide the full product.  The verifier tests only
    the d whose Phi_d [2k choose k] lacks, and on A_n alone."""
    n, k = key
    product = q_sun_product(n, k)
    ok, _ = laurent_divisible(product, q_integer(n) * q_integer(n))
    witness = None
    if not ok:
        d = next(d for d in range(2, n + 1)
                 if n % d == 0 and not laurent_divisible(product, cyclotomic(d) * cyclotomic(d))[0])
        _, remainder = laurent_divisible(q_sun_sum(n, k), cyclotomic(d) * cyclotomic(d))
        witness = f"A_{n} = {remainder} mod Phi_{d}^2"
    return cell_case((("n", n), ("k", k)), ok, witness)


def q_specialize_case(key):
    n, k = key
    at_one = q_sun_product(n, k).eval_at_one()
    classical = conjecture_final_value(1, n, k).value
    ok = at_one == classical
    witness = None if ok else f"q=1 value {at_one} != classical sum {classical}"
    return cell_case((("n", n), ("k", k)), ok, witness)


# -- the cell keys of each task's grid ---------------------------------------

def _ls(c):
    return range(1, c.l_max + 1)


def _ns(c):
    return range(1, c.n_max + 1)


def _xs(c):
    return range(c.x_min, c.x_max + 1)


def _n_k(c):
    return [(n, k) for n in _ns(c) for k in range(n)]


ORACLE: dict[str, tuple] = {
    "transform": (transform_case, lambda c: range(c.n_max + 1)),
    "recurrence": (
        recurrence_case,
        lambda c: [("base", 0), ("base", 1)]
        + [(family, n) for family in ("lhs", "rhs") for n in range(c.n_max - 1)],
    ),
    "chu-vandermonde": (chu_case, lambda c: range(c.k_max + 1)),
    "telescope": (telescope_case, _n_k),
    "sun-one": (sun_one_case, lambda c: range(c.n_max + 1)),
    "sun-two": (sun_two_case, lambda c: range(c.n_max + 1)),
    "theorem1": (theorem1_case, lambda c: product(_ls(c), _ns(c), c.eps)),
    "theorem2": (theorem2_case, _ns),
    "catalan-form": (
        catalan_form_case,
        lambda c: [("identity", n) for n in _ns(c)]
        + [("terms", n, x) for n in _ns(c) for x in _xs(c)],
    ),
    "lemma-schmidt": (schmidt_case, lambda c: product(_ls(c), _ns(c), c.eps)),
    "conjecture-final": (
        conjecture_final_case, lambda c: [(l, n, k) for l in _ls(c) for n, k in _n_k(c)]
    ),
    "conjecture-sun-m": (
        sun_m_case, lambda c: product([c.m], _ls(c), _ns(c), c.eps, _xs(c))
    ),
    "conjecture-sun-ii": (sun_ii_case, lambda c: product(_ls(c), _ns(c))),
    "q-sun": (q_sun_case, _n_k),
    "q-specialize": (q_specialize_case, _n_k),
}


def oracle_cases(task: str, config) -> list[CaseResult]:
    """Every cell of `task` on the grid of `config`, one cell at a time, sorted by key."""
    cell, keys = ORACLE[task]
    return sorted((cell(key) for key in keys(config)), key=lambda c: c.sort_key)
