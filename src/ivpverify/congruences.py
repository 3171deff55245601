"""Integer-side claims: integer-valuedness of the weighted
transformation sums, divisibility of the Schmidt-combination
coefficients, and the mod-n^2 congruence family.  The module holds
their builders and one cell function per claim, each deciding one grid
cell.

Severity matters here.  Most grid cells instantiate proved statements
(severity "theorem"); the l >= 2 congruence rows and the m >= 3 spot
checks instantiate open conjectures (severity "conjecture"), so a
failing cell there would be a counterexample, not a bug in a proof.
Every verdict is computed on exact integers -- no modular reduction
happens before the final divisibility test.  The weighted sums of
S_k(x) have degree 2n-2, so each is held as its 2n-1 integer values at
x = 0 .. 2n-2 (`weighted_sum_values`); p/m is integer-valued exactly
when every forward difference of those values at 0 is a multiple of m
(see `values`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .combinat import binom_int, catalan, double_factorial_odd
from .identities import build_lhs, coeff_mismatch
from .report import CaseResult, make_case
from .values import coefficients, first_non_multiple

__all__ = [
    "SchmidtCoeffs",
    "CongruenceCase",
    "schmidt_combination_coeffs",
    "schmidt_case",
    "weighted_sum_values",
    "theorem1_case",
    "theorem2_case",
    "catalan_form_values",
    "catalan_form_case",
    "conjecture_final_value",
    "conjecture_final_case",
    "sun_m_case",
    "sun_m_regime",
    "sun_ii_case",
]


def _validate_eps(eps: int) -> None:
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")


# -- Schmidt-combination coefficients ----------------------------------------

@dataclass(frozen=True)
class SchmidtCoeffs:
    """Integer coefficient vector of sum_k eps^k (2k+1)^(2l-1) S_k(x_0..x_k),

    where S_k(x_0,...,x_k) = sum_j C(k+j,2j) C(2j,j) x_j.  Collecting by
    x_j gives coeffs[j] = sum_{k=j}^{n-1} eps^k (2k+1)^(2l-1) C(k+j,2j)
    C(2j,j).  The divisibility claim: every entry is a multiple of n.
    """

    l: int
    n: int
    eps: int
    coeffs: tuple[int, ...]

    def first_indivisible(self) -> Optional[int]:
        for j, c in enumerate(self.coeffs):
            if c % self.n:
                return j
        return None

    def all_divisible(self) -> bool:
        return self.first_indivisible() is None


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


def schmidt_case(key: tuple[int, int, int]) -> CaseResult:
    """Every Schmidt-combination coefficient for (l, n, eps) is divisible by n."""
    l, n, eps = key
    sc = schmidt_combination_coeffs(l, n, eps)
    bad = sc.first_indivisible()
    witness = None
    if bad is not None:
        witness = f"coefficient j={bad} is {sc.coeffs[bad]}, not divisible by {n}"
    return make_case((("l", l), ("n", n), ("eps", eps)), bad is None, witness)


# -- weighted sums of S_k and integer-valuedness -----------------------------

@lru_cache(maxsize=1 << 12)
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


def _int_valued_case(key, values, m: int, severity: str = "theorem") -> CaseResult:
    """Is the polynomial with these values at 0, 1, ..., divided by m, integer-valued?"""
    x0 = first_non_multiple(values, m)
    witness = None if x0 is None else f"p({x0}) = {Fraction(values[x0], m)} is not an integer"
    return make_case(key, x0 is None, witness, severity=severity)


def theorem1_case(key: tuple[int, int, int]) -> CaseResult:
    """The 1/n weighted sum for (l, n, eps) is integer-valued."""
    l, n, eps = key
    return _int_valued_case(
        (("l", l), ("n", n), ("eps", eps)), weighted_sum_values(l, n, eps), n
    )


def theorem2_case(n: int) -> CaseResult:
    """(1/n^2) sum_{k=0}^{n-1} (2k+1) S_k(x) is integer-valued."""
    return _int_valued_case((("n", n),), weighted_sum_values(1, n, 1), n * n)


# -- Catalan-weighted rewriting of the theorem2 sum --------------------------

def _catalan_weight(n: int, k: int) -> int:
    return catalan(k) * binom_int(n - 1, k) * binom_int(n + k, k)


def catalan_form_values(n: int) -> tuple[int, ...]:
    """sum_{k=0}^{n-1} catalan(k) C(n-1,k) C(n+k,k) C(x+k,2k) at x = 0 .. 2n-2.

    Term-for-term this is (1/n) C(n,k+1) C(n+k,k) C(2k,k) C(x+k,2k);
    pulling the 1/(k+1) into the central binomial makes every scalar
    weight a visible integer.
    """
    if n < 1:
        raise ValueError(f"catalan_form_values: n must be >= 1, got {n}")
    weights = [_catalan_weight(n, k) for k in range(n)]
    return tuple(
        sum(w * binom_int(x + k, 2 * k) for k, w in enumerate(weights))
        for x in range(2 * n - 1)
    )


def _catalan_summand_times_n(n: int, k: int, x0: int) -> int:
    """C(n,k+1) C(n+k,k) C(2k,k) C(x0+k,2k), n times the k-th summand."""
    return (
        binom_int(n, k + 1) * binom_int(n + k, k) * binom_int(2 * k, k)
        * binom_int(x0 + k, 2 * k)
    )


def catalan_form_case(key: tuple) -> CaseResult:
    """One of two claims.  For key ("identity", n): the Catalan-weighted
    sum equals the 1/n^2 weighted sum as a polynomial (compared at its
    2n-1 values).  For key ("terms", n, x): each summand
    (1/n) C(n,k+1) C(n+k,k) C(2k,k) C(x+k,2k) is an integer at x.
    """
    part = key[0]
    if part == "identity":
        n = key[1]
        v, c = weighted_sum_values(1, n, 1), catalan_form_values(n)
        ok = v == tuple(n * n * ci for ci in c)
        witness = None
        if not ok:
            p = [Fraction(a, n * n) for a in coefficients(v)]
            witness = coeff_mismatch(p, coefficients(c))
        return make_case((("part", part), ("n", n)), ok, witness)
    _, n, x0 = key
    bad = None
    for k in range(n):
        term = _catalan_summand_times_n(n, k, x0)
        if term % n:
            bad = f"k={k} summand {Fraction(term, n)} is not an integer"
            break
    return make_case((("part", part), ("n", n), ("x", x0)), bad is None, bad)


# -- the mod-n^2 congruence family -------------------------------------------

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


def conjecture_final_case(key: tuple[int, int, int]) -> CaseResult:
    """The congruence mod n^2 at (l, n, k), 0 <= k < n.

    l = 1 rows are proved and also have to match the closed form
    n C(n,k+1) C(n+k,k) C(2k,k) exactly; l >= 2 rows are conjectures.
    """
    l, n, k = key
    case = conjecture_final_value(l, n, k)
    severity = "theorem" if l == 1 else "conjecture"
    witness = None
    if not case.holds:
        witness = f"value {case.value} = {case.value % case.modulus} mod {case.modulus}"
    elif l == 1:
        # The proved route: at l=1 the sum telescopes to a closed product.
        closed = n * binom_int(n, k + 1) * binom_int(n + k, k) * binom_int(2 * k, k)
        if case.value != closed:
            witness = f"value {case.value} != closed form {closed}"
    return make_case((("l", l), ("n", n), ("k", k)), witness is None, witness, severity=severity)


# -- numeric spot checks for general power m ---------------------------------

@lru_cache(maxsize=1 << 20)
def _power_sum_at(m: int, k: int, x0: int) -> int:
    """sum_j C(-x0-1,j)^m C(x0,k-j)^m at the integer point x0."""
    return sum(
        binom_int(-x0 - 1, j) ** m * binom_int(x0, k - j) ** m for j in range(k + 1)
    )


def sun_m_case(key: tuple[int, int, int, int, int]) -> CaseResult:
    """Pointwise integrality at key (m, l, n, eps, x) of
    (1/n) sum_k eps^k (2k+1)^(2l-1) sum_j C(-x-1,j)^m C(x,k-j)^m.

    m <= 2 instances are proved; m >= 3 ones are open.  The case key
    leaves m out: one report holds a single m, which its config echoes.
    """
    m, l, n, eps, x0 = key
    power = 2 * l - 1
    total = sum(
        eps ** k * (2 * k + 1) ** power * _power_sum_at(m, k, x0) for k in range(n)
    )
    ok = total % n == 0
    witness = None if ok else f"sum {total} at x={x0} is not divisible by {n}"
    severity = "theorem" if m <= 2 else "conjecture"
    return make_case(
        (("l", l), ("n", n), ("eps", eps), ("x", x0)), ok, witness, severity=severity
    )


def sun_m_regime(m: int, n_max: int, points: int) -> str:
    """Which n an x range of `points` consecutive integers certifies.

    The polynomial behind `sun_m_case` has degree m(n-1), so when the x
    range contains at least m(n-1)+1 consecutive integers the pointwise
    check is a complete integer-valuedness certificate for that n;
    beyond that bound it is a spot check.
    """
    n_complete = (points - 1) // m + 1
    if n_complete >= n_max:
        regime = f"complete integer-valuedness certificate for every n <= {n_max}"
    else:
        regime = (
            f"complete certificate for n <= {n_complete}, "
            f"spot check for {n_complete} < n <= {n_max}"
        )
    return f"degree is m(n-1) = {m}(n-1); x range holds {points} consecutive points: " + regime


# -- the (2l-1)!!/n^2 strengthening ------------------------------------------

def sun_ii_case(key: tuple[int, int]) -> CaseResult:
    """((2l-1)!!/n^2) sum_{k=0}^{n-1} (2k+1)^(2l-1) S_k(x) is integer-valued.

    l = 1 is the proved 1/n^2 statement; l >= 2 instances follow from
    the open mod-n^2 congruence, so they carry conjecture severity.
    """
    l, n = key
    severity = "theorem" if l == 1 else "conjecture"
    scale = double_factorial_odd(l)
    values = [scale * v for v in weighted_sum_values(l, n, 1)]
    return _int_valued_case((("l", l), ("n", n)), values, n * n, severity)

