import pytest
from cell_oracle import conjecture_final_value
from hypothesis import assume, example, given, strategies as st
from sympy import Poly, symbols

from ivpverify import qpoly
from ivpverify.combinat import binom_int
from ivpverify.qpoly import (
    LaurentPoly,
    laurent_divisible,
    q_binom,
    q_integer,
    q_sun_sums,
    remainder_by_q_integer_squared,
)
from ivpverify.cli import GridConfig, run

Q = LaurentPoly([0, 1])


def q_sun_sum(n, k):
    """The unscaled q-sum A_n of the cell (n, k), the last entry of row k up to n."""
    return q_sun_sums(k, n)[-1]


def q_sun_product(n, k):
    """The full product A_n [2k choose k]^2 that q-sun never forms."""
    central = q_binom(2 * k, k)
    return q_sun_sum(n, k) * central * central


def _laurent(coeffs, max_size=25):
    return st.builds(
        LaurentPoly, st.lists(coeffs, min_size=1, max_size=max_size), st.integers(-30, 30)
    )


# Small values give interior zeros and sign changes; the huge ones are
# far beyond machine words.
_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(2 ** 200, 2 ** 260),
    st.integers(-(2 ** 260), -(2 ** 200)),
)


def test_laurent_normalization():
    p = LaurentPoly([0, 0, 3, 0, 5, 0, 0], min_exp=-4)
    assert p.min_exp == -2
    assert p.coeffs == (3, 0, 5)
    assert p.max_exp == 0
    zero = LaurentPoly([0, 0])
    assert zero.is_zero and zero.min_exp == 0 and zero == LaurentPoly()


def test_laurent_rejects_non_integer_coeffs():
    with pytest.raises(TypeError):
        LaurentPoly([1.5])


def test_laurent_ring_ops():
    one_plus_q = LaurentPoly([1, 1])
    assert one_plus_q * one_plus_q == LaurentPoly([1, 2, 1])
    assert one_plus_q + (-1 * one_plus_q) == LaurentPoly()
    assert (Q.shift(-2)) * (Q.shift(2)) == Q * Q
    assert one_plus_q + (-1) == Q
    assert 2 * one_plus_q == LaurentPoly([2, 2])
    assert one_plus_q * one_plus_q * one_plus_q == LaurentPoly([1, 3, 3, 1])


def test_laurent_shift_and_eval():
    p = LaurentPoly([1, 2, 1], min_exp=-1)
    assert p.shift(3).min_exp == 2
    assert p.eval_at_one() == 4
    assert str(p) == "q^-1 + 2 + q"


def test_q_integer():
    assert q_integer(1) == LaurentPoly([1])
    assert q_integer(3) == LaurentPoly([1, 1, 1])
    assert q_integer(7).eval_at_one() == 7
    with pytest.raises(ValueError):
        q_integer(0)


def test_q_binom_frozen_expansions():
    assert q_binom(4, 2) == LaurentPoly([1, 1, 2, 1, 1])
    assert q_binom(5, 2) == LaurentPoly([1, 1, 2, 2, 2, 1, 1])
    assert q_binom(6, 3) == LaurentPoly([1, 1, 2, 3, 3, 3, 3, 2, 1, 1])
    assert q_binom(5, 0) == LaurentPoly([1])
    assert q_binom(3, 5).is_zero
    with pytest.raises(ValueError):
        q_binom(-1, 0)


def test_q_binom_of_large_n_needs_no_recursion():
    # The q-Pascal recursion this replaced overflowed the stack here.
    assert q_binom(1100, 1) == q_integer(1100)
    assert q_binom(1100, 1099) == q_integer(1100)


def test_q_pascal_recurrence():
    for n in range(1, 31):
        for k in range(n + 1):
            lhs = q_binom(n, k)
            rhs = q_binom(n - 1, k - 1) if k else LaurentPoly()
            rhs = rhs + q_binom(n - 1, k).shift(k)
            assert lhs == rhs


def test_q_binom_symmetry():
    for n in range(31):
        for k in range(n + 1):
            assert q_binom(n, k) == q_binom(n, n - k)


def test_q_binom_specializes_to_binomials():
    for n in range(31):
        for k in range(n + 1):
            assert q_binom(n, k).eval_at_one() == binom_int(n, k)


def test_q_binom_degree_and_positivity():
    for n in range(25):
        for k in range(n + 1):
            v = q_binom(n, k)
            assert v.min_exp == 0
            assert v.max_exp == k * (n - k)
            assert all(c > 0 for c in v.coeffs)


def test_laurent_divisible_basics():
    g = LaurentPoly([1, 2, 1])  # (1+q)^2
    ok, quot = laurent_divisible(LaurentPoly(), g)
    assert ok and quot.is_zero
    ok, quot = laurent_divisible(LaurentPoly([1, 2, 1], min_exp=-1), g)
    assert ok and quot == LaurentPoly([1], min_exp=-1)
    ok, rem = laurent_divisible(LaurentPoly([1, 1]), LaurentPoly([1, 1, 1]))
    assert not ok and rem == LaurentPoly([1, 1])
    with pytest.raises(ValueError):
        laurent_divisible(LaurentPoly([1]), LaurentPoly())


def test_laurent_divisible_requires_integer_quotient():
    # (1+q) / 2 has no integer-coefficient quotient.
    ok, rem = laurent_divisible(LaurentPoly([1, 1]), LaurentPoly([2]))
    assert not ok and not rem.is_zero
    ok, quot = laurent_divisible(LaurentPoly([2, 2]), LaurentPoly([2]))
    assert ok and quot == LaurentPoly([1, 1])


def test_laurent_divisible_products_round_trip():
    f = LaurentPoly([3, 0, -2, 1], min_exp=-2)
    g = LaurentPoly([1, 4, 1], min_exp=1)
    ok, quot = laurent_divisible(f * g, g)
    assert ok and quot == f


@given(st.integers(-10, 10), st.integers(2, 12))
def test_divisibility_is_shift_invariant(s, n):
    modulus = q_integer(n) * q_integer(n)
    f = q_sun_sum(n, 0)
    ok_base, _ = laurent_divisible(f, modulus)
    ok_shifted, _ = laurent_divisible(f.shift(s), modulus)
    assert ok_base == ok_shifted


def test_q_sun_sum_hand_cases():
    assert q_sun_sums(0, 2) == [LaurentPoly([1]), LaurentPoly([1, 2, 1], min_exp=-1)]
    assert q_sun_sums(1, 2) == [q_integer(3).shift(-2)]  # [3] [2 choose 2] q^-2
    assert q_sun_sums(2, 2) == []
    with pytest.raises(ValueError):
        q_sun_sums(-1, 2)


def test_q_sun_grid():
    report = run(GridConfig("q-sun", n_max=12))
    assert report.ok
    assert report.total == 12 * 13 // 2


def test_q_sun_quotients_are_certified():
    # Re-multiply quotient by modulus to confirm the division certificate.
    for k in range(8):
        for n in range(k + 1, 9):
            f = q_sun_product(n, k)
            modulus = q_integer(n) * q_integer(n)
            ok, quot = laurent_divisible(f, modulus)
            assert ok
            assert quot * modulus == f


def test_q_specialization_matches_classical_sum():
    report = run(GridConfig("q-specialize", n_max=12))
    assert report.ok
    assert q_sun_product(2, 0).eval_at_one() == conjecture_final_value(1, 2, 0).value == 4
    assert q_sun_product(2, 1).eval_at_one() == conjecture_final_value(1, 2, 1).value == 12
    assert q_sun_sum(2, 1).eval_at_one() == 3


def test_laurent_is_immutable():
    p = LaurentPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()


X = symbols("x")


def _sympy(p):
    """p q^(-min_exp) as a sympy Poly in x."""
    return Poly(list(p.coeffs[::-1]) or [0], X)


@given(_laurent(_COEFFS), _laurent(_COEFFS))
@example(LaurentPoly([5]), LaurentPoly([-7], min_exp=-3))
@example(LaurentPoly([2 ** 200]), LaurentPoly([1, 0, 0, -(2 ** 201)], min_exp=-5))
@example(LaurentPoly([-1, 0, 0, 1], min_exp=-2), LaurentPoly([1, 1, 1]))
def test_product_matches_sympy(a, b):
    expected = (_sympy(a) * _sympy(b)).all_coeffs()[::-1]
    assert a * b == LaurentPoly(map(int, expected), a.min_exp + b.min_exp)
    assert b * a == a * b


def _agrees_with_long_division(a, c, n):
    """The residue remainder of a c^2 by [n]^2, checked against long
    division of the full product: the same verdict and the same text."""
    remainder = remainder_by_q_integer_squared(a, c, n)
    ok, obstruction = laurent_divisible(a * c * c, q_integer(n) * q_integer(n))
    assert ok == remainder.is_zero
    if not ok:
        assert str(remainder) == str(obstruction)
    return remainder


def _central(data, n):
    k = data.draw(st.integers(0, n - 1), label="k")
    return q_binom(2 * k, k)


@given(_laurent(st.integers(-4, 4), max_size=40), st.integers(-15, 15), st.integers(1, 12), st.data())
def test_residue_remainder_matches_long_division(a, s, n, data):
    c = _central(data, n).shift(data.draw(st.integers(-3, 3), label="shift of c"))
    _agrees_with_long_division(a.shift(s), c, n)


@given(_laurent(st.integers(-50, 50)), st.integers(-15, 15), st.integers(1, 12), st.data())
def test_residue_remainder_vanishes_on_multiples_of_the_square(g, s, n, data):
    a = (g * q_integer(n) * q_integer(n)).shift(s)
    assert not _agrees_with_long_division(a, _central(data, n), n)


@given(_laurent(st.integers(-50, 50)), st.integers(-15, 15), st.integers(2, 12), st.data())
def test_residue_remainder_stays_on_single_multiples(g, s, n, data):
    c = _central(data, n)
    assume(not laurent_divisible(g * c * c, q_integer(n))[0])
    assert _agrees_with_long_division((g * q_integer(n)).shift(s), c, n)


def test_single_q_integer_is_its_own_remainder():
    # deg [n] < deg [n]^2: the residue path must not lose a single [n].
    for n in range(2, 41):
        assert remainder_by_q_integer_squared(q_integer(n), LaurentPoly([1]), n) == q_integer(n)


@given(_laurent(_COEFFS, max_size=60), st.integers(1, 12))
def test_residue_differs_by_a_multiple_of_the_modulus(f, n):
    residue = LaurentPoly(qpoly._residue(f.coeffs, n), f.min_exp)
    ok, _ = laurent_divisible(f + -1 * residue, _one_minus(n) * _one_minus(n))
    assert ok


def test_q_sun_sum_matches_term_by_term_products():
    for k in range(9):
        expected = LaurentPoly()
        row = []
        for m in range(k, 9):
            term = q_integer(2 * m + 1) * q_binom(m + k, 2 * k)
            expected = expected + term.shift(-(k + 1) * m)
            row.append(expected)
        assert q_sun_sums(k, 9) == row


def _one_minus(j):
    return LaurentPoly([1] + [0] * (j - 1) + [-1])


@given(_laurent(_COEFFS), st.integers(1, 30), st.integers(-40, 40))
@example(LaurentPoly(), 3, 0)
@example(LaurentPoly([1, 1]), 5, 1)
def test_one_minus_pair_matches_laurent_products(f, j, i):
    product = f * _one_minus(j)
    times = qpoly._times_one_minus(f.coeffs, j)
    assert LaurentPoly(times, f.min_exp) == product
    assert LaurentPoly(qpoly._over_one_minus(times, j), f.min_exp) == f
    assert LaurentPoly(qpoly._over_one_minus(product.coeffs, j), product.min_exp) == f
    # Negative control: q^i is no multiple of 1 - q^j, so neither is the sum.
    assert qpoly._over_one_minus((product + LaurentPoly([1], i)).coeffs, j) is None
