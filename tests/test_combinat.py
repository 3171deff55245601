import math
from fractions import Fraction

import pytest
from cell_oracle import binom_rat
from hypothesis import given, strategies as st

from ivpverify.combinat import binom_int, catalan, double_factorial_odd


def test_binom_int_small_values():
    assert binom_int(4, 2) == 6
    assert binom_int(0, 0) == 1
    assert binom_int(10, 3) == 120
    assert binom_int(3, 7) == 0


def test_binom_int_k_zero_is_one_for_any_n():
    for n in (-17, -1, 0, 5, 123456):
        assert binom_int(n, 0) == 1


def test_binom_int_minus_one_alternates():
    for k in range(11):
        assert binom_int(-1, k) == (-1) ** k


def test_binom_int_negative_k_rejected():
    with pytest.raises(ValueError):
        binom_int(5, -1)


def test_pascal_rule_on_grid():
    for n in range(-20, 21):
        for k in range(1, 21):
            assert binom_int(n, k) == binom_int(n - 1, k - 1) + binom_int(n - 1, k)


def test_negation_identity():
    # C(-n, k) = (-1)^k C(n+k-1, k)
    for n in range(1, 16):
        for k in range(16):
            assert binom_int(-n, k) == (-1) ** k * binom_int(n + k - 1, k)


@given(st.integers(-60, 60), st.integers(0, 40))
def test_binom_rat_matches_binom_int_on_integers(n, k):
    assert binom_rat(n, k) == binom_int(n, k)


def test_binom_rat_half_integer_values():
    assert binom_rat(Fraction(-1, 2), 1) == Fraction(-1, 2)
    assert binom_rat(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert binom_rat(Fraction(7, 3), 0) == 1
    assert binom_rat(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_binom_rat_negative_k_rejected():
    with pytest.raises(ValueError):
        binom_rat(Fraction(1, 2), -3)


def test_double_factorial_odd():
    assert double_factorial_odd(1) == 1
    assert double_factorial_odd(2) == 3
    assert double_factorial_odd(3) == 15
    assert double_factorial_odd(4) == 105
    with pytest.raises(ValueError):
        double_factorial_odd(0)


def test_catalan_values():
    assert [catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_catalan_times_k_plus_one_is_central_binomial():
    for k in range(201):
        assert catalan(k) * (k + 1) == binom_int(2 * k, k)


def test_catalan_negative_rejected():
    with pytest.raises(ValueError):
        catalan(-1)


@pytest.mark.parametrize("bad_args", [(6, 3), (6, 2)])
def test_catalan_checks_survive_without_asserts(monkeypatch, bad_args):
    # (6, 3) breaks the divisibility of C(6,3) by 4; (6, 2) breaks the
    # cross-check against C(6,3) - C(6,2).  Both must raise under -O too.
    real = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: real(n, k) + ((n, k) == bad_args))
    with pytest.raises(ArithmeticError):
        catalan(3)
