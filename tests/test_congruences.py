from fractions import Fraction

import pytest
import sympy
from cell_oracle import coefficients, first_non_multiple, forward_differences
from conftest import cases

from ivpverify.combinat import binom_int, catalan, double_factorial_odd
from ivpverify.congruences import (
    catalan_form_values,
    conjecture_final_values,
    schmidt_coefficient_rows,
    weighted_sum_rows,
)
from ivpverify.cli import GridConfig, run
from ivpverify.identities import build_lhs, central_columns, in_central_basis


def _weighted(l, n, eps):
    """The weighted sum for (l, n, eps): the last entry of its row."""
    return weighted_sum_rows(l, eps, build_lhs(n - 1, 2 * n - 1))[-1]


def _at(coeffs, x0):
    """Evaluate little-endian coefficients at x0 by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


def test_schmidt_coeffs_frozen_examples():
    assert schmidt_coefficient_rows(1, 1, central_columns(2)) == [(1,), (4, 6)]
    assert schmidt_coefficient_rows(2, -1, central_columns(2))[1] == (-26, -54)
    assert schmidt_coefficient_rows(1, -1, central_columns(1)) == [(1,)]  # divisible by n = 1


def test_schmidt_divisibility_grid():
    report = run(GridConfig("lemma-schmidt", l_max=3, n_max=12))
    assert report.ok
    assert report.total == 3 * 12 * 2
    assert cases(report)[0].label == "l=1;n=1;eps=-1"


def test_schmidt_rejects_bad_args():
    with pytest.raises(ValueError):
        schmidt_coefficient_rows(0, 1, central_columns(2))
    with pytest.raises(ValueError):
        schmidt_coefficient_rows(1, 2, central_columns(2))
    with pytest.raises(ValueError):
        schmidt_coefficient_rows(1, 1, central_columns(0))


def test_schmidt_combination_recovers_weighted_sum():
    # Substituting x_j = C(2j,j) C(x+j,2j) into the coefficient vector
    # must reproduce the weighted sum at each of its 2n-1 points.
    for l in (1, 2):
        for eps in (1, -1):
            weighted = weighted_sum_rows(l, eps, build_lhs(4, 9))
            for n, coeffs in enumerate(schmidt_coefficient_rows(l, eps, central_columns(5)), 1):
                values = tuple(
                    sum(
                        cj * binom_int(2 * j, j) * binom_int(x + j, 2 * j)
                        for j, cj in enumerate(coeffs)
                    )
                    for x in range(2 * n - 1)
                )
                assert values == weighted[n - 1]


def test_theorem1_polynomial_hand_cases():
    # n times the 1/n polynomial: 1, 2 (3x^2+3x+2) and -(3x^2+3x+1).
    assert weighted_sum_rows(1, 1, build_lhs(0, 1)) == [(1,)]
    assert coefficients(_weighted(1, 2, 1)) == [4, 6, 6]
    assert coefficients(_weighted(1, 2, -1)) == [-2, -6, -6]
    with pytest.raises(ValueError):
        weighted_sum_rows(1, 0, build_lhs(1, 3))


def test_theorem1_scaled_by_n_has_integer_basis():
    for l in (1, 3):
        for n in (2, 5, 8):
            values = _weighted(l, n, -1)
            assert all(type(d) is int for d in forward_differences(values))
            assert first_non_multiple(values, n) is None


def test_theorem1_grid_is_integer_valued():
    report = run(GridConfig("theorem1", l_max=2, n_max=10))
    assert report.ok and report.total == 2 * 10 * 2


def test_theorem2_hand_case():
    # (1/4)(1 + 3 (2x^2+2x+1)) = 1 + 3C(x,1) + 3C(x,2)
    values = _weighted(1, 2, 1)
    assert [Fraction(c, 4) for c in coefficients(values)] == [1, Fraction(3, 2), Fraction(3, 2)]
    assert forward_differences(values) == [4, 12, 12]


def test_theorem2_grid_is_integer_valued():
    report = run(GridConfig("theorem2", n_max=12))
    assert report.ok and report.total == 12


def _catalan_form_full(n_max):
    """The Catalan form of n = 1 .. n_max (entry n-1) at x = 0 .. 2n-2,
    its full degree, summed in the basis C(x+k,2k) by `in_central_basis`."""
    ns = range(1, n_max + 1)
    weights = [[catalan(k) * binom_int(n - 1, k) * binom_int(n + k, k) for k in range(n)]
               for n in ns]
    return in_central_basis(weights, [2 * n - 1 for n in ns])


def test_catalan_form_matches_theorem2():
    # The two sides agree at every x up to their degree 2n-2, not only at
    # the x = 0 .. n-1 the row decides on, where catalan_form_values
    # holds the Catalan form.
    full = _catalan_form_full(10)
    for n, values in enumerate(weighted_sum_rows(1, 1, build_lhs(9, 19)), 1):
        assert values == tuple(n * n * c for c in full[n - 1])
        assert catalan_form_values(10)[n - 1] == full[n - 1][:n]


def test_catalan_form_n2_terms():
    # k=0 contributes 1; k=1 contributes catalan(1) C(1,1) C(3,1) C(x+1,2)
    # = 3 x(x+1)/2, so the total is (3x^2+3x+2)/2.
    assert coefficients(_catalan_form_full(2)[1]) == [1, Fraction(3, 2), Fraction(3, 2)]


def test_catalan_form_report_keys():
    report = run(GridConfig("catalan-form", n_max=4, x_min=-3, x_max=3))
    assert report.ok
    assert report.total == 4 + 4 * 7
    assert cases(report)[0].key == (("part", "identity"), ("n", 1))


def test_conjecture_final_frozen_values():
    assert conjecture_final_values(1, 0, central_columns(2)) == [1, 4]  # n = 1, 2 at k = 0
    assert conjecture_final_values(1, 1, central_columns(2)) == [12]
    value = conjecture_final_values(2, 0, central_columns(3))[2]
    assert value == 459 and value % 9 == 0


def test_conjecture_final_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        conjecture_final_values(1, 3, central_columns(3))
    with pytest.raises(ValueError):
        conjecture_final_values(1, -1, central_columns(3))
    with pytest.raises(ValueError):
        conjecture_final_values(0, 0, central_columns(3))


def test_conjecture_final_l1_closed_form():
    for k in range(25):
        for n, value in enumerate(conjecture_final_values(1, k, central_columns(25)), k + 1):
            closed = n * binom_int(n, k + 1) * binom_int(n + k, k) * binom_int(2 * k, k)
            assert value == closed


def test_conjecture_final_grid_and_severity():
    report = run(GridConfig("conjecture-final", l_max=2, n_max=8))
    assert report.ok
    by_severity = {c.severity for c in cases(report)}
    assert by_severity == {"theorem", "conjecture"}
    for c in cases(report):
        l = dict(c.key)["l"]
        assert c.severity == ("theorem" if l == 1 else "conjecture")


def test_sun_m_equals_one_always_integral():
    # For m=1 the inner sum collapses to (-1)^k, so the weighted sum is
    # divisible by n by the classical alternating-odd-powers congruences.
    report = run(GridConfig("conjecture-sun-m", m=1, l_max=2, n_max=8, x_min=-5, x_max=5))
    assert report.ok
    assert all(c.severity == "theorem" for c in cases(report))


def test_sun_m_equals_two_matches_theorem1():
    report = run(GridConfig("conjecture-sun-m", m=2, l_max=2, n_max=6, x_min=-4, x_max=4))
    assert report.ok
    # Cross-check a few cells against the polynomial route.
    for l, n, eps in [(1, 3, 1), (2, 5, -1), (2, 6, 1)]:
        p = coefficients(_weighted(l, n, eps))
        for x0 in (-4, 0, 3):
            assert (_at(p, x0) / n).denominator == 1


def test_sun_m_three_spot_check():
    report = run(GridConfig("conjecture-sun-m", m=3, l_max=2, n_max=6, x_min=-8, x_max=8))
    assert report.ok
    assert all(c.severity == "conjecture" for c in cases(report))
    assert any("complete" in note for note in report.notes)


def test_sun_m_completeness_note_cutoff():
    # 11 points cover degree m(n-1) <= 10, so m=2 certifies n <= 6 fully.
    report = run(GridConfig("conjecture-sun-m", m=2, l_max=1, n_max=9, x_min=-5, x_max=5))
    assert "n <= 6" in report.notes[0]


def test_sun_ii_polynomial_l1_is_theorem2():
    sun_ii = run(GridConfig("conjecture-sun-ii", l_max=1, n_max=9))
    theorem2 = run(GridConfig("theorem2", n_max=9))
    assert [(c.key[1], c.status) for c in cases(sun_ii)] == [
        (c.key[0], c.status) for c in cases(theorem2)
    ]


def test_sun_ii_l2_hand_value():
    # l=2, n=2: (3/4)(1 + 27 (2x^2+2x+1)); check through the binomial
    # basis instead of trusting hand algebra.
    values = _weighted(2, 2, 1)
    assert values == tuple(1 + 27 * (2 * x * x + 2 * x + 1) for x in range(3))
    assert forward_differences([3 * v for v in values]) == [84, 324, 324]
    assert first_non_multiple([3 * v for v in values], 4) is None


def test_sun_ii_grid_and_severity():
    report = run(GridConfig("conjecture-sun-ii", l_max=3, n_max=10))
    assert report.ok and report.total == 30
    for c in cases(report):
        l = dict(c.key)["l"]
        assert c.severity == ("theorem" if l == 1 else "conjecture")


def test_weight_double_factorial_consistency():
    # sun_ii is (2l-1)!!/n times theorem1(+1): the theorem1 values are
    # multiples of n in every difference, their (2l-1)!! multiples of n^2.
    for l, n in [(2, 3), (3, 4)]:
        values = _weighted(l, n, 1)
        assert first_non_multiple(values, n) is None
        scaled = [double_factorial_odd(l) * v for v in values]
        assert first_non_multiple(scaled, n * n) is None
        assert cases(run(GridConfig("conjecture-sun-ii", l_max=l, n_max=n)))[-1].ok


def test_weighted_sum_values_match_sympy():
    # The weighted sum rebuilt from a second CAS, evaluated at x = 0 .. 2n-2.
    x = sympy.symbols("x")
    for l, n, eps in [(1, 1, 1), (1, 3, -1), (2, 3, 1), (2, 4, -1), (3, 2, 1)]:
        expr = sum(
            eps ** k * (2 * k + 1) ** (2 * l - 1)
            * sympy.expand_func(sympy.binomial(-x - 1, j)) ** 2
            * sympy.expand_func(sympy.binomial(x, k - j)) ** 2
            for k in range(n)
            for j in range(k + 1)
        )
        poly = sympy.Poly(sympy.expand(expr), x)
        expected = tuple(int(poly.eval(x0)) for x0 in range(2 * n - 1))
        assert _weighted(l, n, eps) == expected
