"""The symmetric rule of `ivpverify.values`, on which every verdict on
S_n rests, its witnesses' `first_difference`, and the oracle's Newton
interpolation (`cell_oracle.forward_differences` and `coefficients`),
through which the tests read monomial coefficients, against sympy."""

from fractions import Fraction

import sympy
from cell_oracle import coefficients, first_non_multiple, forward_differences
from conftest import cases_of
from hypothesis import given, settings, strategies as st

from ivpverify import congruences, identities
from ivpverify.combinat import binom_int
from ivpverify.values import first_difference

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
coeff_lists = st.lists(rationals, max_size=61)


def _at(coeffs, x0):
    """Evaluate little-endian coefficients at x0 by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


def _trimmed(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def test_forward_difference_examples():
    assert forward_differences([0, 1]) == [0, 1]  # x = C(x,1)
    assert forward_differences([0, 1, 4]) == [0, 1, 2]  # x^2 = C(x,1) + 2C(x,2)
    assert forward_differences([7]) == [7]
    assert forward_differences([]) == []


def test_interpolation_examples():
    assert coefficients([0, 1, 4]) == [0, 0, 1]
    assert coefficients([1, 5, 13]) == [1, 2, 2]
    assert coefficients([0, 1, 4, 9]) == [0, 0, 1]  # trailing zeros trimmed
    assert coefficients([0, 0]) == []


@given(coeff_lists)
@settings(max_examples=60)
def test_interpolation_round_trip(coeffs):
    values = [_at(coeffs, x) for x in range(len(coeffs))]
    assert coefficients(values) == _trimmed(coeffs)


def _sympy_coefficients(points):
    """Little-endian monomial coefficients, as Fractions, of sympy's
    interpolating polynomial through the (x, value) points."""
    x = sympy.symbols("x")
    poly = sympy.Poly(sympy.interpolate(points, x), x)
    return _trimmed(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def test_interpolation_of_s_n_matches_sympy():
    # The tests' case: S_n at x = 0 .. 2n, d! as large as (2n)!.
    for n in (0, 1, 5, 10):
        values = identities.build_lhs(n, 2 * n + 1)[n]
        assert coefficients(values) == _sympy_coefficients(list(enumerate(values)))


@given(st.lists(st.integers(-1000, 1000), max_size=40), st.integers(1, 30))
@settings(max_examples=40)
def test_integer_valuedness_matches_pointwise_criterion(values, m):
    # p/m, with p the polynomial through values, is integer-valued exactly
    # when the difference criterion says so; a witness is a point where it is not.
    p = coefficients(values)
    degree = len(values) - 1
    pointwise = all(
        (_at(p, x0) / m).denominator == 1 for x0 in range(-degree - 1, degree + 2)
    )
    witness = first_non_multiple(values, m)
    assert (witness is None) == pointwise
    if witness is not None:
        assert 0 <= witness <= degree
        assert values[witness] % m


@given(
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=12),
    st.integers(1, 400),
    st.integers(0, 12),
)
@settings(max_examples=300)
def test_symmetric_first_non_multiple_is_read_at_x_up_to_d(coords, m, multiples):
    # p = sum_{k<=d} c_k C(x+k,2k) is symmetric of degree <= 2d.  The
    # first x <= d with p(x) % m is the first forward difference over
    # x = 0 .. 2d that m does not divide, so the witness p(x0) of an
    # integer-valuedness cell is the same from d+1 values as from 2d+1.
    # The first `multiples` coordinates are made multiples of m, so the
    # first failing x lands anywhere in 0 .. d, or nowhere.
    coords = [c * m for c in coords[:multiples]] + coords[multiples:]
    d = len(coords) - 1
    values = [
        sum(c * binom_int(x + k, 2 * k) for k, c in enumerate(coords)) for x in range(2 * d + 1)
    ]
    x0 = first_non_multiple(values, m)
    assert next((x for x, v in enumerate(values[: d + 1]) if v % m), None) == x0
    [case] = cases_of(congruences._int_valued_row(("d",), [[d]], [(values[: d + 1], m)]))
    assert case.ok == (x0 is None)
    if x0 is not None:
        assert case.witness == f"p({x0}) = {Fraction(values[x0], m)} is not an integer"


def test_first_non_multiple_classics():
    # x(x+1)/2 is the classic non-trivially integer-valued polynomial.
    assert first_non_multiple([x * (x + 1) for x in range(3)], 2) is None
    assert first_non_multiple([0, 1], 2) == 1  # x/2 fails first at x = 1
    assert first_non_multiple([4 - 3 * x + 12 * x * x for x in range(3)], 1) is None
    assert first_non_multiple([], 5) is None


def test_first_difference_is_the_first_point_where_the_sides_disagree():
    assert first_difference([1, 5, 13], [1, 5, 14]) == 2
    assert first_difference([1, 5], [1, 6], [1, 5]) == 1
    assert first_difference([0, 0, 7, 0], iter([0] * 9)) == 2
    assert first_difference([3, 4], [2, 4]) == 0
