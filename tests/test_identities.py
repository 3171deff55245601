from fractions import Fraction

import pytest
import sympy
from cell_oracle import binom_rat, coefficients, eval_transform_at
from conftest import cases
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpverify.combinat import binom_int
from ivpverify.identities import build_lhs, build_rhs, power_sums, recurrence_coefficients
from ivpverify.cli import GridConfig, run


def test_small_closed_forms():
    assert build_lhs(0, 1)[0] == build_rhs(0, 1)[0] == (1,)
    assert build_lhs(1, 3)[1] == build_rhs(1, 3)[1] == (1, 5, 13)
    assert coefficients(build_lhs(1, 3)[1]) == [1, 2, 2]


def test_both_sides_agree_up_to_ten():
    for n in range(11):
        lhs, rhs = build_lhs(n, 2 * n + 1)[n], build_rhs(n, 2 * n + 1)[n]
        assert lhs == rhs, f"closed forms differ at n={n}"


def test_degrees_and_leading_coefficients_match():
    # Two points beyond 2n+1 would expose any term of degree above 2n.
    for n in range(9):
        lhs = coefficients(build_lhs(n, 2 * n + 3)[n])
        rhs = coefficients(build_rhs(n, 2 * n + 3)[n])
        assert len(lhs) == len(rhs) == 2 * n + 1
        assert lhs[2 * n] == rhs[2 * n]


def test_sympy_expansion_agrees_with_build_lhs():
    # Independent construction through a second CAS, term by term.
    x = sympy.symbols("x")
    for n in range(7):
        expr = sympy.expand(
            sum(
                sympy.expand_func(sympy.binomial(-x - 1, k)) ** 2
                * sympy.expand_func(sympy.binomial(x, n - k)) ** 2
                for k in range(n + 1)
            )
        )
        poly = sympy.Poly(expr, x)
        theirs = [Fraction(str(c)) for c in reversed(poly.all_coeffs())]
        assert coefficients(build_lhs(n, 2 * n + 1)[n]) == theirs
        assert coefficients(build_rhs(n, 2 * n + 1)[n]) == theirs


def test_values_at_one_are_sum_of_two_squares():
    # S_n(1) = n^2 + (n+1)^2: at x=1 only k=n-1 and k=n survive on the left.
    for n in range(25):
        assert build_lhs(n, 2)[n][1] == n * n + (n + 1) ** 2


def test_value_at_zero_is_always_one():
    for n in range(25):
        assert build_lhs(n, 1)[n] == build_rhs(n, 1)[n] == (1,)


def test_symmetry_under_argument_reflection():
    for n in range(11):
        values = build_lhs(n, 11)[n]
        for x0 in range(11):
            assert eval_transform_at(n, -x0 - 1) == values[x0]


def test_integer_points_give_nonnegative_integers():
    for n in range(21):
        for v in build_lhs(n, 41)[n]:
            assert type(v) is int and v >= 0
        for x0 in range(-20, 0):
            v = eval_transform_at(n, x0)
            assert v.denominator == 1 and v >= 0


def test_verify_transformation_report():
    report = run(GridConfig("transform", n_max=12))
    assert report.ok
    assert report.total == 13
    assert [c.label for c in cases(report)[:3]] == ["n=0", "n=1", "n=2"]


def test_recurrence_coefficients_at_zero():
    for x in range(-3, 4):
        assert recurrence_coefficients(0, x) == (8, 9 + 6 * x + 6 * x * x, 1)


def test_recurrence_explicit_n0():
    # The residual has degree <= 4, so five points decide it.
    s0, s1, s2 = build_lhs(0, 5)[0], build_lhs(1, 5)[1], build_lhs(2, 5)[2]
    for x in range(5):
        a, b, c = recurrence_coefficients(0, x)
        assert a * s2[x] - b * s1[x] + c * s0[x] == 0


# The verdicts on S read each claim at x = 0 .. d only, which is sound
# because every claim is symmetric about x = -1/2 (see `values`).  These
# tests check that premise on the unfaulted builders' ingredients.

@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), x=st.integers(-40, 40), count=st.integers(0, 25))
def test_power_sums_are_symmetric(m, x, count):
    # m = 1 is the Chu-Vandermonde sum, m = 2 the left form of S.
    assert power_sums(m, x, count) == power_sums(m, -1 - x, count)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(-60, 60), k=st.integers(0, 40))
def test_central_basis_is_symmetric(x, k):
    # C(x+k,2k) carries the right form of S and the Catalan form.
    assert binom_int(x + k, 2 * k) == binom_int(k - 1 - x, 2 * k)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 200), x=st.integers(-10 ** 6, 10 ** 6))
def test_recurrence_coefficients_are_symmetric(n, x):
    assert recurrence_coefficients(n, x) == recurrence_coefficients(n, -1 - x)


def test_recurrence_holds_for_both_families():
    report = run(GridConfig("recurrence", n_max=10))
    assert report.ok
    # two base cases plus two families of shifts 0..8
    assert report.total == 2 + 2 * 9


def test_chu_vandermonde_collapses_to_sign():
    report = run(GridConfig("chu-vandermonde", k_max=12))
    assert report.ok and report.total == 13


def test_chu_vandermonde_hand_cases():
    from ivpverify.combinat import binom_int

    # k=1: (-x-1) + x = -1
    for x in range(-5, 6):
        assert binom_int(-x - 1, 1) + binom_int(x, 1) == -1


def test_telescoped_sum_hand_case():
    from ivpverify.combinat import binom_int

    lhs = sum((2 * m + 1) * binom_int(m, 0) * binom_int(0, 0) for m in range(0, 2))
    assert lhs == 4 == 2 * binom_int(2, 1) * binom_int(2, 0)


def test_telescoped_sum_single_term_cases():
    from ivpverify.combinat import binom_int

    # n = k+1 leaves one term: (2k+1) C(2k,2k) C(2k,k)
    for k in range(30):
        lhs = (2 * k + 1) * binom_int(2 * k, k)
        rhs = (k + 1) * binom_int(k + 1, k + 1) * binom_int(2 * k + 1, k)
        assert lhs == rhs


def test_telescoped_sum_report():
    report = run(GridConfig("telescope", n_max=30))
    assert report.ok and report.total == 30 * 31 // 2


def test_sun_identity_one_frozen_values():
    # 16^n * sum C(-1/2,k)^2 C(-1/2,n-k)^2 for n = 0..3
    halves = Fraction(-1, 2)
    values = [
        16 ** n
        * sum(binom_rat(halves, k) ** 2 * binom_rat(halves, n - k) ** 2 for k in range(n + 1))
        for n in range(4)
    ]
    assert values == [1, 8, 88, 1088]
    assert run(GridConfig("sun-one", n_max=20)).ok


def test_sun_identity_two_frozen_values():
    values = [
        64 ** n
        * sum(
            binom_rat(Fraction(-1, 4), k) ** 2 * binom_rat(Fraction(-3, 4), n - k) ** 2
            for k in range(n + 1)
        )
        for n in range(4)
    ]
    assert values == [1, 40, 2008, 109120]
    assert run(GridConfig("sun-two", n_max=20)).ok


def test_eval_transform_at():
    assert eval_transform_at(1, 0) == 1
    assert eval_transform_at(1, Fraction(-1, 2)) == Fraction(1, 2)
    assert eval_transform_at(2, 3) == 253
    assert eval_transform_at(7, -4) == eval_transform_at(7, 3)
    with pytest.raises(ValueError):
        eval_transform_at(-1, 0)


def test_half_integer_evaluations_are_scaled_integers():
    # The x = -1/2 and x = -3/4 strands: 16^n S_n(-1/2) and 64^n S_n(-3/4)
    # are integers even though both points are deep in rational territory.
    for n in range(12):
        assert (16 ** n * eval_transform_at(n, Fraction(-1, 2))).denominator == 1
        assert (64 ** n * eval_transform_at(n, Fraction(-3, 4))).denominator == 1
