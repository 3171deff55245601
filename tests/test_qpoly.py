"""The q side's coefficient lists against the test oracle.

`LaurentPoly`, `q_integer` and `laurent_divisible` live in
cell_oracle.py: the verifier works on plain int lists, and these tests
wrap what it returns in the oracle's `LaurentPoly` to compare.  The
cyclotomic polynomials the q-sun decider rests on are checked against
sympy's, and their multiplicities in [2k choose k] by exact division.
"""

from functools import lru_cache

import cell_oracle
import pytest
from cell_oracle import LaurentPoly, conjecture_final_value, laurent_divisible, q_binom, q_integer
from conftest import cases, cases_of
from hypothesis import example, given, settings, strategies as st
from sympy import Poly, cyclotomic_poly, symbols

from ivpverify import cli, qpoly
from ivpverify.combinat import binom_int
from ivpverify.qpoly import q_sun_sums
from ivpverify.cli import GridConfig, run

Q = LaurentPoly([0, 1])


def q_sun_sum(n, k):
    """The unscaled q-sum A_n of the cell (n, k), the last entry of row k up to n."""
    low, coeffs = q_sun_sums(k, n)[-1]
    return LaurentPoly(coeffs, low)


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


# Zeros and units often; huge magnitudes now and then.
_TEXT_COEFFS = st.one_of(
    st.integers(-2, 2),
    st.integers(2 ** 200, 2 ** 201),
    st.integers(-(2 ** 201), -(2 ** 200)),
)


@given(st.lists(_TEXT_COEFFS, max_size=12), st.integers(-8, 3))
@example([], 0)
@example([0, 0, 0], -2)
@example([0, -1, 1, 0, -1, 0, 0], -2)
@example([0, 1, -1, 2 ** 200], -1)
@example([-(2 ** 200), 0, 1], 0)
def test_q_text_matches_oracle_str(coeffs, low):
    # The witness text of a coefficient list against the oracle's own
    # copy of the renderer, which sees the list trimmed.
    assert qpoly._q_text(coeffs, low) == str(LaurentPoly(coeffs, low))


def test_q_text_hand_cases():
    assert qpoly._q_text([1, 2, 1], -1) == "q^-1 + 2 + q"
    assert qpoly._q_text([0, -1, 1, 0, -1, 0, 0], -2) == "-q^-1 + 1 - q^2"
    assert qpoly._q_text([0, 0], 5) == "0"
    assert qpoly._q_text([], 0) == "0"
    assert qpoly._q_text([0, 3, -2], 0) == "3*q - 2*q^2"


def test_q_integer():
    assert q_integer(1) == LaurentPoly([1])
    assert q_integer(3) == LaurentPoly([1, 1, 1])
    assert q_integer(7).eval_at_one() == 7
    with pytest.raises(ValueError):
        q_integer(0)


# The q-binomials the verifier builds are the central ones, [2k choose k]
# at entry k of `central_q_binomials`.

def test_q_binom_frozen_expansions():
    centrals = qpoly.central_q_binomials(4)
    assert centrals[0] == [1]
    assert centrals[2] == [1, 1, 2, 1, 1]
    assert centrals[3] == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]


def test_q_binom_symmetry():
    for central in qpoly.central_q_binomials(31):
        assert central == central[::-1]


def test_q_binom_specializes_to_binomials():
    for k, central in enumerate(qpoly.central_q_binomials(31)):
        assert sum(central) == binom_int(2 * k, k)


def test_q_binom_degree_and_positivity():
    # Every coefficient positive: the list has no zeros at either end.
    for k, central in enumerate(qpoly.central_q_binomials(31)):
        assert len(central) - 1 == k * k
        assert all(c > 0 for c in central)


def test_central_q_binomials_match_q_pascal_and_the_product_formula():
    # The running product over k against the oracle's q-Pascal rule,
    # one k at a time.
    centrals = qpoly.central_q_binomials(40)
    assert len(centrals) == 40
    for k, central in enumerate(centrals):
        pascal = cell_oracle.q_binom(2 * k, k)
        assert central == list(pascal.coeffs) and pascal.min_exp == 0, k
        assert sum(central) == binom_int(2 * k, k), k
    assert qpoly.central_q_binomials(0) == []


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
    assert q_sun_sums(0, 2) == [(0, [1]), (-1, [1, 2, 1])]
    assert q_sun_sums(1, 2) == [(-2, [1, 1, 1])]  # [3] [2 choose 2] q^-2
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


def _sympy(coeffs):
    """sum_i coeffs[i] x^i as a sympy Poly in x."""
    return Poly(list(coeffs[::-1]) or [0], X)


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
        assert [LaurentPoly(coeffs, low) for low, coeffs in q_sun_sums(k, 9)] == row


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


def _phi(d):
    """sympy's cyclotomic polynomial Phi_d, as an oracle polynomial."""
    return LaurentPoly([int(c) for c in Poly(cyclotomic_poly(d, X), X).all_coeffs()[::-1]])


def test_moebius_cyclotomic_matches_sympy():
    squares = qpoly.phi_squares(80)
    assert squares[:2] == [[], []] and len(squares) == 81
    for d in range(2, 81):
        assert squares[d] == list((_phi(d) * _phi(d)).coeffs)


def test_central_q_binomial_has_the_cyclotomic_factors_the_decider_skips():
    # Phi_d divides [2k choose k] exactly floor(2k/d) - 2 floor(k/d)
    # times, 0 or 1.  As Phi_d divides 1 - q^d, it divides [2k choose k]
    # exactly when it divides the fold of [2k choose k] modulo 1 - q^d.
    # The Phi_d that divide are distinct irreducibles whose degrees add
    # up to deg [2k choose k] = k^2, so [2k choose k] is their product:
    # none divides twice.
    phis = {d: _phi(d) for d in range(2, 81)}
    for k, b in enumerate(qpoly.central_q_binomials(41)):
        degree = 0
        for d, phi in phis.items():
            times = 2 * k // d - 2 * (k // d)
            fold = LaurentPoly([sum(b[r::d]) for r in range(d)])
            assert laurent_divisible(fold, phi)[0] == (times == 1), (k, d)
            degree += times * phi.max_exp
        assert degree == len(b) - 1 == k * k


@lru_cache(maxsize=None)
def _central_square(k):
    central = q_binom(2 * k, k)
    return central * central


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 30), st.integers(0, 29),
    st.sampled_from(("coefficient", "times 1 - q^e", "times Phi_n^2", "times Phi_2^2")),
    st.sampled_from((1, 2, 3, "n")), st.sampled_from((1, -1)),
    st.integers(0, 10 ** 4), st.integers(1, 30),
)
@example(4, 1, "times Phi_n^2", 1, 1, 3, 1)  # only d = 4 of 2, 4 is tested: the cell passes
@example(6, 0, "times Phi_n^2", 1, -1, 0, 1)  # Phi_6^2 divides the fault, Phi_2^2 does not
@example(6, 0, "times Phi_2^2", 1, 1, 0, 1)  # Phi_2^2 divides the fault: Phi_3^2 is named
@example(6, 0, "coefficient", 1, 1, 0, 1)  # Phi_2^2 and Phi_3^2 both fail: Phi_2^2 is named
@example(7, 2, "coefficient", 1, -1, 0, 1)  # the lowest coefficient 1 of A_7 becomes 0
@example(7, 2, "times 1 - q^e", 2, 1, 5, 7)  # Phi_7 divides the fault once
def test_q_sun_row_matches_long_division_under_faults(n, k, shape, scale, sign, j, e):
    # Add c q^j, c (1 - q^e) q^j, c Phi_n^2 q^j or c Phi_2^2 q^j to the
    # coefficients of A_n from its entry j, c = ±1..3 or ±n, and decide
    # the cell.  The verdict must be that of long division of the full
    # product by [n]^2, and the witness A_n modulo Phi_d^2 for the first
    # d | n whose Phi_d^2 does not divide the full product, from sympy.
    k, e = k % n, (e - 1) % n + 1
    low, a = q_sun_sums(k, n)[-1]
    factor = {
        "coefficient": [1],
        "times 1 - q^e": _one_minus(e).coeffs,
        "times Phi_n^2": (_phi(n) * _phi(n)).coeffs,
        "times Phi_2^2": (_phi(2) * _phi(2)).coeffs,
    }
    c = sign * (n if scale == "n" else scale)
    j %= len(a)
    faulted = a + [0] * max(0, j + len(factor[shape]) - len(a))
    for i, f in enumerate(factor[shape]):
        faulted[j + i] += c * f

    def corrupted(row_k, n_max):
        sums = q_sun_sums(row_k, n_max)
        sums[-1] = (low, faulted)
        return sums

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpoly, "q_sun_sums", corrupted)
        *earlier, cell = cases_of(qpoly.q_sun_row(k, n, qpoly.phi_squares(n)))
    assert all(case.ok for case in earlier)
    full = LaurentPoly(faulted, low) * _central_square(k)
    ok, _ = laurent_divisible(full, q_integer(n) * q_integer(n))
    assert cell.ok == ok
    if not ok:
        d = next(d for d in range(2, n + 1)
                 if n % d == 0 and not laurent_divisible(full, _phi(d) * _phi(d))[0])
        rem = _sympy(faulted).rem(_sympy((_phi(d) * _phi(d)).coeffs)).all_coeffs()[::-1]
        assert cell.witness == f"A_{n} = {LaurentPoly([int(r) for r in rem], low)} mod Phi_{d}^2"


def test_passing_q_sun_rows_only_square_phi_and_reduce_by_each_tested_d(monkeypatch):
    # A passing cell never forms [2k choose k]; Phi_d^2 is built once per
    # run, before any row runs, and the cell reduces A_n once per d it
    # tests, to 2d coefficients.
    central_calls, square_calls, moduli = [], [], []
    phi_squares, residue = qpoly.phi_squares, qpoly._residue

    def counting_squares(n_max):
        square_calls.append((n_max,))
        return phi_squares(n_max)

    def counting_residue(coeffs, d):
        moduli.append(d)
        return residue(coeffs, d)

    monkeypatch.setattr(qpoly, "central_q_binomials", lambda *args: central_calls.append(args))
    monkeypatch.setattr(qpoly, "phi_squares", counting_squares)
    monkeypatch.setattr(qpoly, "_residue", counting_residue)
    n_max = 24
    rows = cli._task_rows(cli.GridConfig("q-sun", n_max=n_max))["q-sun"]
    assert square_calls == [(n_max,)]
    for k, row in enumerate(rows):
        moduli.clear()
        assert all(case.ok for case in cases_of(row()))
        assert moduli == [
            d for n in range(k + 1, n_max + 1) for d in range(2, n + 1)
            if n % d == 0 and 2 * k // d == 2 * (k // d)
        ]
    assert square_calls == [(n_max,)]
    assert central_calls == []


def test_a_failing_q_sun_run_builds_what_a_passing_one_builds(monkeypatch):
    # With 1 added to the lowest coefficient of every A_n, most cells
    # fail; their witnesses read the remainders that decided them, so
    # the run forms no [2k choose k] and builds the q-sums and Phi_d^2
    # that the passing run builds.
    calls = {}
    for name in ("central_q_binomials", "q_sun_sums", "phi_squares"):
        def counted(*args, original=getattr(qpoly, name), name=name):
            calls.setdefault(name, []).append(args)
            return original(*args)

        monkeypatch.setattr(qpoly, name, counted)
    config = cli.GridConfig("q-sun", n_max=10, jobs=1)
    assert cli.run(config).ok
    passing = dict(calls)
    calls.clear()
    counted_sums = qpoly.q_sun_sums

    def corrupted(k, n_max):
        return [(low, [coeffs[0] + 1, *coeffs[1:]]) for low, coeffs in counted_sums(k, n_max)]

    monkeypatch.setattr(qpoly, "q_sun_sums", corrupted)
    failing = [dict(case.key)["k"] for case in cases(cli.run(config)) if not case.ok]
    assert len(failing) > len(set(failing)) > 1
    assert "central_q_binomials" not in calls
    assert calls == passing
