"""Acceptance suite: one test per criterion, every check exact.

Each criterion runs its full grid at the stated scale and asserts both
correctness (zero tolerance -- these are identities and congruences
over exact integers/rationals) and the stated wall-time budget.
`pytest -v` therefore prints one pass/fail line per criterion.
"""

import json
import random
import time
from fractions import Fraction

from cell_oracle import LaurentPoly, coefficients, q_binom
from conftest import cases

from ivpverify import cli, qpoly
from ivpverify.cli import GridConfig
from ivpverify.combinat import binom_int, catalan


def _within(budget_s, *reports):
    """Assert every report passed and the combined runtime fits the budget."""
    elapsed = sum(r.wall_time_s for r in reports)
    for r in reports:
        bad = [f"{c.label}: {c.witness}" for c in cases(r) if not c.ok]
        assert r.ok, f"{r.task} failed {r.failed}/{r.total}: {bad[:5]}"
    assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    total = sum(r.total for r in reports)
    print(f"PASS {total} cases in {elapsed:.2f}s (budget {budget_s}s)")


def test_criterion_01_transformation_identity_to_n40():
    _within(30, cli.run(GridConfig("transform", n_max=40)))


def test_criterion_02_recurrence_both_closed_forms_to_n38():
    report = cli.run(GridConfig("recurrence", n_max=40))
    families = {dict(c.key)["family"] for c in cases(report)}
    assert families == {"base", "lhs", "rhs"}
    shifts = [dict(c.key)["n"] for c in cases(report) if dict(c.key)["family"] == "lhs"]
    assert max(shifts) == 38
    _within(30, report)


def test_criterion_03_chu_vandermonde_to_k30():
    _within(5, cli.run(GridConfig("chu-vandermonde", k_max=30)))


def test_criterion_04_weighted_sums_integer_valued_l4_n25():
    _within(120, cli.run(GridConfig("theorem1", l_max=4, n_max=25)))


def test_criterion_05_squared_weight_theorem_and_catalan_form():
    _within(
        60,
        cli.run(GridConfig("theorem2", n_max=25)),
        cli.run(GridConfig("catalan-form", n_max=25)),
        cli.run(GridConfig("telescope", n_max=100)),
    )


def test_criterion_06_schmidt_coefficients_divisible_l3_n20():
    _within(30, cli.run(GridConfig("lemma-schmidt", l_max=3, n_max=20)))


def test_criterion_07_congruence_mod_n_squared_l4_n50():
    report = cli.run(GridConfig("conjecture-final", l_max=4, n_max=50))
    # Open rows must be distinguishable from proved ones in the output.
    for c in cases(report):
        expected = "theorem" if dict(c.key)["l"] == 1 else "conjecture"
        assert c.severity == expected
    _within(120, report)


def test_criterion_08_q_congruence_and_specialization_n40():
    # q-specialize matches every cell against the classical l=1 column.
    _within(
        60,
        cli.run(GridConfig("q-sun", n_max=40)),
        cli.run(GridConfig("q-specialize", n_max=40)),
    )


def test_criterion_09_half_integer_identities_to_n30():
    _within(
        10,
        cli.run(GridConfig("sun-one", n_max=30)),
        cli.run(GridConfig("sun-two", n_max=30)),
    )


def test_criterion_10_property_suites_and_determinism(tmp_path):
    t0 = time.perf_counter()

    # Values -> coefficients round-trip at degree 60 with denominators up to 1000.
    rng = random.Random(20230814)
    for _ in range(12):
        coeffs = [
            Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000)) for _ in range(61)
        ]
        values = [sum(c * x ** i for i, c in enumerate(coeffs)) for x in range(61)]
        assert coefficients(values) == coeffs

    # The central q-binomials through [60 choose 30] against the q-Pascal
    # oracle, with their symmetry and their value at q = 1.
    for k, central in enumerate(qpoly.central_q_binomials(31)):
        v = LaurentPoly(central)
        assert v == q_binom(2 * k, k) and v.min_exp == 0
        assert central == central[::-1]
        assert v.eval_at_one() == binom_int(2 * k, k)

    # Pascal and negation identities for the scalar binomial.
    for n in range(-20, 21):
        for k in range(1, 21):
            assert binom_int(n, k) == binom_int(n - 1, k - 1) + binom_int(n - 1, k)
    for n in range(1, 16):
        for k in range(16):
            assert binom_int(-n, k) == (-1) ** k * binom_int(n + k - 1, k)

    # Catalan consistency.
    for k in range(201):
        assert catalan(k) * (k + 1) == binom_int(2 * k, k)

    # Parallel output is byte-identical to serial, wall time aside.
    serial_csv, parallel_csv = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["conjecture-final", "--l-max", "2", "--n-max", "12", "--format", "csv"]
    assert cli.main(base + ["--jobs", "1", "--out", str(serial_csv)]) == 0
    assert cli.main(base + ["--jobs", "4", "--out", str(parallel_csv)]) == 0
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    serial_json, parallel_json = tmp_path / "s.json", tmp_path / "p.json"
    base = ["all", "--l-max", "1", "--n-max", "6", "--k-max", "6",
            "--x-min", "-3", "--x-max", "3", "--format", "json"]
    assert cli.main(base + ["--jobs", "1", "--out", str(serial_json)]) == 0
    assert cli.main(base + ["--jobs", "3", "--out", str(parallel_json)]) == 0
    left = json.loads(serial_json.read_text())
    right = json.loads(parallel_json.read_text())
    left.pop("meta"), right.pop("meta")
    assert left == right

    print(f"PASS property suites + determinism in {time.perf_counter() - t0:.2f}s")
