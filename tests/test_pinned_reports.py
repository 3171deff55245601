"""Pinned report bytes and pinned failure witnesses.

The digests below were recorded from `verify all --n-max 8` before the
verifiers' helpers were merged; any change to a verdict, witness,
severity, cell key or config echo changes them.  The JSON digest is of
`json.dumps(indent=2)` bytes without `meta`: one test re-encodes the
file `verify` writes, as when it was recorded, and one hashes the
writer's own bytes as written, so drift in its whitespace or escaping
shows too.  The fault-injection
tests add a polynomial to the values of one entry of the table or row
one builder returns and check the exact witness the failing cell
carries, its severity and the exit code.  Where a task decides a grid
row from one running sum, the fault goes into one entry of the row its
row builder returns, or into one step of the running sum, which must
fail that cell and every later one.
The scalar tasks' witness literals were recorded when every polynomial
was still built from its rational coefficients and every cell still
formatted a witness; their faults change one binomial or
coefficient.  The closed form n C(n,k+1) C(n+k,k) of telescope and of
conjecture-final at l = 1 is now a running product that reads no
binomial, so their faults change the factor C(n,k+1) of one entry of
`telescope_rhs` instead, and telescope's keeps its literal.  The catalan-form summand literals were recorded when the
summands became one row per n, which forms each weight once: their
faults change one binomial of a weight.  The q-sun and q-specialize
faults add 1 to one coefficient of one unscaled q-sum A_n, so the full product
A_n [2k choose k]^2 gains [2k choose k]^2; each of their literals is
checked against long division of that faulted full product, which
q-sun itself never forms: it decides a cell from the cyclotomic
factors of [n]^2 and forms a remainder only for a failing cell's
witness.  The q reports are pinned to n = 25 as well, digests recorded
while q-sun still formed every full product, and q-sun to n = 45, a
digest recorded while it still formed the residue remainder of every
cell.  The scalar tasks are pinned at the benchmark's bounds by the
digest of the JSON writer's own bytes.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from cell_oracle import LaurentPoly, laurent_divisible, q_integer
from conftest import serialize_report

from ivpverify import cli, congruences, identities, qpoly

ALL_JSON_SHA256 = "ef4fe704ddafec864b40f97e8647fb10025cf3f2bf1dd9721e3d8b865cfc4f73"
ALL_CSV_SHA256 = "5f65842804368cb3a7e29f38cbcdf98bbcad1e406fbd8309eb2760759c0c9ca6"
Q_CSV_SHA256 = {
    "q-sun": "b7a9e12e16f85a83141a03bc8d34deec6f518585af917a0af82f0f02a3763964",
    "q-specialize": "f818e83247a8b684bf388b62e5931dc1b427e9529565276d66b3dde7761e7af1",
}
# q-sun past its default, recorded while every cell still multiplied
# its residues modulo (1 - q^n)^2, before the cyclotomic decider.
Q_SUN_N45_CSV_SHA256 = "5b2644cd8c89f7f46053147aa3f7ac7efe4428f6c03cd3bf5d5ef386e5427f39"
# The S tasks past their defaults, recorded while every S claim was
# still decided on its values at x = 0 .. 2d, before the verdicts moved
# to x = 0 .. d.
S_CSV_SHA256 = {
    "transform --n-max 60": "b96f9227b10289057e7e649d854f6439ddb9f4f0eed690263f19d58918b4e335",
    "recurrence --n-max 40": "12685bfc1d6fc3f7915fcd686d7322fd06a6f113377c78635e79853b94783c4b",
    "chu-vandermonde --k-max 60": "56f0874ec0f0b8540f789deb518c46724466e68afd2786108984f3289292e72c",
    "theorem1 --l-max 4 --n-max 40": "2b0c5722f28b527744beb176e574e3ba86ab655e6d0670647329e89059796734",
    "theorem2 --n-max 60": "ddfa4f133f5ac32b3887a2019b15e1f22911b7de1b0511ccde9e0e297ca9c7d4",
    "conjecture-sun-ii --l-max 4 --n-max 40":
        "0d242ee514e8939d7fddb1cd30d77d929eddea38203618273644665ddc7b6dba",
    "catalan-form --n-max 30": "6b774d607f1b6621e9494e32f5697b9a8578c2cc2e7928518bd0c12ca9f5abc1",
}

# The scalar tasks at the benchmark's bounds: digests of the JSON
# writer's own bytes without meta, recorded while cases were still
# frozen dataclasses, sorted by their sort_key tuples and written
# through one generic value encoder.
SCALAR_JSON_SHA256 = {
    "conjecture-final --l-max 4 --n-max 90":
        "da7a6c321fddf957ccbcce0c7903c2423b7030f04ef101b18fb3e4a4c68bcc6f",
    "lemma-schmidt --l-max 4 --n-max 60":
        "35944fd31ea60677deda42b525d3a19eacff067ba4290905c13575b4468dd76e",
    "telescope --n-max 90": "bde29ffab6d5b75447929e4aa38bd6165b5a8e5ca4494e33b414ee779097dc12",
    "conjecture-sun-m --m 3 --l-max 3 --n-max 24 --x-min -12 --x-max 12":
        "00b67098b9d0d6d3407a8911d3b5cb40edfb4b4ba9363f04dd1cfa0a47f4ca46",
    "sun-one --n-max 90": "fda52c9bd57db28076384c4e11cc6a14e29c0cc4a5e5f2b76313a37fd3e86a27",
    "sun-two --n-max 90": "8f11d7a15b9174f3061653e10498deff86857ec696c2aacc0ec15f5e3844d642",
}

# `verify all --n-max 8` as text, its wall time lines dropped, recorded
# while the text was still rendered as one string per report.
ALL_TEXT_SHA256 = "3df6140f00bb33d5c13b980625926228a99c0dc0f7d22447d4e8f071d550d11a"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    # Patched builders only exist in this process.
    monkeypatch.delenv(cli.JOBS_ENV, raising=False)


def test_verify_all_json_bytes_pinned(tmp_path):
    out = tmp_path / "all.json"
    assert cli.main(["all", "--n-max", "8", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload.pop("meta")
    assert _sha256((json.dumps(payload, indent=2) + "\n").encode()) == ALL_JSON_SHA256


def test_verify_all_json_writer_bytes_pinned():
    # The writer's own bytes, not a re-encoding of them.
    report = cli.run(cli.GridConfig("all", n_max=8))
    payload = serialize_report(report, "json", include_meta=False)
    assert _sha256(payload.encode()) == ALL_JSON_SHA256


def test_verify_all_csv_bytes_pinned(tmp_path):
    out = tmp_path / "all.csv"
    assert cli.main(["all", "--n-max", "8", "--format", "csv", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == ALL_CSV_SHA256


def test_verify_all_text_bytes_pinned(tmp_path):
    out = tmp_path / "all.txt"
    assert cli.main(["all", "--n-max", "8", "--format", "text", "--out", str(out)]) == 0
    lines = out.read_text().splitlines(True)
    text = "".join(line for line in lines if not line.startswith("wall time: "))
    assert _sha256(text.encode()) == ALL_TEXT_SHA256


@pytest.mark.parametrize("task", sorted(Q_CSV_SHA256))
def test_q_task_csv_bytes_pinned_to_n_25(tmp_path, task):
    out = tmp_path / "q.csv"
    assert cli.main([task, "--n-max", "25", "--format", "csv", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == Q_CSV_SHA256[task]


def test_q_sun_csv_bytes_pinned_to_n_45(tmp_path):
    out = tmp_path / "q.csv"
    assert cli.main(["q-sun", "--n-max", "45", "--format", "csv", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == Q_SUN_N45_CSV_SHA256


@pytest.mark.parametrize("argv", sorted(S_CSV_SHA256))
def test_s_task_csv_bytes_pinned_past_defaults(tmp_path, argv):
    out = tmp_path / "s.csv"
    assert cli.main(argv.split() + ["--format", "csv", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == S_CSV_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(SCALAR_JSON_SHA256))
def test_scalar_task_json_writer_bytes_pinned(argv):
    config = cli.resolve_config(cli.build_parser().parse_args(argv.split()))
    payload = serialize_report(cli.run(config), "json", include_meta=False)
    assert _sha256(payload.encode()) == SCALAR_JSON_SHA256[argv]


def _corrupt_entry(monkeypatch, module, name, bad_args, index, change):
    """Make the row or table builder module.name replace entry `index` of
    what it returns by change(entry) when called with arguments that
    start with bad_args; a row or table without that entry is left as
    it is."""
    original = getattr(module, name)

    def corrupted(*args):
        row = original(*args)
        if args[:len(bad_args)] != bad_args or index >= len(row):
            return row
        row = list(row)
        row[index] = change(row[index])
        return row

    monkeypatch.setattr(module, name, corrupted)


def _plus(delta):
    """Add delta(x) to a row entry's value at each point x = 0, 1, ..."""
    return lambda values: tuple(v + delta(x) for x, v in enumerate(values))


def _failures(tmp_path, argv):
    out = tmp_path / "report.json"
    rc = cli.main(argv + ["--format", "json", "--out", str(out)])
    cases = json.loads(out.read_text())["cases"]
    return rc, [c for c in cases if c["status"] != "pass"]


def test_transform_fault_witness(tmp_path, monkeypatch):
    _corrupt_entry(monkeypatch, identities, "build_rhs", (), 0, _plus(lambda x: 1))
    rc, failed = _failures(tmp_path, ["transform", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 0}, "status": "fail",
        "witness": "coeff of x^0: 1 vs 2", "severity": "theorem",
    }]


def test_catalan_form_identity_fault_witness(tmp_path, monkeypatch):
    _corrupt_entry(
        monkeypatch, congruences, "catalan_form_values", (), 1, _plus(lambda x: 5 * x * x)
    )
    rc, failed = _failures(
        tmp_path, ["catalan-form", "--n-max", "3", "--x-min", "-1", "--x-max", "1"]
    )
    assert rc == 1
    assert failed == [{
        "key": {"part": "identity", "n": 2}, "status": "fail",
        "witness": "coeff of x^2: 3/2 vs 13/2", "severity": "theorem",
    }]


def test_theorem1_fault_witness(tmp_path, monkeypatch):
    # p = v/n gains x/2 at (l, n, eps) = (1, 2, -1), so its values v gain x.
    _corrupt_entry(monkeypatch, congruences, "weighted_sum_rows", (1, -1), 1, _plus(lambda x: x))
    rc, failed = _failures(tmp_path, ["theorem1", "--l-max", "1", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 1, "n": 2, "eps": -1}, "status": "fail",
        "witness": "p(1) = -13/2 is not an integer", "severity": "theorem",
    }]


def test_theorem2_fault_witness(tmp_path, monkeypatch):
    # p = v/n^2 gains 1/3 at n = 3, so its values v gain 3.
    _corrupt_entry(monkeypatch, congruences, "weighted_sum_rows", (1, 1), 2, _plus(lambda x: 3))
    rc, failed = _failures(tmp_path, ["theorem2", "--n-max", "4"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 3}, "status": "fail",
        "witness": "p(0) = 4/3 is not an integer", "severity": "theorem",
    }]


def test_running_sum_step_fault_fails_from_that_cell_on(tmp_path, monkeypatch):
    # S_2 enters theorem2's one running sum at step k = 2, the cell n = 3.
    # With 1 added at every point of the run's left table, each later
    # sum is 5 too large, and 5/n^2 is not an integer for any n >= 3.
    _corrupt_entry(monkeypatch, identities, "build_lhs", (), 2, _plus(lambda x: 1))
    rc, failed = _failures(tmp_path, ["theorem2", "--n-max", "6"])
    assert rc == 1
    assert [case["key"] for case in failed] == [{"n": n} for n in range(3, 7)]
    assert failed[0] == {
        "key": {"n": 3}, "status": "fail",
        "witness": "p(0) = 14/9 is not an integer", "severity": "theorem",
    }


def test_conjecture_sun_ii_fault_witness(tmp_path, monkeypatch):
    # p = 3v/n^2 gains 1/3 at (l, n) = (2, 2), so its values v gain 4/9.
    _corrupt_entry(
        monkeypatch, congruences, "weighted_sum_rows", (2, 1), 1, _plus(lambda x: Fraction(4, 9))
    )
    rc, failed = _failures(tmp_path, ["conjecture-sun-ii", "--l-max", "2", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 2, "n": 2}, "status": "fail",
        "witness": "p(0) = 64/3 is not an integer", "severity": "conjecture",
    }]


def test_recurrence_fault_witness(tmp_path, monkeypatch):
    _corrupt_entry(monkeypatch, identities, "build_lhs", (), 1, _plus(lambda x: x))
    rc, failed = _failures(tmp_path, ["recurrence", "--n-max", "3"])
    assert rc == 1
    assert failed == [
        {"key": {"family": "base", "n": 1}, "status": "fail",
         "witness": "S_1: lhs 2*x^2 + 3*x + 1, rhs 2*x^2 + 2*x + 1, expected 2*x^2 + 2*x + 1",
         "severity": "theorem"},
        {"key": {"family": "lhs", "n": 0}, "status": "fail",
         "witness": "residual -6*x^3 - 6*x^2 - 9*x", "severity": "theorem"},
        {"key": {"family": "lhs", "n": 1}, "status": "fail",
         "witness": "residual 8*x", "severity": "theorem"},
    ]


@pytest.mark.parametrize("j", range(6))
def test_recurrence_sweep_fault_fails_the_cells_reading_it(tmp_path, monkeypatch, j):
    # S_j of the lhs table gains 1 at every point.  The lhs cell at n reads
    # S_n, S_(n+1) and S_(n+2), so exactly n = j-2, j-1 and j fail, those of
    # them with 0 <= n <= n_max - 2; the base cell n = j fails too, and the
    # rhs family still passes.
    _corrupt_entry(monkeypatch, identities, "build_lhs", (), j, _plus(lambda x: 1))
    rc, failed = _failures(tmp_path, ["recurrence", "--n-max", "5"])
    assert rc == 1
    failed_n = {
        family: [c["key"]["n"] for c in failed if c["key"]["family"] == family]
        for family in ("base", "lhs", "rhs")
    }
    assert failed_n == {
        "base": [j] if j <= 1 else [],
        "lhs": [n for n in (j - 2, j - 1, j) if 0 <= n <= 3],
        "rhs": [],
    }


def test_chu_vandermonde_fault_witness(tmp_path, monkeypatch):
    original = identities.binom_int

    def corrupted(top, k):  # C(-x-1, 2) gains x^2, with x = -top-1
        value = original(top, k)
        return value + (top + 1) ** 2 if top < 0 and k == 2 else value

    monkeypatch.setattr(identities, "binom_int", corrupted)
    rc, failed = _failures(tmp_path, ["chu-vandermonde", "--k-max", "3"])
    assert rc == 1
    assert failed == [
        {"key": {"k": 2}, "status": "fail",
         "witness": "sum is x^2 + 1, expected 1", "severity": "theorem"},
        {"key": {"k": 3}, "status": "fail",
         "witness": "sum is x^3 - 1, expected -1", "severity": "theorem"},
    ]


def test_catalan_form_terms_fault_witness(tmp_path, monkeypatch):
    # C(3,2) is the factor C(n,k+1) of the weight W_1 = 24 of n = 3,
    # which becomes 32; its summand 32 C(x+1,2)/3 is 0 at x = -1, 0.
    _corrupt_binom(monkeypatch, congruences, (3, 2))
    rc, failed = _failures(
        tmp_path, ["catalan-form", "--n-max", "3", "--x-min", "-1", "--x-max", "1"]
    )
    assert rc == 1
    assert failed == [{
        "key": {"part": "terms", "n": 3, "x": 1}, "status": "fail",
        "witness": "k=1 summand 32/3 is not an integer", "severity": "theorem",
    }]


def test_catalan_form_last_summand_fault_witness(tmp_path, monkeypatch):
    # At n <= 3, C(4,2) is read only as the factor C(2k,k) of the last
    # summand k = n-1 = 2 of n = 3, whose weight 60 becomes 70, and as
    # C(x+1,2) at x = 3, outside the window.  The summand 70 C(x+2,4)/3
    # is 70/3 at x = -3 and x = 2 and 0 in between.
    _corrupt_binom(monkeypatch, congruences, (4, 2))
    rc, failed = _failures(
        tmp_path, ["catalan-form", "--n-max", "3", "--x-min", "-3", "--x-max", "2"]
    )
    assert rc == 1
    assert failed == [{
        "key": {"part": "terms", "n": 3, "x": x}, "status": "fail",
        "witness": "k=2 summand 70/3 is not an integer", "severity": "theorem",
    } for x in (-3, 2)]


def _corrupt_q_sun_sums(monkeypatch, bad_key):
    """Add 1 to the coefficient of q^0 in the unscaled q-sum A_n of the
    cell bad_key = (n, k); return the faulted full product A_n [2k choose k]^2."""
    original = qpoly.q_sun_sums
    bad_n, bad_k = bad_key

    def corrupted(k, n_max):
        sums = original(k, n_max)
        if k == bad_k and bad_n <= n_max:
            low, coeffs = sums[bad_n - k - 1]
            faulted = LaurentPoly(coeffs, low) + 1
            sums[bad_n - k - 1] = (faulted.min_exp, list(faulted.coeffs))
        return sums

    monkeypatch.setattr(qpoly, "q_sun_sums", corrupted)
    low, coeffs = corrupted(bad_k, bad_n)[-1]
    central = LaurentPoly(qpoly.q_binom(2 * bad_k, bad_k))
    return LaurentPoly(coeffs, low) * central * central


def test_q_sun_fault_witness(tmp_path, monkeypatch):
    product = _corrupt_q_sun_sums(monkeypatch, (3, 1))
    rc, failed = _failures(tmp_path, ["q-sun", "--n-max", "3"])
    assert rc == 1
    remainder = "2*q^-4 + 4*q^-3 + 5*q^-2 + 2*q^-1"
    assert failed == [{
        "key": {"n": 3, "k": 1}, "status": "fail",
        "witness": f"remainder {remainder} after division by [3]^2",
        "severity": "theorem",
    }]
    modulus = q_integer(3) * q_integer(3)
    ok, obstruction = laurent_divisible(product, modulus)
    assert not ok and str(obstruction) == remainder


def test_q_sun_zero_remainder_on_a_failing_cell_exits_three(capsys, monkeypatch):
    # The cyclotomic test fails the faulted cell; a remainder that says
    # [n]^2 divides after all is a bug in one of the two, not a verdict.
    _corrupt_q_sun_sums(monkeypatch, (3, 1))
    monkeypatch.setattr(qpoly, "remainder_by_q_integer_squared", lambda a, c, n: [0] * (2 * n))
    assert cli.main(["q-sun", "--n-max", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: ArithmeticError(" in captured.err


def test_q_specialize_fault_witness(tmp_path, monkeypatch):
    product = _corrupt_q_sun_sums(monkeypatch, (3, 1))
    rc, failed = _failures(tmp_path, ["q-specialize", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 3, "k": 1}, "status": "fail",
        "witness": "q=1 value 76 != classical sum 72", "severity": "theorem",
    }]
    assert product.eval_at_one() == 76


def _corrupt_binom(monkeypatch, module, bad_args):
    """Add 1 to the binomial C(*bad_args) wherever module reads it."""
    original = module.binom_int

    def corrupted(top, k):
        return original(top, k) + 1 if (top, k) == bad_args else original(top, k)

    monkeypatch.setattr(module, "binom_int", corrupted)


def _corrupt_sum(monkeypatch, l, k, index, delta):
    """Add delta to entry `index` of column k of the eps = 1 staggered
    sum that `congruences` forms with the weights of l at n_max = 3."""
    _corrupt_entry(
        monkeypatch, congruences, "staggered_sums", (identities.odd_weights(l, 1, 3),), k,
        lambda column: [*column[:index], column[index] + delta, *column[index + 1:]],
    )


def test_telescope_fault_witness(tmp_path, monkeypatch):
    # The closed form n C(n,k+1) C(n+k,k) at (n, k) = (4, 2), 240, as if
    # C(4,3) = 4 read 5: its running product reads no binomial.
    _corrupt_entry(monkeypatch, identities, "telescope_rhs", (4,), 2, lambda t: t // 4 * 5)
    rc, failed = _failures(tmp_path, ["telescope", "--n-max", "4"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 4, "k": 2}, "status": "fail",
        "witness": "240 != 300", "severity": "theorem",
    }]


def test_sun_one_fault_witness(tmp_path, monkeypatch):
    _corrupt_binom(monkeypatch, identities, (3, 2))  # C(k, n-k) at n=5, k=3
    rc, failed = _failures(tmp_path, ["sun-one", "--n-max", "5"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 5}, "status": "fail",
        "witness": "195008 != 2243008", "severity": "theorem",
    }]


def test_sun_two_fault_witness(tmp_path, monkeypatch):
    _corrupt_binom(monkeypatch, identities, (4, 2))  # first used at n=2
    rc, failed = _failures(tmp_path, ["sun-two", "--n-max", "2"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 2}, "status": "fail",
        "witness": "2008 != 2391", "severity": "theorem",
    }]


def test_conjecture_final_fault_witnesses(tmp_path, monkeypatch):
    # Entry 1 of column k = 1 of the row's staggered sum is the cell
    # n = 3, whose value is that sum times (2l-1)!! C(2,1)^2.  At l = 1 the
    # value gains n^2, so it is still 0 mod n^2 but off the closed form;
    # at l = 2 it gains 1.
    _corrupt_sum(monkeypatch, 1, 1, 1, Fraction(9, 4))
    _corrupt_sum(monkeypatch, 2, 1, 1, Fraction(1, 12))
    rc, failed = _failures(tmp_path, ["conjecture-final", "--l-max", "2", "--n-max", "3"])
    assert rc == 1
    assert failed == [
        {"key": {"l": 1, "n": 3, "k": 1}, "status": "fail",
         "witness": "value 81 != closed form 72", "severity": "theorem"},
        {"key": {"l": 2, "n": 3, "k": 1}, "status": "fail",
         "witness": "value 4825 = 1 mod 9", "severity": "conjecture"},
    ]


def test_conjecture_final_closed_form_fault_witness(tmp_path, monkeypatch):
    # The l = 1 closed form at (n, k) = (3, 1) is entry 1 of
    # telescope_rhs(3), 3 C(3,2) C(4,1) = 36, times C(2,1): as if C(3,2)
    # = 3 read 4, it is 96, and the value 72 no longer matches it.
    _corrupt_entry(monkeypatch, congruences, "telescope_rhs", (3,), 1, lambda t: t // 3 * 4)
    rc, failed = _failures(tmp_path, ["conjecture-final", "--l-max", "2", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 1, "n": 3, "k": 1}, "status": "fail",
        "witness": "value 72 != closed form 96", "severity": "theorem",
    }]


def test_conjecture_final_fault_keeps_its_k(tmp_path, monkeypatch):
    # Entry 2 of column k = 0 of the l = 2 row's staggered sum is the
    # cell n = 3, k = 0, whose value is that sum times 3!! = 3: the key of
    # the failing case must name the column the value came from, not
    # another k of the same n.
    _corrupt_sum(monkeypatch, 2, 0, 2, Fraction(1, 3))
    rc, failed = _failures(tmp_path, ["conjecture-final", "--l-max", "2", "--n-max", "3"])
    assert rc == 1
    assert failed == [
        {"key": {"l": 2, "n": 3, "k": 0}, "status": "fail",
         "witness": "value 460 = 1 mod 9", "severity": "conjecture"},
    ]


def test_conjecture_sun_m_fault_witness(tmp_path, monkeypatch):
    # The power sum P_1(0) at m = 3 gains 1.
    _corrupt_entry(monkeypatch, congruences, "power_sums", (3, 0), 1, lambda v: v + 1)
    rc, failed = _failures(tmp_path, [
        "conjecture-sun-m", "--m", "3", "--l-max", "1", "--n-max", "2",
        "--eps", "+1", "--x-min", "0", "--x-max", "0",
    ])
    assert rc == 1
    assert failed == [{
        "key": {"l": 1, "n": 2, "eps": 1, "x": 0}, "status": "fail",
        "witness": "sum 1 at x=0 is not divisible by 2", "severity": "conjecture",
    }]


def test_lemma_schmidt_fault_witness(tmp_path, monkeypatch):
    # Coefficient j=1 of (l, n, eps) = (1, 3, -1) gains 1.
    _corrupt_entry(
        monkeypatch, congruences, "schmidt_coefficient_rows", (1, -1), 2,
        lambda coeffs: (coeffs[0], coeffs[1] + 1, *coeffs[2:]),
    )
    rc, failed = _failures(tmp_path, ["lemma-schmidt", "--l-max", "1", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 1, "n": 3, "eps": -1}, "status": "fail",
        "witness": "coefficient j=1 is 25, not divisible by 3", "severity": "theorem",
    }]


# A symmetric claim of degree 2d is decided at x = 0 .. d.  Each fault
# below is added at that last deciding point x = d alone, so a row that
# read one point too few would pass the cell it must fail.

def _at_point(x0, delta=1):
    """Add delta to a row entry's value at x0 alone."""
    return _plus(lambda x: delta if x == x0 else 0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_transform_fault_at_last_point_fails(tmp_path, monkeypatch, n):
    _corrupt_entry(monkeypatch, identities, "build_rhs", (), n, _at_point(n))
    rc, failed = _failures(tmp_path, ["transform", "--n-max", "6"])
    assert rc == 1 and [c["key"] for c in failed] == [{"n": n}]


@pytest.mark.parametrize("family", ["lhs", "rhs"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_recurrence_fault_at_last_point_fails(tmp_path, monkeypatch, family, n):
    # S_n at x = n+2 is read by the cell n alone: the cells n-1 and n-2
    # read S_n only up to x = n+1 and x = n, and the base row up to x = n.
    _corrupt_entry(monkeypatch, identities, f"build_{family}", (), n, _at_point(n + 2))
    rc, failed = _failures(tmp_path, ["recurrence", "--n-max", "5"])
    assert rc == 1 and [c["key"] for c in failed] == [{"family": family, "n": n}]


@pytest.mark.parametrize("k", [1, 2, 5, 6])
def test_chu_vandermonde_fault_at_last_point_fails(tmp_path, monkeypatch, k):
    # The m = 1 power sum P_k at x = k//2; odd and even k both.
    _corrupt_entry(monkeypatch, identities, "power_sums", (1, k // 2), k, lambda v: v + 1)
    rc, failed = _failures(tmp_path, ["chu-vandermonde", "--k-max", "7"])
    assert rc == 1 and [c["key"] for c in failed] == [{"k": k}]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_weighted_sum_faults_at_last_point_fail(tmp_path, monkeypatch, n):
    # Entry n-1 of a weighted-sum row gains 1 at x = n-1; 1 and 3 are
    # multiples of neither n nor n^2, so the cell n fails in each task.
    for args in [(1, -1), (1, 1), (2, 1)]:
        _corrupt_entry(monkeypatch, congruences, "weighted_sum_rows", args, n - 1, _at_point(n - 1))
    runs = {
        "theorem1": ["--l-max", "1"], "theorem2": [],
        "conjecture-sun-ii": ["--l-max", "2"], "catalan-form": ["--x-min", "0", "--x-max", "0"],
    }
    expected = {
        "theorem1": [{"l": 1, "n": n, "eps": -1}, {"l": 1, "n": n, "eps": 1}],
        "theorem2": [{"n": n}],
        "conjecture-sun-ii": [{"l": 1, "n": n}, {"l": 2, "n": n}],
        "catalan-form": [{"part": "identity", "n": n}],
    }
    for task, flags in runs.items():
        rc, failed = _failures(tmp_path, [task, "--n-max", "6", *flags])
        assert rc == 1 and [c["key"] for c in failed] == expected[task], task
        if task != "catalan-form":
            assert all(c["witness"].startswith(f"p({n - 1}) = ") for c in failed), task
