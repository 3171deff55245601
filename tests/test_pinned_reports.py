"""Pinned report bytes and pinned failure witnesses.

The digests below were recorded from `verify all --n-max 8` before the
verifiers' helpers were merged; any change to a verdict, witness,
severity, cell key or config echo changes them.  The fault-injection
tests add a polynomial to the values one builder returns and check the
exact witness the failing cell carries, its severity and the exit code.
The witness literals were recorded when every polynomial was still
built from its rational coefficients.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ivpverify import cli, congruences, identities

ALL_JSON_SHA256 = "ef4fe704ddafec864b40f97e8647fb10025cf3f2bf1dd9721e3d8b865cfc4f73"
ALL_CSV_SHA256 = "5f65842804368cb3a7e29f38cbcdf98bbcad1e406fbd8309eb2760759c0c9ca6"


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


def test_verify_all_csv_bytes_pinned(tmp_path):
    out = tmp_path / "all.csv"
    assert cli.main(["all", "--n-max", "8", "--format", "csv", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == ALL_CSV_SHA256


def _corrupt(monkeypatch, module, name, bad_args, delta):
    """Make module.name add delta(x) to its value at each point x = 0, 1, ...
    when called with arguments that start with bad_args."""
    original = getattr(module, name)

    def corrupted(*args):
        values = original(*args)
        if args[:len(bad_args)] != bad_args:
            return values
        return tuple(v + delta(x) for x, v in enumerate(values))

    monkeypatch.setattr(module, name, corrupted)


def _failures(tmp_path, argv):
    out = tmp_path / "report.json"
    rc = cli.main(argv + ["--format", "json", "--out", str(out)])
    cases = json.loads(out.read_text())["cases"]
    return rc, [c for c in cases if c["status"] != "pass"]


def test_transform_fault_witness(tmp_path, monkeypatch):
    _corrupt(monkeypatch, identities, "build_rhs", (0,), lambda x: 1)
    rc, failed = _failures(tmp_path, ["transform", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 0}, "status": "fail",
        "witness": "coeff of x^0: 1 vs 2", "severity": "theorem",
    }]


def test_catalan_form_identity_fault_witness(tmp_path, monkeypatch):
    _corrupt(monkeypatch, congruences, "catalan_form_values", (2,), lambda x: 5 * x * x)
    rc, failed = _failures(
        tmp_path, ["catalan-form", "--n-max", "3", "--x-min", "-1", "--x-max", "1"]
    )
    assert rc == 1
    assert failed == [{
        "key": {"part": "identity", "n": 2}, "status": "fail",
        "witness": "coeff of x^2: 3/2 vs 13/2", "severity": "theorem",
    }]


def test_theorem1_fault_witness(tmp_path, monkeypatch):
    # p = v/n gains x/2, so its values v gain x.
    _corrupt(monkeypatch, congruences, "weighted_sum_values", (1, 2, -1), lambda x: x)
    rc, failed = _failures(tmp_path, ["theorem1", "--l-max", "1", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 1, "n": 2, "eps": -1}, "status": "fail",
        "witness": "p(1) = -13/2 is not an integer", "severity": "theorem",
    }]


def test_theorem2_fault_witness(tmp_path, monkeypatch):
    # p = v/n^2 gains 1/3, so its values v gain 3.
    _corrupt(monkeypatch, congruences, "weighted_sum_values", (1, 3, 1), lambda x: 3)
    rc, failed = _failures(tmp_path, ["theorem2", "--n-max", "4"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 3}, "status": "fail",
        "witness": "p(0) = 4/3 is not an integer", "severity": "theorem",
    }]


def test_conjecture_sun_ii_fault_witness(tmp_path, monkeypatch):
    # p = 3v/n^2 gains 1/3, so its values v gain 4/9.
    _corrupt(monkeypatch, congruences, "weighted_sum_values", (2, 2, 1), lambda x: Fraction(4, 9))
    rc, failed = _failures(tmp_path, ["conjecture-sun-ii", "--l-max", "2", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 2, "n": 2}, "status": "fail",
        "witness": "p(0) = 64/3 is not an integer", "severity": "conjecture",
    }]


def test_recurrence_fault_witness(tmp_path, monkeypatch):
    _corrupt(monkeypatch, identities, "build_lhs", (1,), lambda x: x)
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
    original = congruences._catalan_summand_times_n

    def corrupted(n, k, x0):
        value = original(n, k, x0)
        return value + 1 if (n, k, x0) == (3, 1, 0) else value

    monkeypatch.setattr(congruences, "_catalan_summand_times_n", corrupted)
    rc, failed = _failures(
        tmp_path, ["catalan-form", "--n-max", "3", "--x-min", "-1", "--x-max", "1"]
    )
    assert rc == 1
    assert failed == [{
        "key": {"part": "terms", "n": 3, "x": 0}, "status": "fail",
        "witness": "k=1 summand 1/3 is not an integer", "severity": "theorem",
    }]
