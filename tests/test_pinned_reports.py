"""Pinned report bytes and pinned failure witnesses.

The digests below were recorded from `verify all --n-max 8` before the
verifiers' helpers were merged; any change to a verdict, witness,
severity, cell key or config echo changes them.  The fault-injection
tests corrupt one builder each and check the exact witness the failing
cell carries, its severity and the exit code.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ivpverify import cli, congruences, identities
from ivpverify.ratpoly import RatPoly

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
    """Make module.name return its true value plus delta at bad_args only."""
    original = getattr(module, name)

    def corrupted(*args):
        value = original(*args)
        return value + delta if args == bad_args else value

    monkeypatch.setattr(module, name, corrupted)


def _failures(tmp_path, argv):
    out = tmp_path / "report.json"
    rc = cli.main(argv + ["--format", "json", "--out", str(out)])
    cases = json.loads(out.read_text())["cases"]
    return rc, [c for c in cases if c["status"] != "pass"]


def test_transform_fault_witness(tmp_path, monkeypatch):
    _corrupt(monkeypatch, identities, "build_rhs", (0,), RatPoly([1]))
    rc, failed = _failures(tmp_path, ["transform", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 0}, "status": "fail",
        "witness": "coeff of x^0: 1 vs 2", "severity": "theorem",
    }]


def test_catalan_form_identity_fault_witness(tmp_path, monkeypatch):
    _corrupt(monkeypatch, congruences, "catalan_form_polynomial", (2,), RatPoly([0, 0, 5]))
    rc, failed = _failures(
        tmp_path, ["catalan-form", "--n-max", "3", "--x-min", "-1", "--x-max", "1"]
    )
    assert rc == 1
    assert failed == [{
        "key": {"part": "identity", "n": 2}, "status": "fail",
        "witness": "coeff of x^2: 3/2 vs 13/2", "severity": "theorem",
    }]


def test_theorem1_fault_witness(tmp_path, monkeypatch):
    _corrupt(
        monkeypatch, congruences, "theorem1_polynomial", (1, 2, -1), RatPoly([0, Fraction(1, 2)])
    )
    rc, failed = _failures(tmp_path, ["theorem1", "--l-max", "1", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 1, "n": 2, "eps": -1}, "status": "fail",
        "witness": "p(1) = -13/2 is not an integer", "severity": "theorem",
    }]


def test_theorem2_fault_witness(tmp_path, monkeypatch):
    _corrupt(monkeypatch, congruences, "theorem2_polynomial", (3,), RatPoly([Fraction(1, 3)]))
    rc, failed = _failures(tmp_path, ["theorem2", "--n-max", "4"])
    assert rc == 1
    assert failed == [{
        "key": {"n": 3}, "status": "fail",
        "witness": "p(0) = 4/3 is not an integer", "severity": "theorem",
    }]


def test_conjecture_sun_ii_fault_witness(tmp_path, monkeypatch):
    _corrupt(monkeypatch, congruences, "sun_ii_polynomial", (2, 2), RatPoly([Fraction(1, 3)]))
    rc, failed = _failures(tmp_path, ["conjecture-sun-ii", "--l-max", "2", "--n-max", "3"])
    assert rc == 1
    assert failed == [{
        "key": {"l": 2, "n": 2}, "status": "fail",
        "witness": "p(0) = 64/3 is not an integer", "severity": "conjecture",
    }]
