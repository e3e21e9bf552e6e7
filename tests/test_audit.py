"""The Kodaira audit: Gritsenko verdicts, the two case families, coverage,
and lift consistency."""

import pytest

from k3lat.errors import NotRealizable, OutOfFamily, UnsupportedInvariant
from k3lat.audit import (
    DivisorLedger,
    gritsenko_verdict,
    case1_report,
    case2_report,
    theorem1_coverage,
    kodaira_report,
    lift_consistency,
)
from k3lat.geography import geography_table
from k3lat.vectors import witness_vector


def test_gritsenko_verdict_table():
    """k > nu n needs no slack; k = nu n needs it; k < nu n and n < 3 fail."""
    assert gritsenko_verdict(16, 2, 6, True) == "-infinity"
    assert gritsenko_verdict(16, 2, 6, False) == "-infinity"
    assert gritsenko_verdict(12, 2, 6, True) == "-infinity"
    assert gritsenko_verdict(12, 2, 6, False) == "inconclusive"
    assert gritsenko_verdict(10, 2, 6, False) == "inconclusive"
    assert gritsenko_verdict(5, 1, 2, False) == "hypothesis-violated"


def test_case1_spot_rows():
    r = case1_report(14, 8, 1)
    assert (r["g"], r["nu"], r["k"], r["n"]) == (0, 2, 16, 6)
    assert r["margin"] == 4
    assert r["verdict"] == "-infinity"

    r = case1_report(17, 5, 1)
    assert (r["g"], r["nu"], r["k"], r["n"]) == (0, 2, 22, 3)
    assert r["verdict"] == "-infinity"

    r = case1_report(13, 9, 1)
    assert (r["nu"], r["k"], r["n"], r["margin"]) == (2, 14, 7, 0)
    assert r["special_flag"]
    assert r["verdict"] == "-infinity"
    assert "witness" in r


def test_m7_witness_is_a_checked_certificate(monkeypatch):
    """The (13, 9, 1) witness is u - v of the U(2) summand, checked rather
    than searched: the coverage table and repeated reports run with the
    search disabled, and the search, run here, finds the same vector."""
    from k3lat import vectors
    from k3lat.lattice import direct_sum, hyperbolic_plane, m_lattice, rescale

    partner = direct_sum(rescale(hyperbolic_plane(), 2), rescale(m_lattice(7), -1))
    searched = list(witness_vector(partner, -4, 2))

    def no_search(*args, **kwargs):
        raise AssertionError("the audit must not search for its witness")

    monkeypatch.setattr(vectors, "witness_vector", no_search)
    theorem1_coverage()
    first = case1_report(13, 9, 1)
    assert first["witness"] == searched
    assert partner.norm(first["witness"]) == -4
    assert first["witness_half_in_dual"] is True
    first["witness"][0] += 1
    second = case1_report(13, 9, 1)
    assert second["witness"] == searched


def test_case1_symbolic_margin_identity():
    """k - nu*n = 2*nu*(r - 13) across the whole case-1 family."""
    for e in geography_table():
        r, a, d = e.triplet
        if not 13 <= r <= 17:
            continue
        rep = case1_report(r, a, d)
        assert rep["margin"] == 2 * rep["nu"] * (r - 13), (r, a, d)


def test_case1_out_of_range():
    assert case1_report(10, 8, 0)["verdict"] == "not-covered-by-A.3"
    with pytest.raises(NotRealizable):
        case1_report(13, 13, 1)


def test_case2_spot_rows():
    r = case2_report(17, 5, 1)
    assert (r["m"], r["k"], r["n"], r["xi_weight"]) == (7, 12, 3, 24)
    assert r["margin"] == 9
    assert r["verdict"] == "-infinity"

    r = case2_report(11, 11, 1)
    assert (r["m"], r["k"], r["n"]) == (1, 114, 9)
    assert r["margin"] == 105

    r = case2_report(12, 10, 1)
    assert (r["m"], r["k"], r["n"]) == (2, 102, 8)


def test_case2_m_range():
    for e in geography_table():
        r, a, d = e.triplet
        if r + a == 22 and 11 <= r <= 17:
            rep = case2_report(r, a, d)
            assert 1 <= rep["m"] <= 7


def test_case2_out_of_family():
    with pytest.raises(OutOfFamily):
        case2_report(18, 4, 0)
    with pytest.raises(OutOfFamily):
        case2_report(10, 12, 1)


def test_coverage_is_theorem_set():
    cov = theorem1_coverage()
    assert len(cov) == 75
    neg = {row["triplet"] for row in cov if row["verdict"] == "-infinity"}
    expected = set()
    for e in geography_table():
        r, a, d = e.triplet
        if 13 <= r <= 17 or (r + a == 22 and r <= 17):
            expected.add((r, a, d))
    assert neg == expected


def test_kodaira_report_merges_cases():
    row = kodaira_report(17, 5, 1)
    assert set(row["cases"]) == {"A.3", "A.4"}
    assert row["verdict"] == "-infinity"
    row = kodaira_report(11, 11, 1)
    assert set(row["cases"]) == {"A.4"}
    row = kodaira_report(10, 8, 0)
    assert row["verdict"] == "not-covered"


def test_lift_consistency_family():
    for r_minus in range(5, 12):
        assert lift_consistency(r_minus), r_minus


def test_lift_consistency_rejects_12():
    with pytest.raises(UnsupportedInvariant):
        lift_consistency(12)


def test_divisor_ledger_validation():
    with pytest.raises(ValueError):
        DivisorLedger([("bogus", 1)], 1, 10, 3)
    with pytest.raises(ValueError):
        DivisorLedger([("Dprime", -1)], 1, 10, 3)
    led = DivisorLedger([("Dprime", 1), ("Ddoubleprime", 2)], 2, 14, 7)
    assert led.multiplicity("Ddoubleprime") == 2
