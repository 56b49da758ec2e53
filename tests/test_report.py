"""Verification report verdicts."""

from schroeder.report import VerificationReport


def test_report_without_checks_fails():
    rep = VerificationReport(kind="empty")
    assert not rep.passed
    assert rep.to_dict()["pass"] is False


def test_report_verdict_is_conjunction_of_checks():
    rep = VerificationReport(kind="two")
    rep.add_check("small", 1e-12, 1e-9)
    assert rep.passed
    rep.add_check("large", 1.0, 1e-9)
    assert not rep.passed
