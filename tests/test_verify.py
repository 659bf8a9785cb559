"""Tests for the verify harness: suite dispatch and the n=5 sumset sweeps."""

import pytest

from keypoly.verify import SUITE_NAMES, run_verification, suite_ccc, suite_kk


def test_dispatch_runs_every_suite_in_order():
    assert SUITE_NAMES == ("kk", "ccc", "theorem11", "aa", "rado", "bruhat")
    report = run_verification(2, 2)
    assert [s.name for s in report.suites] == list(SUITE_NAMES)
    assert report.passed


def test_unknown_suite_raises_before_running_any(monkeypatch):
    monkeypatch.setattr("keypoly.verify.suite_kk", lambda *args: pytest.fail("kk ran"))
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_verification(1, 1, ("kk", "nope"))


@pytest.mark.parametrize("suite", [suite_kk, suite_ccc])
def test_sumset_suites_at_n5(suite):
    # every composition of length 1..5 with parts <= min(3, n)
    result = suite(5, 3)
    assert result.checked == 1355
    assert result.passed, result.failures
