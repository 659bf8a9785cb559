"""Tests for the verify harness: suite dispatch and the n=5 sumset sweeps."""

import re

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


def test_an_empty_suite_tuple_is_refused():
    with pytest.raises(ValueError, match="no suite to run"):
        run_verification(2, 2, ())


def test_a_repeated_suite_runs_once_in_first_seen_order():
    report = run_verification(2, 2, ("aa", "kk", "aa", "kk"))
    assert [s.name for s in report.suites] == ["aa", "kk"] and report.passed


@pytest.mark.parametrize(
    "n_max, part_max, message",
    [
        (3, -1, "part_max must be an int >= 0, got -1"),
        (0, 3, "n_max must be an int >= 1, got 0"),
        (-2, 2, "n_max must be an int >= 1, got -2"),
        (2.0, 2, "n_max must be an int >= 1, got 2.0"),
        (True, 2, "n_max must be an int >= 1, got True"),
        (2, False, "part_max must be an int >= 0, got False"),
    ],
)
def test_sizes_that_check_nothing_are_refused(monkeypatch, n_max, part_max, message):
    monkeypatch.setattr("keypoly.verify.suite_kk", lambda *args: pytest.fail("kk ran"))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_verification(n_max, part_max)


@pytest.mark.parametrize("suite", [suite_kk, suite_ccc])
def test_sumset_suites_at_n5(suite):
    # every composition of length 1..5 with parts <= min(3, n)
    result = suite(5, 3)
    assert result.checked == 1355
    assert result.passed, result.failures
