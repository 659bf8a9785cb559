"""Tests for the verify harness: suite dispatch, the closure comparison
and the n=5 sumset sweeps."""

import re
from itertools import product

import pytest

from keypoly import verify
from keypoly.moves import closure
from keypoly.polynomial import SparsePolynomial
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closures_compare_like_sets(n):
    """``_closures`` against the BFS ``closure``, which shares no code
    with ``class_closures``.  Each changed set differs from the closure
    in one way; the swap keeps its size, so only the bit test catches
    it."""
    checked = 0
    for alpha, differs in verify._closures(n, 3):
        label = {"alpha": list(alpha)}
        reach = closure(alpha)
        assert differs(label, reach) is None
        assert differs(label, dict.fromkeys(reach).keys()) is None
        outside = [v for v in product(range(4), repeat=n) if sum(v) == sum(alpha) and v not in reach]
        changed = [reach - {max(reach)}, reach | {(alpha[0] + 1, *alpha[1:])}]
        if outside:
            changed += [reach | {outside[0]}, reach - {max(reach)} | {outside[0]}]
        for other in changed:
            assert differs(label, other) == verify._set_failure(label, reach, other), (alpha, other)
        checked += 1
    assert checked == 4**n


def test_sweeps_read_key_exponents_without_a_copy(monkeypatch):
    """theorem11 copies a key's exponents only in ``newton_lattice_points``,
    which may return that copy, and bruhat never copies them."""
    calls = []
    exponents = SparsePolynomial.exponents

    def spy(self):
        calls.append(self)
        return exponents(self)

    monkeypatch.setattr(SparsePolynomial, "exponents", spy)
    result = verify.suite_theorem11(3, 3)
    assert result.passed and result.checked == 4 + 16 + 64
    assert len(calls) == result.checked
    calls.clear()
    result = verify.suite_bruhat(4)
    assert result.passed and result.checked == 1 + 2 + 6 + 24
    assert calls == []
