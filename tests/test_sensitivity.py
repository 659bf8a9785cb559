"""Planted faults that the verify suites must catch.

Each test breaks one layer on purpose, runs a suite over it and expects
the suite to fail: a suite that still passes over a broken layer shows
nothing about that layer.
"""

import pytest

from keypoly import polytope, verify


@pytest.mark.parametrize("answer, failures", [(True, 50), (False, 575)])
def test_rado_catches_an_lp_that_always_answers_the_same(monkeypatch, answer, failures):
    """With every LP answer fixed, rado's inclusion checks disagree with
    dominance.  n = 4 is needed: at n = 3 the cheap box rejections of
    ``contains`` answer every "no", so an LP that always says yes would
    pass there."""
    monkeypatch.setattr(polytope, "_convex_feasible", lambda p, num, den: answer)
    result = verify.suite_rado(4, 4)
    assert not result.passed
    assert len(result.failures) == failures
    assert {f["kind"] for f in result.failures} == {"inclusion"}
