"""Planted faults that the verify suites must catch.

Each test breaks one layer on purpose, runs a suite over it and expects
the suite to fail: a suite that still passes over a broken layer shows
nothing about that layer.  The failure records are a report's only
per-check content, so most tests pin them exactly.
"""

import pytest

from keypoly import bruhat, polytope, verify
from keypoly.polynomial import SparsePolynomial


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


# Faults planted in verify's namespace, and the exact failure records they
# must produce.  Passing checks are counted in ``checked`` but leave no
# record.


def _drop_largest(original):
    """Wrap a set-valued function to drop its lexicographically largest
    vector whenever it has more than one."""

    def faulty(arg):
        found = original(arg)
        return found - {max(found)} if len(found) > 1 else found

    return faulty


def _gain_a_vector(monkeypatch):
    """closure(alpha) also reaches (|alpha| + 1, 0, ..., 0), which no
    vector of weight |alpha| is."""
    original = verify.closure
    monkeypatch.setattr(
        verify, "closure", lambda alpha: original(alpha) | {(sum(alpha) + 1,) + (0,) * (len(alpha) - 1)}
    )


def test_kk_catches_lower_monomials_dropping_a_vector(monkeypatch):
    # Of the 11 skylines at n <= 2, only (0, 1), (0, 2) and (1, 2) have a
    # key polynomial with more than one monomial.
    monkeypatch.setattr(verify, "lower_monomials", _drop_largest(verify.lower_monomials))
    result = verify.suite_kk(2, 2)
    assert not result.passed and result.checked == 11
    assert result.failures == [
        {"alpha": [0, 1], "equal": False, "only_lhs": [], "only_rhs": [(1, 0)]},
        {"alpha": [0, 2], "equal": False, "only_lhs": [], "only_rhs": [(2, 0)]},
        {"alpha": [1, 2], "equal": False, "only_lhs": [], "only_rhs": [(2, 1)]},
    ]


def test_theorem11_catches_lattice_points_dropping_a_point(monkeypatch):
    monkeypatch.setattr(verify, "lattice_points", _drop_largest(verify.lattice_points))
    result = verify.suite_theorem11(2, 2)
    assert not result.passed and result.checked == 12
    assert result.failures == [
        {
            "alpha": list(alpha),
            "compared": "closure/exponents",
            "equal": True,
            "lattice_equal": False,
            "lattice_diff": {
                "alpha": list(alpha),
                "compared": "lattice/exponents",
                "equal": False,
                "only_lhs": [],
                "only_rhs": [dropped],
            },
        }
        for alpha, dropped in [((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1))]
    ]


def _closure_failure(alpha, gained, **lattice):
    return {
        "alpha": list(alpha),
        "compared": "closure/exponents",
        "equal": False,
        "only_lhs": [gained],
        "only_rhs": [],
        "lattice_equal": not lattice,
        **lattice,
    }


def test_theorem11_catches_closure_gaining_a_vector(monkeypatch):
    _gain_a_vector(monkeypatch)
    result = verify.suite_theorem11(2, 1)
    assert not result.passed and result.checked == 6
    assert result.failures == [
        _closure_failure((0,), (1,)),
        _closure_failure((1,), (2,)),
        _closure_failure((0, 0), (1, 0)),
        _closure_failure((0, 1), (2, 0)),
        _closure_failure((1, 0), (2, 0)),
        _closure_failure((1, 1), (3, 0)),
    ]


def test_theorem11_reports_both_sides_of_one_input(monkeypatch):
    _gain_a_vector(monkeypatch)
    monkeypatch.setattr(verify, "lattice_points", _drop_largest(verify.lattice_points))
    result = verify.suite_theorem11(2, 1)
    assert result.checked == 6
    lattice_diff = {
        "alpha": [0, 1],
        "compared": "lattice/exponents",
        "equal": False,
        "only_lhs": [],
        "only_rhs": [(1, 0)],
    }
    assert result.failures[3] == _closure_failure((0, 1), (2, 0), lattice_equal=False, lattice_diff=lattice_diff)
    assert [f["lattice_equal"] for f in result.failures] == [True, True, True, False, True, True]


def test_rado_catches_closure_gaining_a_vector(monkeypatch):
    # The 5 weakly increasing compositions at n <= 2, parts <= 1, fail;
    # the 146 inclusion checks (partitions of 0..10 into at most 2 parts,
    # paired) still pass.
    _gain_a_vector(monkeypatch)
    result = verify.suite_rado(2, 1)
    assert not result.passed and result.checked == 5 + 146
    assert result.failures == [
        {"kind": "closure", "alpha": list(alpha), "equal": False, "only_lhs": [gained], "only_rhs": []}
        for alpha, gained in [((0,), (1,)), ((1,), (2,)), ((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 1), (3, 0))]
    ]


def test_bruhat_catches_verify_qww0_answering_false(monkeypatch):
    monkeypatch.setattr(verify, "verify_qww0", lambda w: False)
    result = verify.suite_bruhat(3)
    assert not result.passed and result.checked == 1 + 2 + 6
    assert result.failures == [
        {"w": list(w), "equal": False}
        for w in [(1,), (1, 2), (2, 1), (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    ]


# Faults that no suite catches yet.  Each row runs every suite at
# n = 4, parts = 4, and is a strict xfail: the suite that would catch it
# turns the row into a required failure.


def _double_leading_coefficients(monkeypatch):
    """Every key that verify and bruhat see has the coefficient of its
    lexicographically largest exponent doubled."""
    for module in (verify, bruhat):

        def doubled(alpha, original=module.key_polynomial):
            f = original(alpha)
            lead = max(f.terms)
            return SparsePolynomial(f.n, {**f.terms, lead: 2 * f.terms[lead]})

        monkeypatch.setattr(module, "key_polynomial", doubled)


def _support_without_greedy_check(monkeypatch):
    """``support`` returns the support values of every hull whose
    generators share a coordinate sum, greedy vertices or not."""

    def support(p):
        if p._common_sum is None:
            return None
        masks = range(1 << p.n)
        return tuple(max(sum(x for i, x in enumerate(g) if s >> i & 1) for g in p.generators) for s in masks)

    monkeypatch.setattr(polytope.VPolytope, "support", property(support))


@pytest.mark.parametrize(
    "plant",
    [
        pytest.param(
            _double_leading_coefficients,
            marks=pytest.mark.xfail(strict=True, reason="every suite compares supports, not coefficients"),
        ),
        pytest.param(
            _support_without_greedy_check,
            marks=pytest.mark.xfail(
                strict=True,
                reason="every hull a suite builds is a generalized permutahedron, "
                "so only the unit tests in test_polytope.py guard this check",
            ),
        ),
    ],
)
def test_run_verification_catches(monkeypatch, plant):
    plant(monkeypatch)
    assert not verify.run_verification(4, 4).passed


def test_uncaught_faults_take_effect(monkeypatch):
    """The rows above fail for want of a suite, not of a fault."""
    _double_leading_coefficients(monkeypatch)
    _support_without_greedy_check(monkeypatch)
    for module in (verify, bruhat):
        assert module.key_polynomial((0, 1)).terms == {(1, 0): 2, (0, 1): 1}
    assert polytope.VPolytope.from_points(3, [(2, 0, 1), (0, 1, 2), (1, 2, 0)]).support is not None
