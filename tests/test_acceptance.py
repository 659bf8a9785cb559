"""Acceptance suite: the package's exit criteria, one test per criterion.

Everything here is exact set or coefficient equality; the only tolerances
are the stated wall-clock budgets.  A summary block with one line per
criterion is printed by the terminal-summary hook in conftest.py.
"""

import random
import time
from itertools import permutations, product

from keypoly.bruhat import verify_qww0
from keypoly.diagram import enumerate_lower_diagrams, monomial_of_diagram, skyline
from keypoly.filling import (
    descend_to_alpha,
    enumerate_fillings,
    lemma_step,
    optimize,
    promote_entry,
    swap_values,
    weight,
    witness_filling,
)
from keypoly.moves import (
    Move,
    apply_move,
    closure,
    dominance_leq,
    dominated_rearrangements,
    leq_kappa,
)
from keypoly.polynomial import (
    _KEY_CACHE,
    SparsePolynomial,
    demazure,
    exponent_vectors,
    key_polynomial,
)
from keypoly.polytope import VPolytope, lattice_points, polytope_subset
from keypoly.verify import suite_aa
from worked_examples import EXCHANGE_EXAMPLE, PROMOTE_EXAMPLE, full_family, rand_poly

WORKED_KEY_TERMS = {
    (3, 2, 1): 1,
    (3, 1, 2): 1,
    (2, 3, 1): 1,
    (2, 2, 2): 1,
    (1, 3, 2): 1,
}


def skyline_family(n_max, part_max):
    """Compositions with length <= n_max and parts <= min(part_max, n);
    the cap by n keeps every skyline inside its grid."""
    for n in range(1, n_max + 1):
        for alpha in product(range(min(part_max, n) + 1), repeat=n):
            yield alpha


def test_criterion_01_worked_key_expansion():
    expected = SparsePolynomial(3, WORKED_KEY_TERMS)
    best = float("inf")
    for _ in range(5):
        _KEY_CACHE.clear()
        t0 = time.perf_counter()
        got = key_polynomial((1, 3, 2))
        best = min(best, time.perf_counter() - t0)
        assert got == expected
    assert best < 1e-3, f"cold evaluation took {best * 1e3:.3f} ms"


def test_criterion_02_filling_weights_equal_exponents():
    t0 = time.perf_counter()
    for alpha in skyline_family(4, 4):
        weights = {weight(f) for f in enumerate_fillings(skyline(alpha))}
        assert weights == exponent_vectors(key_polynomial(alpha)), alpha
    assert time.perf_counter() - t0 < 60


def test_criterion_03_lower_diagram_monomials_equal_exponents():
    for alpha in skyline_family(4, 4):
        monomials = {monomial_of_diagram(c) for c in enumerate_lower_diagrams(skyline(alpha))}
        assert monomials == exponent_vectors(key_polynomial(alpha)), alpha


def test_criterion_04_closure_exponents_lattice_points():
    t0 = time.perf_counter()
    for alpha in full_family(4, 4):
        exps = exponent_vectors(key_polynomial(alpha))
        assert closure(alpha) == exps, alpha
        points = lattice_points(VPolytope.from_points(len(alpha), exps))
        assert points == exps, alpha
    assert time.perf_counter() - t0 < 600


def test_criterion_05_weight_sets_of_sorted_and_all_fillings():
    # the fixed 4x4 non-skyline diagram plus 50 seeded random diagrams
    result = suite_aa(4)
    assert result.checked == 51
    assert result.passed, result.failures


def test_criterion_06_descent_step_suite():
    for alpha in skyline_family(3, 3):
        d = skyline(alpha)
        for f in enumerate_fillings(d):
            w = weight(f)
            if w == alpha:
                continue
            f2, move = lemma_step(f)
            assert f2.diagram == d
            assert apply_move(weight(f2), move) == w, (alpha, f)
            assert w > weight(f2), (alpha, f)

    ex = PROMOTE_EXAMPLE
    assert optimize(ex.start) == ex.optimized
    stepped, move = lemma_step(ex.start)
    assert stepped == ex.result
    assert move == Move("M", ex.i, ex.j)

    ex = EXCHANGE_EXAMPLE
    assert optimize(ex.start) == ex.optimized
    assert swap_values(ex.optimized, ex.i, ex.j) == ex.result
    # This worked example's weights fall on the promote side of the guard
    # (beta_i <= beta_j), so the full step takes the other branch; both
    # constructions are pinned.
    beta = weight(ex.optimized)
    assert beta[ex.i - 1] <= beta[ex.j - 1]
    stepped, move = lemma_step(ex.start)
    assert move == Move("M", ex.i, ex.j)
    assert stepped == promote_entry(ex.optimized, ex.i, ex.j, ex.h)


def test_criterion_07_rado_specialization():
    for alpha in full_family(4, 4):
        if any(alpha[k] > alpha[k + 1] for k in range(len(alpha) - 1)):
            continue
        lam = tuple(sorted(alpha, reverse=True))
        assert closure(alpha) == dominated_rearrangements(lam), alpha

    def partitions(total, max_part, slots):
        if slots == 0:
            if total == 0:
                yield ()
            return
        low = -(-total // slots)
        for first in range(min(total, max_part), low - 1, -1):
            for rest in partitions(total - first, first, slots - 1):
                yield (first,) + rest

    n = 4
    for total in range(11):
        parts = list(partitions(total, total, n))
        hulls = {lam: VPolytope.from_points(n, set(permutations(lam))) for lam in parts}
        for mu in parts:
            for lam in parts:
                assert polytope_subset(hulls[mu], hulls[lam]) == dominance_leq(mu, lam), (mu, lam)


def test_criterion_08_bruhat_interval_polytopes_s4():
    t0 = time.perf_counter()
    for n in range(1, 5):
        for w in permutations(range(1, n + 1)):
            assert verify_qww0(w), w
    assert time.perf_counter() - t0 < 120


def test_criterion_09_operator_algebra():
    rng = random.Random(808)
    for _ in range(100):
        f = rand_poly(rng)
        for i in (1, 2):
            assert demazure(demazure(demazure(f, i), i + 1), i) == demazure(
                demazure(demazure(f, i + 1), i), i + 1
            )
        assert demazure(demazure(f, 1), 3) == demazure(demazure(f, 3), 1)
        for i in (1, 2, 3):
            g = demazure(f, i)
            assert demazure(g, i) == g


def test_criterion_10_witness_round_trip():
    for alpha in skyline_family(3, 3):
        for beta in closure(alpha):
            ok, chain = leq_kappa(beta, alpha)
            assert ok
            f = witness_filling(alpha, chain)
            assert weight(f) == beta, (alpha, beta)
            back = descend_to_alpha(f)
            assert back.start == alpha
            assert back.replay() == beta, (alpha, beta)
