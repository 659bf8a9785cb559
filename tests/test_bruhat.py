"""Tests for the Bruhat order and interval polytopes.

Oracle: the order is the transitive closure of covers, where a cover
swaps two positions and raises the inversion count by exactly one.  The
tableau-criterion implementation must agree with that closure on all of
S_n for n <= 5.
"""

from itertools import combinations, permutations

import pytest

from keypoly.bruhat import (
    bruhat_interval,
    bruhat_leq,
    check_permutation,
    interval_polytope,
    inversions,
    longest_element,
    verify_qww0,
)
from keypoly.moves import closure
from keypoly.polynomial import exponent_vectors, key_polynomial
from keypoly.polytope import VPolytope, lattice_points


def bruhat_leq_oracle(n):
    """Reachability over length-increasing transposition covers."""
    perms = list(permutations(range(1, n + 1)))
    reach = {w: {w} for w in perms}
    by_length = sorted(perms, key=inversions, reverse=True)
    for u in by_length:
        for a, b in combinations(range(n), 2):
            v = list(u)
            v[a], v[b] = v[b], v[a]
            v = tuple(v)
            if inversions(v) == inversions(u) + 1:
                reach[u] |= reach[v]
    return lambda u, v: v in reach[u]


class TestBruhatLeq:
    def test_identity_below_everything(self):
        for n in range(1, 5):
            e = tuple(range(1, n + 1))
            for w in permutations(e):
                assert bruhat_leq(e, w)

    def test_examples(self):
        assert bruhat_leq((1, 3, 2), (3, 1, 2))
        assert not bruhat_leq((2, 1, 3), (1, 3, 2))
        assert not bruhat_leq((1, 3, 2), (2, 1, 3))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bruhat_leq((1, 1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            bruhat_leq((1, 2), (1, 2, 3))
        # True and 1.0 compare equal to 1, so only their type tells them apart.
        for call in (
            lambda: check_permutation((True, 2)),
            lambda: check_permutation((1.0, 2.0)),
            lambda: inversions((1.0, 2)),
            lambda: bruhat_leq((1, 2), (2.0, 1)),
            lambda: bruhat_interval((True, 2), (2, 1)),
        ):
            with pytest.raises(ValueError, match="must be ints"):
                call()

    def test_agrees_with_cover_closure(self):
        for n in range(1, 6):
            oracle = bruhat_leq_oracle(n)
            for u in permutations(range(1, n + 1)):
                for v in permutations(range(1, n + 1)):
                    assert bruhat_leq(u, v) == oracle(u, v), (u, v)


class TestInterval:
    def test_singleton(self):
        assert bruhat_interval((2, 1, 3), (2, 1, 3)) == {(2, 1, 3)}

    def test_worked_interval(self):
        assert bruhat_interval((1, 3, 2), (3, 2, 1)) == {
            (1, 3, 2),
            (3, 1, 2),
            (2, 3, 1),
            (3, 2, 1),
        }

    def test_full_group(self):
        n = 4
        e = tuple(range(1, n + 1))
        assert len(bruhat_interval(e, longest_element(n))) == 24

    def test_rejects_incomparable(self):
        with pytest.raises(ValueError):
            bruhat_interval((3, 1, 2), (1, 3, 2))

    def test_matches_a_filter_by_bruhat_leq(self):
        for n in range(1, 5):
            perms = list(permutations(range(1, n + 1)))
            for u in perms:
                for v in perms:
                    if bruhat_leq(u, v):
                        expected = {w for w in perms if bruhat_leq(u, w) and bruhat_leq(w, v)}
                        assert bruhat_interval(u, v) == expected, (u, v)


class TestIntervalPolytope:
    def test_point(self):
        p = interval_polytope((2, 1), (2, 1))
        assert p.generators == ((2, 1),)

    def test_worked_generators(self):
        p = interval_polytope((1, 3, 2), (3, 2, 1))
        assert set(p.generators) == {(1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)}

    def test_full_interval_is_permutohedron(self):
        n = 3
        p = interval_polytope(tuple(range(1, n + 1)), longest_element(n))
        q = VPolytope.from_points(n, set(permutations(range(1, n + 1))))
        assert lattice_points(p) == lattice_points(q) == set(permutations((1, 2, 3))) | {(2, 2, 2)}


class TestQww0:
    def test_longest_element_single_point(self):
        assert verify_qww0((3, 2, 1))

    def test_worked_example(self):
        assert verify_qww0((1, 3, 2))

    def test_all_s3(self):
        for w in permutations((1, 2, 3)):
            assert verify_qww0(w)

    def test_interval_lattice_points_are_the_closure(self):
        for n in range(1, 5):
            for w in permutations(range(1, n + 1)):
                p = interval_polytope(w, longest_element(n))
                assert lattice_points(p) == closure(w), w

    def test_all_s5(self):
        for w in permutations((1, 2, 3, 4, 5)):
            assert verify_qww0(w), w


class TestNewtonEqualsInterval:
    def test_newton_generators(self):
        w = (1, 3, 2)
        exps = exponent_vectors(key_polynomial(w))
        newton = VPolytope.from_points(3, exps)
        assert lattice_points(newton) == lattice_points(interval_polytope(w, (3, 2, 1))) == exps
