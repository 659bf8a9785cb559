"""Tests for the moves, the reachability closure, and dominance.

The BFS in ``keypoly.moves`` scans moves as additions to packed integers;
the reference search below builds every edge from the public
``legal_moves`` and ``apply_move`` instead, so the two share no move
logic.
"""

import random
import re
from collections import deque
from itertools import permutations, product

import pytest

from keypoly import moves
from keypoly.moves import (
    Move,
    MoveChain,
    MoveError,
    apply_move,
    class_closures,
    closure,
    closure_order,
    dominance_leq,
    dominated_rearrangements,
    legal_moves,
    leq_kappa,
)
from keypoly.polynomial import exponent_vectors, key_polynomial
from worked_examples import full_family


def reference_bfs_parents(alpha):
    """BFS from alpha over legal_moves/apply_move; maps each reachable
    vector to its (parent, Move), alpha to None, in discovery order."""
    parents = {alpha: None}
    queue = deque([alpha])
    while queue:
        v = queue.popleft()
        for mv in legal_moves(v):
            w = apply_move(v, mv)
            if w not in parents:
                parents[w] = (v, mv)
                queue.append(w)
    return parents


def kernel_parents_as_moves(alpha):
    """The kernel's parent map with each step rebuilt as (parent, Move)."""
    return [
        (w, None if step is None else (step[0], Move(*step[1:])))
        for w, step in moves._bfs_parents(alpha).items()
    ]


class TestMove:
    def test_swap(self):
        assert apply_move((1, 3, 2), Move("T", 1, 2)) == (3, 1, 2)

    def test_transfer(self):
        assert apply_move((1, 3, 2), Move("M", 1, 2)) == (2, 2, 2)

    def test_transfer_boundary_is_strict(self):
        with pytest.raises(MoveError):
            apply_move((1, 3, 2), Move("M", 1, 3))  # 1 < 2 - 1 fails

    def test_swap_requires_increase(self):
        with pytest.raises(MoveError):
            apply_move((3, 1), Move("T", 1, 2))

    def test_swap_of_equal_entries_is_refused(self):
        # a T move needs a strict increase; on (2, 2) it would be a no-op
        with pytest.raises(MoveError):
            apply_move((2, 2), Move("T", 1, 2))

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            Move("T", 2, 2)
        with pytest.raises(ValueError):
            Move("X", 1, 2)
        with pytest.raises(ValueError):
            apply_move((1, 2), Move("T", 1, 3))
        with pytest.raises(ValueError):
            MoveChain((0, 2), ("x",))

    @pytest.mark.parametrize("start, chain_moves", [([0, 1], ()), ((0, 1), [Move("T", 1, 2)])])
    def test_chain_fields_must_be_tuples(self, start, chain_moves):
        # a list field would leave the frozen chain unhashable
        with pytest.raises(ValueError, match="must be tuples"):
            MoveChain(start, chain_moves)

    def test_json_round_trip(self):
        chain = MoveChain((1, 3, 2), (Move("M", 1, 2),))
        assert MoveChain.from_json_dict(chain.to_json_dict()) == chain


class TestLegalMoves:
    def test_deterministic_order(self):
        got = legal_moves((0, 2))
        assert got == [Move("T", 1, 2), Move("M", 1, 2)]

    def test_none_from_strictly_decreasing(self):
        assert legal_moves((3, 2, 1)) == []


class TestClosure:
    def test_worked_example(self):
        assert closure((1, 3, 2)) == {
            (1, 3, 2),
            (3, 1, 2),
            (2, 3, 1),
            (2, 2, 2),
            (3, 2, 1),
        }

    def test_fixed_point(self):
        assert closure((3, 2, 1)) == {(3, 2, 1)}

    def test_matches_dominance_specialization(self):
        assert closure((0, 0, 2)) == {
            (2, 0, 0),
            (0, 2, 0),
            (0, 0, 2),
            (1, 1, 0),
            (1, 0, 1),
            (0, 1, 1),
        }

    def test_discovery_order_is_bfs(self):
        assert closure_order((0, 2)) == [(0, 2), (2, 0), (1, 1)]

    def test_kernel_matches_reference_search(self):
        # identical discovery order and identical (parent, move) per vector;
        # the length-6 vectors repeat entries and have gaps of 2 or more,
        # so one state often has a T and an M move on the same pair
        for alpha in full_family(4, 4) + [(0, 1, 2, 3, 4), (0, 3, 1, 3, 0, 2), (2, 0, 4, 1, 1, 3), (0, 1, 2, 3, 4, 5)]:
            expected = reference_bfs_parents(alpha)
            assert kernel_parents_as_moves(alpha) == list(expected.items()), alpha
            lo, hi, total = min(alpha), max(alpha), sum(alpha)
            for v in expected:
                assert sum(v) == total and all(lo <= x <= hi for x in v), (alpha, v)

    def test_kernel_matches_reference_on_packing_edge_cases(self):
        # base 1 (all entries equal), negative entries, and a base of 13
        for alpha in [(), (4,), (3, 3, 3), (-1, -1), (-2, 0, 3), (0, 12, 1)]:
            assert kernel_parents_as_moves(alpha) == list(reference_bfs_parents(alpha).items()), alpha

    def test_returned_sets_are_fresh_copies(self):
        # the search is memoized; callers must not be able to edit the memo
        alpha = (1, 3, 2)
        closure(alpha).add((9, 9, 9))
        closure_order(alpha).clear()
        assert (9, 9, 9) not in closure(alpha)
        assert len(closure_order(alpha)) == 5

    def test_non_integer_entries_rejected(self):
        closure((1, 2))
        calls = (closure, closure_order, lambda v: leq_kappa((2, 1), v), lambda v: apply_move(v, Move("T", 1, 2)))
        for call in calls:
            for v in ((1.0, 2.0), (True, 2)):
                with pytest.raises(TypeError):
                    call(v)

    def test_non_integer_beta_rejected(self):
        """A float or bool beta would hash equal to an int vector of the
        closure and get that vector's chain."""
        for beta in ((2.0, 0.0), (True, 1)):
            with pytest.raises(TypeError):
                leq_kappa(beta, (0, 2))
        found, chain = leq_kappa((2, 0), (0, 2))
        assert found and chain.replay() == (2, 0)

    def test_bool_entries_do_not_poison_the_memo(self):
        moves._bfs_parents.cache_clear()
        for call in (closure, closure_order, lambda v: leq_kappa((1, 0), v)):
            with pytest.raises(TypeError):
                call((False, True))
        got = closure_order((0, 1))
        assert got == [(0, 1), (1, 0)]
        assert all(type(x) is int for v in got for x in v)

    def test_closure_then_queries_search_once(self):
        alpha = (0, 2, 1, 3)
        moves._bfs_parents.cache_clear()
        reach = closure(alpha)
        for beta in sorted(reach)[:3]:
            assert leq_kappa(beta, alpha)[0]
        info = moves._bfs_parents.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 3, 1)

    def test_sum_and_range_preserved(self):
        rng = random.Random(11)
        for _ in range(30):
            alpha = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 4)))
            for v in closure(alpha):
                assert sum(v) == sum(alpha)
                assert min(alpha) <= min(v) and max(v) <= max(alpha)


class TestClassClosures:
    def test_match_bfs_closure(self):
        """The one-pass closures equal the BFS on every vector of length
        <= 4 with parts <= 4, and the classes of one length hold each such
        vector once, in decreasing lex order within a class."""
        for n in range(1, 5):
            seen = []
            for total in range(4 * n + 1):
                vectors, masks = class_closures(n, 4, total)
                assert vectors == sorted(vectors, reverse=True) and len(masks) == len(vectors)
                for v, mask in zip(vectors, masks):
                    assert sum(v) == total
                    assert {w for k, w in enumerate(vectors) if mask >> k & 1} == closure(v), v
                seen += vectors
            assert sorted(seen) == list(product(range(5), repeat=n))

    def test_edge_classes(self):
        with pytest.raises(ValueError):
            class_closures(0, 3, 0)
        assert class_closures(1, 3, 2) == ([(2,)], [1])
        assert class_closures(3, 2, 7) == ([], [])
        assert class_closures(2, 3, 3) == ([(3, 0), (2, 1), (1, 2), (0, 3)], [0b1, 0b10, 0b110, 0b1111])


class TestLeqKappa:
    def test_reachable_with_chain(self):
        ok, chain = leq_kappa((2, 2, 2), (1, 3, 2))
        assert ok
        assert chain == MoveChain((1, 3, 2), (Move("M", 1, 2),))
        assert chain.replay() == (2, 2, 2)

    def test_reflexive_empty_chain(self):
        ok, chain = leq_kappa((1, 3, 2), (1, 3, 2))
        assert ok and chain.moves == ()

    def test_unreachable(self):
        ok, chain = leq_kappa((4, 1, 1), (1, 3, 2))
        assert not ok and chain is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            leq_kappa((1, 2), (1, 2, 3))

    def test_chains_follow_reference_parents(self):
        alpha = (0, 1, 2, 3)
        parents = reference_bfs_parents(alpha)
        for beta in closure(alpha):
            path = []
            node = beta
            while parents[node] is not None:
                node, mv = parents[node]
                path.append(mv)
            assert leq_kappa(beta, alpha) == (True, MoveChain(alpha, tuple(reversed(path))))

    def test_all_witness_chains_replay(self):
        for n in range(1, 4):
            for alpha in product(range(4), repeat=n):
                for beta in closure(alpha):
                    ok, chain = leq_kappa(beta, alpha)
                    assert ok and chain.start == alpha and chain.replay() == beta


class TestClosureMatchesKeyExponents:
    def test_exhaustive(self):
        for n in range(1, 5):
            for alpha in product(range(5), repeat=n):
                assert closure(alpha) == exponent_vectors(key_polynomial(alpha)), alpha

    def test_containment_iff_reachable_small(self):
        # reachable-set containment agrees with membership, n <= 3, parts <= 3
        # (trivially so across different coordinate sums)
        for n in range(1, 4):
            universe = list(product(range(4), repeat=n))
            reaches = {alpha: closure(alpha) for alpha in universe}
            for alpha in universe:
                for beta in universe:
                    expected = reaches[beta] <= reaches[alpha]
                    assert expected == leq_kappa(beta, alpha)[0]


class _Int(int):
    """An int subclass, which the partition checks refuse."""


class TestDominance:
    def test_examples(self):
        assert dominance_leq((2, 2, 2), (3, 2, 1))
        assert dominance_leq((3, 2, 1), (3, 2, 1))
        assert not dominance_leq((3, 3, 0), (3, 2, 1))

    def test_rejects_unequal_sums(self):
        with pytest.raises(ValueError):
            dominance_leq((2, 1), (2, 2))

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError, match=r"^mu is not weakly decreasing: \(1, 2\)$"):
            dominance_leq((1, 2), (2, 1))
        with pytest.raises(ValueError, match=r"^lambda is not weakly decreasing: \(1, 2\)$"):
            dominance_leq((2, 1), (1, 2))

    @pytest.mark.parametrize(
        "mu, lam",
        [((1.5, 0.5), (2, 0)), ((2, 0), (2.0, 0)), ((True, True), (2, 0)), ((2, 0), (1, True)), ((-1, -1), (0, -2))],
    )
    def test_rejects_parts_that_are_not_nonnegative_ints(self, mu, lam):
        with pytest.raises(ValueError, match="nonnegative ints"):
            dominance_leq(mu, lam)

    @pytest.mark.parametrize("lam", [(2.0, 0), (1.5, 0.5), (True, False), (1, -1)])
    def test_rearrangements_reject_parts_that_are_not_nonnegative_ints(self, lam):
        with pytest.raises(ValueError, match="nonnegative ints"):
            dominated_rearrangements(lam)

    @pytest.mark.parametrize("part", [True, _Int(1)], ids=["bool", "int subclass"])
    def test_rejects_a_part_whose_type_is_not_int(self, part):
        """Parts must be exactly int, as Move, MoveChain, Filling and
        VPolytope require: a bool or an int subclass is refused."""
        parts = re.escape(repr((1, part)))
        with pytest.raises(ValueError, match=f"^mu parts must be nonnegative ints: {parts}$"):
            dominance_leq((1, part), (2, 0))
        with pytest.raises(ValueError, match=f"^lambda parts must be nonnegative ints: {parts}$"):
            dominance_leq((2, 0), (1, part))
        with pytest.raises(ValueError, match="^lambda parts must be nonnegative ints"):
            dominated_rearrangements((part, 0))

    def test_rearrangement_examples(self):
        assert dominated_rearrangements((1, 0)) == {(1, 0), (0, 1)}
        assert dominated_rearrangements((2, 0, 0)) == {
            (2, 0, 0),
            (0, 2, 0),
            (0, 0, 2),
            (1, 1, 0),
            (1, 0, 1),
            (0, 1, 1),
        }

    def test_rearrangement_count_matches_closure(self):
        assert len(dominated_rearrangements((3, 2, 1))) == len(closure((1, 2, 3)))

    def test_weakly_increasing_closures(self):
        for n in range(1, 5):
            for alpha in product(range(5), repeat=n):
                if any(alpha[k] > alpha[k + 1] for k in range(n - 1)):
                    continue
                lam = tuple(sorted(alpha, reverse=True))
                assert closure(alpha) == dominated_rearrangements(lam), alpha

    def test_dominated_rearrangements_oracle(self):
        # brute force: all length-n vectors of the right sum whose sorted
        # form is dominated
        for lam in [(2, 1, 0), (3, 1), (2, 2, 1), (4, 0, 0, 0)]:
            n, total = len(lam), sum(lam)
            expected = {
                v
                for v in product(range(total + 1), repeat=n)
                if sum(v) == total and dominance_leq(tuple(sorted(v, reverse=True)), lam)
            }
            assert dominated_rearrangements(lam) == expected

    def test_permutation_invariance(self):
        lam = (3, 1, 0)
        out = dominated_rearrangements(lam)
        for v in out:
            for p in permutations(v):
                assert p in out
