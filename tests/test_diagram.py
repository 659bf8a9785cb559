"""Tests for diagrams, the columnwise order, and lower-set enumeration.

Oracle for the lower sets: filter all size-k subsets through subset_leq,
independently of the constrained search the implementation uses.
"""

import random
from itertools import combinations, product

import pytest

from keypoly.diagram import (
    Diagram,
    diagram_leq,
    enumerate_lower_diagrams,
    lower_monomials,
    lower_subsets,
    monomial_of_diagram,
    skyline,
    subset_leq,
)
from keypoly.polynomial import exponent_vectors, key_polynomial
from worked_examples import GRID4_DIAGRAM, GRID5_DIAGRAM


def lower_subsets_oracle(s, n):
    return [r for r in combinations(range(1, n + 1), len(tuple(s))) if subset_leq(r, s)]


def random_diagram(rng, n):
    return Diagram.make(n, [[r for r in range(1, n + 1) if rng.random() < 0.5] for _ in range(n)])


class TestDiagram:
    def test_make_sorts_and_dedupes(self):
        d = Diagram.make(3, [[3, 1, 1], [], [2]])
        assert d.columns == ((1, 3), (), (2,))

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError):
            Diagram.make(2, [[3], []])

    @pytest.mark.parametrize("columns", [[[1.0], [2]], [[True], [2]]])
    def test_rejects_non_int_rows(self, columns):
        with pytest.raises(ValueError, match="rows must be ints"):
            Diagram.make(2, columns)
        with pytest.raises(ValueError, match="rows must be ints"):
            Diagram(2, tuple(map(tuple, columns)))

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ValueError):
            Diagram.make(2, [[1]])

    def test_json_round_trip(self):
        d = skyline((1, 2, 0, 1))
        assert d.to_json_dict() == {"n": 4, "columns": [[1, 2, 4], [2], [], []]}
        assert Diagram.from_json_dict(d.to_json_dict()) == d


class TestSkyline:
    def test_worked_example(self):
        assert skyline((1, 2, 0, 1)).columns == ((1, 2, 4), (2,), (), ())

    def test_empty(self):
        assert skyline((0, 0, 0)).columns == ((), (), ())

    def test_left_justified(self):
        d = skyline((3, 1, 2))
        assert d.columns == ((1, 2, 3), (1, 3), (1,))
        assert d.box_count() == 6

    def test_part_exceeding_grid(self):
        with pytest.raises(ValueError):
            skyline((4, 0, 0))

    @pytest.mark.parametrize("alpha", [(0.5, 1), (1.0, 0), (True, 0), (0, False), ("1", 0), (-1, 0)])
    def test_rejects_parts_that_are_not_nonnegative_ints(self, alpha):
        with pytest.raises(ValueError, match="nonnegative ints"):
            skyline(alpha)


class TestSubsetLeq:
    def test_examples(self):
        assert subset_leq({1, 3}, {2, 3})
        assert not subset_leq({1, 2}, {1})
        assert not subset_leq({2, 4}, {1, 4})

    def test_reflexive(self):
        assert subset_leq({2, 4}, {2, 4})


class TestDiagramLeq:
    def test_examples(self):
        d = skyline((1, 2, 0, 1))
        assert diagram_leq(d, d)
        c1 = Diagram.make(2, [[1], [1]])
        d1 = Diagram.make(2, [[2], [1]])
        assert diagram_leq(c1, d1)
        c2 = Diagram.make(2, [[2], [1]])
        d2 = Diagram.make(2, [[1], [2]])
        assert not diagram_leq(c2, d2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            diagram_leq(Diagram.make(2, [[], []]), Diagram.make(3, [[], [], []]))

    def test_partial_order_on_random_diagrams(self):
        rng = random.Random(99)
        pool = [random_diagram(rng, 4) for _ in range(40)]
        for a in pool:
            assert diagram_leq(a, a)
        for a in pool:
            for b in pool:
                if diagram_leq(a, b) and diagram_leq(b, a):
                    assert a == b
                for c in pool:
                    if diagram_leq(a, b) and diagram_leq(b, c):
                        assert diagram_leq(a, c)


class TestLowerSets:
    def test_lower_subsets_match_filter_oracle(self):
        for n in range(1, 6):
            subsets = [()] + [s for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)]
            for s in subsets:
                assert lower_subsets(s, n) == lower_subsets_oracle(s, n)

    def test_lower_subsets_of_124(self):
        assert lower_subsets((1, 2, 4), 4) == [(1, 2, 3), (1, 2, 4)]

    def test_lower_subsets_rejects_entries_outside_grid_or_repeated(self):
        for s, n in (((5,), 3), ((0, 1), 3), ((1, 4), 3), ((2, 2), 3)):
            with pytest.raises(ValueError):
                lower_subsets(s, n)

    def test_lower_diagram_count_for_1201(self):
        # per-column lower sets have sizes 2, 2, 1, 1
        d = skyline((1, 2, 0, 1))
        lower = list(enumerate_lower_diagrams(d))
        assert len(lower) == 4

    def test_single_box_column(self):
        d = skyline((0, 1))
        cs = {c.columns for c in enumerate_lower_diagrams(d)}
        assert cs == {((1,), ()), ((2,), ())}

    def test_all_empty_diagram(self):
        d = Diagram.make(3, [[], [], []])
        assert list(enumerate_lower_diagrams(d)) == [d]

    def test_yield_order_leftmost_column_outermost(self):
        # each column's candidates come in lex order and the last column
        # varies fastest, so the column sequences come out sorted
        rng = random.Random(9)
        for d in [skyline((1, 2, 0, 1)), skyline((0, 3, 2, 3))] + [random_diagram(rng, 4) for _ in range(10)]:
            seen = [c.columns for c in enumerate_lower_diagrams(d)]
            assert seen == sorted(seen)

    def test_no_duplicates_and_all_below(self):
        rng = random.Random(7)
        for _ in range(20):
            d = random_diagram(rng, 4)
            lower = list(enumerate_lower_diagrams(d))
            assert len(lower) == len(set(lower))
            assert all(diagram_leq(c, d) for c in lower)

    def test_matches_global_filter_oracle(self):
        # brute force: all diagrams with matching column sizes, filtered
        rng = random.Random(8)
        for _ in range(10):
            d = random_diagram(rng, 3)
            everything = [
                Diagram(3, cols)
                for cols in product(
                    *[list(combinations(range(1, 4), len(col))) for col in d.columns]
                )
            ]
            expected = {c for c in everything if diagram_leq(c, d)}
            assert set(enumerate_lower_diagrams(d)) == expected


class TestMonomialOfDiagram:
    def test_examples(self):
        assert monomial_of_diagram(skyline((1, 2, 0, 1))) == (1, 2, 0, 1)
        assert monomial_of_diagram(Diagram.make(3, [[], [], []])) == (0, 0, 0)
        assert monomial_of_diagram(Diagram.make(3, [[1], [1], [1]])) == (3, 0, 0)

    def test_skyline_weight_is_alpha(self):
        for n in range(1, 5):
            for alpha in product(range(n + 1), repeat=n):
                assert monomial_of_diagram(skyline(alpha)) == alpha


class TestLowerDiagramMonomials:
    def test_match_key_exponents_exhaustively(self):
        for n in range(1, 5):
            for alpha in product(range(min(n, 4) + 1), repeat=n):
                got = {monomial_of_diagram(c) for c in enumerate_lower_diagrams(skyline(alpha))}
                assert got == exponent_vectors(key_polynomial(alpha)), alpha


class TestLowerMonomials:
    """lower_monomials against the explicit enumeration of lower diagrams."""

    @staticmethod
    def enumerated(d):
        return {monomial_of_diagram(c) for c in enumerate_lower_diagrams(d)}

    def test_every_skyline_up_to_n4(self):
        for n in range(1, 5):
            for alpha in product(range(n + 1), repeat=n):
                d = skyline(alpha)
                assert lower_monomials(d) == self.enumerated(d), alpha

    def test_worked_grids(self):
        for d in (GRID4_DIAGRAM, GRID5_DIAGRAM):
            assert lower_monomials(d) == self.enumerated(d)

    def test_random_diagrams_up_to_5x5(self, sumset_diagrams):
        for d in sumset_diagrams:
            assert lower_monomials(d) == self.enumerated(d), d.columns

    def test_full_grid_sends_every_coordinate_to_n(self):
        for n in range(1, 6):
            assert lower_monomials(Diagram.make(n, [range(1, n + 1)] * n)) == {(n,) * n}
