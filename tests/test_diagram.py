"""Tests for diagrams, the columnwise order, and lower-set enumeration.

Oracle for the lower sets: filter all size-k subsets through subset_leq,
independently of the constrained search the implementation uses.
"""

import random
from itertools import combinations, product

import pytest

from keypoly import diagram, filling
from keypoly.diagram import (
    Diagram,
    _indicator_sumset,
    diagram_leq,
    enumerate_lower_diagrams,
    lower_monomials,
    lower_subsets,
    monomial_of_diagram,
    skyline,
    subset_leq,
)
from keypoly.polynomial import exponent_vectors, key_polynomial
from keypoly.verify import random_diagram
from worked_examples import GRID4_DIAGRAM, GRID5_DIAGRAM


def lower_subsets_oracle(s, n):
    return [r for r in combinations(range(1, n + 1), len(tuple(s))) if subset_leq(r, s)]


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

    @pytest.mark.parametrize("columns", [[(1,)], ([1],)])
    def test_columns_must_be_tuples(self, columns):
        # a list would leave the frozen diagram unhashable
        with pytest.raises(ValueError, match="must be a tuple"):
            Diagram(1, columns)

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
        with pytest.raises(ValueError, match=r"^part exceeding the grid size 3: \(4, 0, 0\)$"):
            skyline((4, 0, 0))

    @pytest.mark.parametrize("alpha", [(0.5, 1), (1.0, 0), (True, 0), (0, False), ("1", 0), (-1, 0)])
    def test_rejects_parts_that_are_not_nonnegative_ints(self, alpha):
        message = f"composition parts must be nonnegative ints, got {alpha}"
        with pytest.raises(ValueError) as info:
            skyline(alpha)
        assert str(info.value) == message

    def test_trusted_build_matches_the_checked_one(self):
        # skyline skips Diagram's row checks; the diagram it builds must
        # be the one Diagram.make builds, with checks, from the definition
        # (column j holds the rows i with alpha_i >= j).
        for n in range(5):
            for alpha in product(range(n + 1), repeat=n):
                d = skyline(alpha)
                columns = [[i for i in range(1, n + 1) if alpha[i - 1] >= j] for j in range(1, n + 1)]
                checked = Diagram.make(n, columns)
                assert d == checked and hash(d) == hash(checked)
                assert type(d.columns) is tuple and all(type(col) is tuple for col in d.columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (((2, 1), ()), "not strictly increasing"),
            (((1, 1), ()), "not strictly increasing"),
            (((3,), ()), "rows must be ints in 1..2"),
            (((0,), ()), "rows must be ints in 1..2"),
            (((1,),), "expected 2 columns"),
        ],
    )
    def test_public_constructor_still_checks_rows(self, columns, message):
        with pytest.raises(ValueError, match=message):
            Diagram(2, columns)


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

    @pytest.mark.parametrize("digits_max", [diagram._DIGITS_MAX, 0])
    def test_edge_cases_by_both_decoders(self, sumset_edge_diagrams, monkeypatch, digits_max):
        # With no digit table allowed, every sum is decoded digit by digit.
        monkeypatch.setattr(diagram, "_DIGITS_MAX", digits_max)
        for d in sumset_edge_diagrams:
            assert lower_monomials(d) == self.enumerated(d), d.columns

    def test_digit_tables_stay_within_their_bound(self, sumset_edge_diagrams):
        # n = 9..11 would need tables of 10**5 to 12**6 entries.
        for d in sumset_edge_diagrams:
            lower_monomials(d)
        assert all(len(table) <= diagram._DIGITS_MAX for table in diagram._DIGITS.values())

    def test_more_columns_than_coordinates(self):
        # Twelve columns of rows in 1..4 pack in base 13, and both halves
        # of a packed sum still decode through digit tables.
        n = 4
        columns = [(1,), (2, 4), (), (3,), (1, 2), (4,), (2,), (), (1, 3), (3, 4), (4,), (2, 3)]
        expected = {
            tuple(sum(i in s for s in choice) for i in range(1, n + 1))
            for choice in product(*[lower_subsets_oracle(col, n) for col in columns])
        }
        assert _indicator_sumset(n, columns, lower_subsets, n) == expected

    def test_changing_an_answer_leaves_the_next_unchanged(self):
        d = skyline((0, 2, 1))
        expected = self.enumerated(d)
        first = lower_monomials(d)
        first.add((9, 9, 9))
        assert lower_monomials(d) == expected
        first.clear()
        assert lower_monomials(d) == expected

    def test_a_planted_column_assignments_leaves_it_unchanged(self, monkeypatch):
        d = skyline((1, 2, 0, 1))
        expected = self.enumerated(d)
        assert lower_monomials(d) == expected
        monkeypatch.setattr(filling, "_column_assignments", lambda rows: [])
        assert filling.weight_set(d) == set()
        assert lower_monomials(d) == expected
