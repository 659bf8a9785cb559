"""Tests for fillings: enumeration, optimization, and the descent steps.

Enumeration oracle: assign every box a value from 1..n independently and
keep the assignments that happen to be column-strict and flagged.  The
implementation never sees this path.
"""

import random
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypoly import diagram, filling
from keypoly.diagram import Diagram, lower_monomials, skyline
from keypoly.filling import (
    Filling,
    descend_to_alpha,
    enumerate_fillings,
    enumerate_sorted_fillings,
    lemma_step,
    optimize,
    promote_entry,
    row_index_filling,
    sort_columns,
    swap_values,
    weight,
    weight_set,
    witness_filling,
)
from keypoly.moves import Move, MoveChain, MoveError, apply_move, closure, leq_kappa
from keypoly.polynomial import exponent_vectors, key_polynomial
from keypoly.verify import composition_family, random_diagram
from worked_examples import (
    EXCHANGE_EXAMPLE,
    GRID4_DIAGRAM,
    GRID5_DIAGRAM,
    GRID5_OPTIMIZED,
    GRID5_SCRAMBLED,
    GRID5_SORTED,
    PROMOTE_EXAMPLE,
)


def naive_fillings(d: Diagram) -> set[Filling]:
    """Filter every raw assignment of 1..n to the boxes."""
    boxes = list(d.boxes())
    out = set()
    for values in product(range(1, d.n + 1), repeat=len(boxes)):
        entry = dict(zip(boxes, values))
        if any(v > r for (r, _c), v in entry.items()):
            continue
        ok = True
        for j, rows in enumerate(d.columns, start=1):
            col = [entry[(r, j)] for r in rows]
            if len(set(col)) != len(col):
                ok = False
                break
        if ok:
            cols = tuple(tuple(entry[(r, j)] for r in rows) for j, rows in enumerate(d.columns, 1))
            out.add(Filling(d, cols))
    return out


def random_filling(rng: random.Random, d: Diagram) -> Filling:
    cols = []
    for rows in d.columns:
        while True:
            values = []
            ok = True
            for r in rows:
                pool = [v for v in range(1, r + 1) if v not in values]
                if not pool:
                    ok = False
                    break
                values.append(rng.choice(pool))
            if ok:
                cols.append(tuple(values))
                break
    return Filling(d, tuple(cols))


class TestFillingType:
    def test_rejects_flag_violation(self):
        d = skyline((1, 0))
        with pytest.raises(ValueError):
            Filling(d, ((2,), ()))  # row 1 cannot hold 2

    def test_rejects_column_repeat(self):
        d = skyline((0, 2, 2))
        with pytest.raises(ValueError):
            Filling(d, ((2, 2), (1, 1)))

    def test_rejects_shape_mismatch(self):
        d = skyline((1, 0))
        with pytest.raises(ValueError):
            Filling(d, ((1, 1), ()))

    @pytest.mark.parametrize(
        "d, columns",
        [
            (skyline((1, 0)), [(1,), ()]),  # a list would make the filling unhashable
            (skyline((1, 0)), ([1], ())),
            (skyline((1, 0)), ((True,), ())),
            (skyline((1, 0)), ((1.0,), ())),  # a float cannot index weight's counts
            (skyline((1, 0)), (("1",), ())),
            (skyline((1, 0)).columns, ((1,), ())),
            (None, ((1,), ())),
        ],
    )
    def test_rejects_non_diagram_non_tuple_and_non_int_fields(self, d, columns):
        with pytest.raises(ValueError):
            Filling(d, columns)

    def test_entry_lookup(self):
        f = row_index_filling(skyline((1, 2)))
        assert f.entry(2, 1) == 2
        with pytest.raises(KeyError):
            f.entry(1, 2)

    def test_columns_outside_1_to_n_are_refused(self):
        # column 0 and negative columns must not wrap round to the last one
        f = row_index_filling(skyline((0, 2)))
        assert f.entry(2, 2) == 2 and f.column_values(2) == {2}
        for col in (0, -1, 3):
            with pytest.raises(KeyError):
                f.entry(2, col)
            with pytest.raises(KeyError):
                f.column_values(col)

    def test_json_round_trip_sorted_by_col_row(self):
        f = GRID5_SCRAMBLED
        data = f.to_json_dict()
        keys = [(e["col"], e["row"]) for e in data["entries"]]
        assert keys == sorted(keys)
        assert Filling.from_json_dict(data) == f

    def test_json_rejects_bad_boxes(self):
        data = row_index_filling(skyline((1, 1))).to_json_dict()
        data["entries"][0]["col"] = 2
        with pytest.raises(ValueError):
            Filling.from_json_dict(data)


class TestEnumeration:
    def test_single_box_row2(self):
        d = skyline((0, 1))
        got = list(enumerate_fillings(d))
        assert len(got) == 2
        assert {f.entry(2, 1) for f in got} == {1, 2}

    def test_single_box_row1_forced(self):
        d = skyline((1, 0))
        got = list(enumerate_fillings(d))
        assert len(got) == 1 and got[0].entry(1, 1) == 1

    def test_matches_naive_oracle(self):
        cases = [skyline((1, 3, 2)), skyline((0, 2, 2)), GRID4_DIAGRAM]
        rng = random.Random(21)
        cases += [random_diagram(rng, 3) for _ in range(5)]
        for d in cases:
            got = list(enumerate_fillings(d))
            assert len(got) == len(set(got))
            assert set(got) == naive_fillings(d)

    def test_sorted_fillings_match_filter(self):
        cases = [skyline((0, 2, 2)), GRID4_DIAGRAM, GRID5_DIAGRAM]
        for d in cases:
            direct = set(enumerate_sorted_fillings(d))
            filtered = {
                f
                for f in enumerate_fillings(d)
                if all(col == tuple(sorted(col)) for col in f.columns)
            }
            assert direct == filtered

    def test_sorted_worked_example_membership(self):
        assert GRID5_SORTED in set(enumerate_sorted_fillings(GRID5_DIAGRAM))
        assert GRID5_SCRAMBLED not in set(enumerate_sorted_fillings(GRID5_DIAGRAM))

    def test_single_box_sorted_equals_all(self):
        d = skyline((0, 1))
        assert set(enumerate_sorted_fillings(d)) == set(enumerate_fillings(d))

    def test_yield_order_leftmost_column_outermost(self):
        # each column's tuples come in lex order and the last column
        # varies fastest, so the column sequences come out sorted
        for d in [skyline((1, 3, 2)), skyline((0, 2, 2)), skyline((0, 3, 2, 3)), GRID4_DIAGRAM]:
            for enumerate_ in (enumerate_fillings, enumerate_sorted_fillings):
                seen = [f.columns for f in enumerate_(d)]
                assert seen == sorted(seen)
                assert len(seen) == len(set(seen))


class TestWeight:
    def test_row_index_filling_weight_is_alpha(self):
        for alpha in [(1, 2, 0, 1), (0, 0), (3, 1, 2)]:
            assert weight(row_index_filling(skyline(alpha))) == alpha

    def test_empty_diagram(self):
        assert weight(row_index_filling(skyline((0, 0, 0)))) == (0, 0, 0)

    def test_worked_grid5_weight(self):
        assert weight(GRID5_SCRAMBLED) == (4, 5, 2, 3, 0)
        assert weight(GRID5_OPTIMIZED) == (4, 5, 2, 3, 0)


class TestSortColumns:
    def test_worked_example(self):
        assert sort_columns(GRID5_SCRAMBLED) == GRID5_SORTED

    def test_result_is_sorted_member(self):
        rng = random.Random(31)
        for _ in range(40):
            d = random_diagram(rng, 4)
            f = random_filling(rng, d)
            g = sort_columns(f)
            assert weight(g) == weight(f)
            assert all(col == tuple(sorted(col)) for col in g.columns)
            # construction validates the flag bound, membership is implied


class TestWeightSetsCoincide:
    def test_on_worked_diagrams_and_random(self):
        rng = random.Random(41)
        diagrams = [GRID4_DIAGRAM, GRID5_DIAGRAM] + [random_diagram(rng, 4) for _ in range(10)]
        for d in diagrams:
            assert {weight(f) for f in enumerate_fillings(d)} == {
                weight(f) for f in enumerate_sorted_fillings(d)
            }


class TestWeightSet:
    """weight_set against the explicit enumeration of every filling."""

    @staticmethod
    def enumerated(d: Diagram) -> set[tuple[int, ...]]:
        return {weight(f) for f in enumerate_fillings(d)}

    def test_every_skyline_up_to_n4(self):
        for n in range(1, 5):
            for alpha in product(range(n + 1), repeat=n):
                d = skyline(alpha)
                assert weight_set(d) == self.enumerated(d), alpha

    def test_worked_grids(self):
        for d in (GRID4_DIAGRAM, GRID5_DIAGRAM):
            assert weight_set(d) == self.enumerated(d)

    def test_random_diagrams_up_to_5x5(self, sumset_diagrams):
        for d in sumset_diagrams:
            assert weight_set(d) == self.enumerated(d), d.columns

    def test_full_grid_sends_every_coordinate_to_n(self):
        for n in range(1, 6):
            assert weight_set(Diagram.make(n, [range(1, n + 1)] * n)) == {(n,) * n}

    @pytest.mark.parametrize("digits_max", [diagram._DIGITS_MAX, 0])
    def test_edge_cases_by_both_decoders(self, sumset_edge_diagrams, monkeypatch, digits_max):
        # With no digit table allowed, every sum is decoded digit by digit.
        monkeypatch.setattr(diagram, "_DIGITS_MAX", digits_max)
        for d in sumset_edge_diagrams:
            assert weight_set(d) == self.enumerated(d), d.columns

    def test_changing_an_answer_leaves_the_next_unchanged(self):
        d = skyline((0, 2, 1))
        expected = self.enumerated(d)
        first = weight_set(d)
        first.add((9, 9, 9))
        assert weight_set(d) == expected
        first.clear()
        assert weight_set(d) == expected

    def test_column_value_sets_are_the_lower_subsets(self):
        # The identity that lets verify's ccc take kk's sum: a column's
        # assignments have as value sets exactly its lower subsets.
        for n in range(1, 9):
            for kept in product((False, True), repeat=n):
                rows = tuple(compress(range(1, n + 1), kept))
                values = {frozenset(v) for v in filling._column_assignments(rows)}
                assert values == set(map(frozenset, diagram.lower_subsets(rows, n))), rows

    def test_equals_lower_monomials_on_every_skyline_of_4_4(self):
        # verify's ccc calls weight_set only when a column's steps differ
        # from kk's, so this guards the body that passing sweeps skip.
        for alpha in composition_family(4, 4):
            d = skyline(alpha)
            assert weight_set(d) == lower_monomials(d), alpha

    def test_a_planted_lower_subsets_leaves_it_unchanged(self, monkeypatch):
        d = skyline((1, 2, 0, 1))
        expected = self.enumerated(d)
        assert weight_set(d) == expected
        for module in (diagram, filling):
            monkeypatch.setattr(module, "lower_subsets", lambda s, n: [])
        assert lower_monomials(d) == set()
        assert weight_set(d) == expected


class TestFillingWeightsMatchKeyExponents:
    def test_exhaustive_small(self):
        for n in range(1, 4):
            for alpha in product(range(min(n, 3) + 1), repeat=n):
                weights = {weight(f) for f in enumerate_fillings(skyline(alpha))}
                assert weights == exponent_vectors(key_polynomial(alpha)), alpha


class TestOptimize:
    def test_fixed_point_when_all_home(self):
        f = row_index_filling(skyline((2, 2)))
        assert optimize(f) == f

    def test_worked_example(self):
        assert optimize(GRID5_SCRAMBLED) == GRID5_OPTIMIZED

    def test_postconditions_random(self):
        rng = random.Random(51)
        for _ in range(60):
            d = random_diagram(rng, 4)
            f = random_filling(rng, d)
            g = optimize(f)
            assert weight(g) == weight(f)
            for j, rows in enumerate(d.columns, start=1):
                targets = set(g.columns[j - 1]) & set(rows)
                for t in targets:
                    assert g.entry(t, j) == t

    def test_exhaustive_small_skylines(self):
        for n in range(1, 4):
            for alpha in product(range(min(n, 3) + 1), repeat=n):
                d = skyline(alpha)
                for f in enumerate_fillings(d):
                    g = optimize(f)
                    assert weight(g) == weight(f)


class TestLemmaStep:
    def test_requires_weight_off_alpha(self):
        f = row_index_filling(skyline((1, 2)))
        with pytest.raises(ValueError):
            lemma_step(f)

    def test_requires_skyline(self):
        f = row_index_filling(GRID4_DIAGRAM)
        with pytest.raises(ValueError):
            lemma_step(f)

    def test_two_box_hand_trace(self):
        d = skyline((0, 1))
        f = Filling(d, ((1,), ()))
        g, move = lemma_step(f)
        assert move == Move("T", 1, 2)
        assert g.entry(2, 1) == 2
        assert apply_move(weight(g), move) == weight(f)

    def test_promote_example_box_for_box(self):
        ex = PROMOTE_EXAMPLE
        assert optimize(ex.start) == ex.optimized
        result, move = lemma_step(ex.start)
        assert result == ex.result
        assert move == Move("M", ex.i, ex.j)

    def test_exchange_example_construction_box_for_box(self):
        ex = EXCHANGE_EXAMPLE
        assert optimize(ex.start) == ex.optimized
        assert swap_values(ex.optimized, ex.i, ex.j) == ex.result
        # weights of the pair differ by a swap of the i and j counts
        w_opt, w_res = weight(ex.optimized), weight(ex.result)
        assert w_res[ex.i - 1] == w_opt[ex.j - 1]
        assert w_res[ex.j - 1] == w_opt[ex.i - 1]

    def test_exchange_example_guard_flagged(self):
        # The worked exchange example has beta_i <= beta_j, so the guard
        # routes the full step to the promote construction; its output is
        # the optimized filling with the single stray entry promoted.
        ex = EXCHANGE_EXAMPLE
        beta = weight(ex.optimized)
        assert beta[ex.i - 1] <= beta[ex.j - 1]
        result, move = lemma_step(ex.start)
        assert move == Move("M", ex.i, ex.j)
        assert result == promote_entry(ex.optimized, ex.i, ex.j, ex.h)

    def test_exhaustive_postconditions(self):
        for n in range(1, 4):
            for alpha in product(range(min(n, 3) + 1), repeat=n):
                d = skyline(alpha)
                for f in enumerate_fillings(d):
                    if weight(f) == alpha:
                        continue
                    g, move = lemma_step(f)
                    assert g.diagram == d  # valid filling of the same diagram
                    assert apply_move(weight(g), move) == weight(f)
                    assert weight(f) > weight(g)  # strict lex decrease

    def test_promote_entry_guards(self):
        # column 1 holds 1 at row 2 and 2 at row 3
        f = Filling(skyline((0, 2, 2)), ((1, 2), (1, 2), ()))
        with pytest.raises(ValueError):
            promote_entry(f, 2, 2, 1)  # box (2,1) holds 1, not 2
        with pytest.raises(ValueError):
            promote_entry(f, 1, 2, 1)  # column 1 already contains 2


def locate_stray_by_grid(f: Filling) -> tuple[int, int, int]:
    """Oracle for ``_locate_stray``: probe the n x n grid row by row."""
    n = f.diagram.n
    for j in range(1, n + 1):
        for h in range(1, n + 1):
            if f.diagram.has_box(j, h) and f.entry(j, h) != j:
                return (f.entry(j, h), j, h)
    raise AssertionError("no stray entry")


class TestLocateStray:
    def test_matches_the_grid_scan(self):
        for alpha in composition_family(3, 3):
            for f in enumerate_fillings(skyline(alpha)):
                if any(value != row for row, _, value in f.entries()):
                    assert filling._locate_stray(f) == locate_stray_by_grid(f), f

    def test_row_index_filling_has_none(self):
        with pytest.raises(ValueError, match="every entry equals its row index"):
            filling._locate_stray(row_index_filling(skyline((1, 3, 2))))


class TestDescendToAlpha:
    def test_row_index_filling_gives_empty_chain(self):
        d = skyline((1, 3, 2))
        chain = descend_to_alpha(row_index_filling(d))
        assert chain == MoveChain((1, 3, 2), ())

    def test_chain_replays_to_weight(self):
        d = skyline((1, 3, 2))
        for f in enumerate_fillings(d):
            chain = descend_to_alpha(f)
            assert chain.start == (1, 3, 2)
            assert chain.replay() == weight(f)

    def test_exhaustive_replay(self):
        for n in range(1, 4):
            for alpha in product(range(min(n, 3) + 1), repeat=n):
                for f in enumerate_fillings(skyline(alpha)):
                    assert descend_to_alpha(f).replay() == weight(f)


class TestWitnessFilling:
    def test_empty_chain_gives_row_index_filling(self):
        got = witness_filling((1, 3, 2), MoveChain((1, 3, 2), ()))
        assert got == row_index_filling(skyline((1, 3, 2)))
        assert weight(got) == (1, 3, 2)

    def test_single_transfer(self):
        got = witness_filling((1, 3, 2), MoveChain((1, 3, 2), (Move("M", 1, 2),)))
        assert weight(got) == (2, 2, 2)

    def test_two_swaps(self):
        chain = MoveChain((1, 3, 2), (Move("T", 1, 2), Move("T", 2, 3)))
        got = witness_filling((1, 3, 2), chain)
        assert weight(got) == (3, 2, 1)

    def test_invalid_chain_raises(self):
        with pytest.raises(MoveError):
            witness_filling((1, 3, 2), MoveChain((1, 3, 2), (Move("M", 1, 3),)))

    def test_wrong_start_raises(self):
        with pytest.raises(ValueError):
            witness_filling((1, 3, 2), MoveChain((3, 1, 2), ()))

    def test_round_trip_with_descend(self):
        for n in range(1, 4):
            for alpha in product(range(min(n, 3) + 1), repeat=n):
                for beta in closure(alpha):
                    ok, chain = leq_kappa(beta, alpha)
                    assert ok
                    f = witness_filling(alpha, chain)
                    assert weight(f) == beta
                    back = descend_to_alpha(f)
                    assert back.start == alpha and back.replay() == beta

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_round_trip_with_descend_at_n4_and_n5(self, data):
        n = data.draw(st.integers(4, 5))
        alpha = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        beta = data.draw(st.sampled_from(sorted(closure(alpha))))
        ok, chain = leq_kappa(beta, alpha)
        assert ok
        f = witness_filling(alpha, chain)
        assert weight(f) == beta
        back = descend_to_alpha(f)
        assert back.start == alpha and back.replay() == beta
