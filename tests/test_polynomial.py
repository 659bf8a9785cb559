"""Tests for exact polynomial arithmetic and the operator algebra.

The divided difference has three oracles here: synthetic division of the
antisymmetric numerator f - s_i f by x_i - x_{i+1}, a closed-form
per-monomial expansion built through the public arithmetic, and the
multiply-back identity q * (x_i - x_{i+1}) == f - s_i f.  None shares code
with the implementation's in-place geometric-sum expansion.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypoly import polynomial
from keypoly.polynomial import (
    SparsePolynomial,
    demazure,
    divided_difference,
    exponent_vectors,
    key_polynomial,
)


def dd_oracle(f: SparsePolynomial, i: int) -> SparsePolynomial:
    """Closed-form divided difference, one monomial at a time.

    For exponents p = e_i, q = e_{i+1}:
      p > q:  sum_{r=q}^{p-1} x_i^r x_{i+1}^{p+q-1-r}
      p == q: 0
      p < q:  minus the p > q sum with p, q exchanged
    """
    k = i - 1
    out = SparsePolynomial.zero(f.n)
    for exp, coeff in f.terms.items():
        p, q = exp[k], exp[k + 1]
        if p == q:
            continue
        sign = 1 if p > q else -1
        lo, hi = min(p, q), max(p, q)
        terms = {}
        for r in range(lo, hi):
            e = list(exp)
            e[k] = r
            e[k + 1] = p + q - 1 - r
            terms[tuple(e)] = sign * coeff
        out = out + SparsePolynomial(f.n, terms)
    return out


def reference_divided_difference(f: SparsePolynomial, i: int) -> SparsePolynomial:
    """(f - s_i f) / (x_i - x_{i+1}) by exact synthetic division.

    The numerator is treated as univariate in x_i with coefficients that
    are polynomials in the remaining variables; a nonzero remainder fails
    the test.
    """
    numerator = f - f.swap_variables(i)
    if numerator.is_zero():
        return SparsePolynomial.zero(f.n)
    k = i - 1
    by_degree = {}
    for exp, coeff in numerator.terms.items():
        rest = exp[:k] + (0,) + exp[k + 1:]
        by_degree.setdefault(exp[k], {})[rest] = coeff
    top = max(by_degree)
    out = {}

    def emit(coeffs, degree):
        for rest, c in coeffs.items():
            out[rest[:k] + (degree,) + rest[k + 1:]] = c

    # working top down, the running carry b satisfies b_{d-1} = c_d and
    # b_{r-1} = c_r + x_{i+1} * b_r
    carry = dict(by_degree[top])
    emit(carry, top - 1)
    for deg in range(top - 1, 0, -1):
        carry = _add_terms(by_degree.get(deg, {}), _bump(carry, k + 1))
        emit(carry, deg - 1)
    remainder = _add_terms(by_degree.get(0, {}), _bump(carry, k + 1))
    assert not remainder, "antisymmetric numerator must be exactly divisible"
    return SparsePolynomial(f.n, out)


def _add_terms(a, b):
    out = dict(a)
    for exp, coeff in b.items():
        total = out.get(exp, 0) + coeff
        if total:
            out[exp] = total
        else:
            out.pop(exp, None)
    return out


def _bump(terms, index):
    """Multiply a term dict by the variable at 0-based ``index``."""
    return {exp[:index] + (exp[index] + 1,) + exp[index + 1:]: c for exp, c in terms.items()}


def reference_key(alpha, pivot, memo):
    """The key polynomial by the pi_i recursion over the reference
    divided difference."""
    if alpha not in memo:
        ascents = [k for k in range(len(alpha) - 1) if alpha[k] < alpha[k + 1]]
        if not ascents:
            memo[alpha] = mono(*alpha)
        else:
            k = ascents[0] if pivot == "leftmost" else ascents[-1]
            swapped = alpha[:k] + (alpha[k + 1], alpha[k]) + alpha[k + 2:]
            below = reference_key(swapped, pivot, memo)
            memo[alpha] = reference_divided_difference(below.times_variable(k + 1), k + 1)
    return memo[alpha]


def rand_poly(rng: random.Random, n=4, max_terms=10, max_deg=5) -> SparsePolynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exp = tuple(rng.randint(0, max_deg) for _ in range(n))
            if sum(exp) <= max_deg:
                break
        coeff = rng.choice([c for c in range(-9, 10) if c])
        terms[exp] = coeff
    return SparsePolynomial(n, terms)


def mono(*exp, coeff=1):
    return SparsePolynomial.monomial(exp, coeff)


@st.composite
def polynomials(draw, min_n=2):
    """Polynomials in min_n..5 variables of total degree at most 8, with
    coefficients in -9..9 (a zero one is dropped)."""
    n = draw(st.integers(min_n, 5))
    terms = {}
    for _ in range(draw(st.integers(0, 10))):
        budget = 8
        exp = []
        for _ in range(n):
            exp.append(draw(st.integers(0, budget)))
            budget -= exp[-1]
        terms[tuple(draw(st.permutations(exp)))] = draw(st.integers(-9, 9))
    return SparsePolynomial(n, terms)


_ALGEBRA = settings(max_examples=150, derandomize=True, database=None, deadline=None)


class TestSparsePolynomial:
    def test_zero_coefficients_dropped(self):
        f = SparsePolynomial(2, {(1, 0): 0, (0, 1): 3})
        assert f.terms == {(0, 1): 3}

    def test_bad_exponent_length(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(1, 0, 0): 1})

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(-1, 0): 1})

    def test_non_integer_exponent_rejected(self):
        for exp in ((1.5, 0), (True, False), (1.0, 0)):
            with pytest.raises(TypeError):
                SparsePolynomial(2, {exp: 1})
        assert SparsePolynomial(2, {(1, 0): 1}).to_json_dict()["terms"] == [{"exp": [1, 0], "coeff": 1}]

    def test_terms_are_read_only(self):
        before = dict(key_polynomial((0, 1)).terms)
        with pytest.raises(TypeError):
            key_polynomial((0, 1)).terms[(5, 5)] = 1
        with pytest.raises(TypeError):
            key_polynomial((0, 1)).terms[(1, 0)] = 7
        assert dict(key_polynomial((0, 1)).terms) == before == {(1, 0): 1, (0, 1): 1}

    def test_arithmetic(self):
        x1 = SparsePolynomial.variable(2, 1)
        x2 = SparsePolynomial.variable(2, 2)
        assert (x1 + x2) - x1 == x2
        assert x1 * x2 == mono(1, 1)
        assert (x1 - x1).is_zero()
        assert 3 * x1 == SparsePolynomial(2, {(1, 0): 3})

    def test_swap_and_times_variable(self):
        f = mono(3, 1)
        assert f.swap_variables(1) == mono(1, 3)
        assert f.times_variable(2) == mono(3, 2)

    def test_json_round_trip_and_canonical_order(self):
        f = key_polynomial((1, 3, 2))
        data = f.to_json_dict()
        assert [t["exp"] for t in data["terms"]] == [
            [3, 2, 1],
            [3, 1, 2],
            [2, 3, 1],
            [2, 2, 2],
            [1, 3, 2],
        ]
        assert SparsePolynomial.from_json_dict(data) == f


class TestDividedDifference:
    def test_single_variable_pair(self):
        # (x1 - x2) / (x1 - x2) = 1
        assert divided_difference(mono(1, 0), 1) == SparsePolynomial.one(2)

    def test_symmetric_input_gives_zero(self):
        assert divided_difference(mono(1, 1), 1).is_zero()

    def test_three_variable_example(self):
        # oracle: expand x1^3 (x2^2 x3 - x3^2 x2) / (x2 - x3) = x1^3 x2 x3
        f = mono(3, 2, 1)
        expected = mono(3, 1, 1)
        assert dd_oracle(f, 2) == expected
        assert divided_difference(f, 2) == expected

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            divided_difference(mono(1, 0), 0)
        with pytest.raises(ValueError):
            divided_difference(mono(1, 0), 2)

    def test_matches_closed_form_oracle_on_random_input(self):
        rng = random.Random(101)
        for _ in range(50):
            f = rand_poly(rng)
            i = rng.randint(1, f.n - 1)
            assert divided_difference(f, i) == dd_oracle(f, i)

    def test_matches_synthetic_division(self):
        # n 2..5, degrees up to 10, negative coefficients, and inputs
        # symmetric in x_i, x_{i+1} (f + s_i f) whose divided difference
        # cancels to zero
        rng = random.Random(606)
        zeros = 0
        for _ in range(300):
            n = rng.randint(2, 5)
            f = rand_poly(rng, n=n, max_terms=12, max_deg=rng.randint(2, 10))
            i = rng.randint(1, n - 1)
            if rng.random() < 0.2:
                f = f + f.swap_variables(i)
            got = divided_difference(f, i)
            assert got == reference_divided_difference(f, i), (f, i)
            zeros += got.is_zero()
        assert zeros >= 30

    def test_multiply_back_identity(self):
        # q * (x_i - x_{i+1}) must reproduce the numerator exactly
        rng = random.Random(202)
        for _ in range(50):
            f = rand_poly(rng)
            i = rng.randint(1, f.n - 1)
            q = divided_difference(f, i)
            divisor = SparsePolynomial.variable(f.n, i) - SparsePolynomial.variable(f.n, i + 1)
            assert q * divisor == f - f.swap_variables(i)

    def test_integer_coefficients_always(self):
        rng = random.Random(303)
        for _ in range(30):
            f = rand_poly(rng)
            g = divided_difference(f, rng.randint(1, 3))
            assert all(isinstance(c, int) for c in g.terms.values())


class TestDemazure:
    def test_worked_first_step(self):
        f = mono(3, 2, 1)
        assert demazure(f, 2) == SparsePolynomial(3, {(3, 2, 1): 1, (3, 1, 2): 1})

    def test_fixes_constants(self):
        one = SparsePolynomial.one(2)
        assert demazure(one, 1) == one

    def test_idempotence_small_random(self):
        rng = random.Random(404)
        for _ in range(20):
            f = rand_poly(rng, n=3, max_terms=6, max_deg=4)
            i = rng.randint(1, 2)
            h = demazure(f, i)
            assert demazure(h, i) == h


class TestOperatorAlgebra:
    def test_braid_commutation_idempotence(self):
        rng = random.Random(505)
        for _ in range(100):
            f = rand_poly(rng)
            for i in (1, 2):
                lhs = demazure(demazure(demazure(f, i), i + 1), i)
                rhs = demazure(demazure(demazure(f, i + 1), i), i + 1)
                assert lhs == rhs
            assert demazure(demazure(f, 1), 3) == demazure(demazure(f, 3), 1)
            for i in (1, 2, 3):
                g = demazure(f, i)
                assert demazure(g, i) == g


class TestOperatorAlgebraProperties:
    @_ALGEBRA
    @given(polynomials(), st.data())
    def test_demazure_is_the_divided_difference_of_x_i_f(self, f, data):
        i = data.draw(st.integers(1, f.n - 1))
        assert demazure(f, i) == reference_divided_difference(f.times_variable(i), i)

    @_ALGEBRA
    @given(polynomials(), st.data())
    def test_demazure_is_idempotent(self, f, data):
        i = data.draw(st.integers(1, f.n - 1))
        g = demazure(f, i)
        assert demazure(g, i) == g

    @_ALGEBRA
    @given(polynomials(min_n=3), st.data())
    def test_braid_relation(self, f, data):
        i = data.draw(st.integers(1, f.n - 2))
        j = i + 1
        assert demazure(demazure(demazure(f, i), j), i) == demazure(demazure(demazure(f, j), i), j)

    @_ALGEBRA
    @given(polynomials(min_n=4), st.data())
    def test_distant_operators_commute(self, f, data):
        i, j = data.draw(st.sampled_from([(i, j) for i in range(1, f.n) for j in range(i + 2, f.n)]))
        assert demazure(demazure(f, i), j) == demazure(demazure(f, j), i)

    @_ALGEBRA
    @given(polynomials(), st.data())
    def test_divided_difference_squares_to_zero(self, f, data):
        i = data.draw(st.integers(1, f.n - 1))
        assert divided_difference(divided_difference(f, i), i).is_zero()


class TestKeyPolynomial:
    def test_partition_case_is_monomial(self):
        assert key_polynomial((3, 2, 1)) == mono(3, 2, 1)
        assert key_polynomial((0, 0)) == SparsePolynomial.one(2)

    def test_worked_expansion(self):
        expected = SparsePolynomial(
            3,
            {(3, 2, 1): 1, (3, 1, 2): 1, (2, 3, 1): 1, (2, 2, 2): 1, (1, 3, 2): 1},
        )
        assert key_polynomial((1, 3, 2)) == expected

    def test_two_variable_staircase(self):
        assert key_polynomial((0, 1)) == SparsePolynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_exponent_examples(self):
        assert exponent_vectors(key_polynomial((0, 1, 0))) == {(1, 0, 0), (0, 1, 0)}
        assert exponent_vectors(mono(3, 2, 1)) == {(3, 2, 1)}

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            key_polynomial((1, -1))

    def test_bool_parts_do_not_poison_the_memo(self):
        polynomial._KEY_CACHE.clear()
        with pytest.raises(ValueError):
            key_polynomial((True, False))
        key = key_polynomial((1, 0))
        assert all(type(x) is int for exp in key.terms for x in exp)
        assert json.dumps(key.to_json_dict()) == '{"n": 2, "terms": [{"exp": [1, 0], "coeff": 1}]}'

    def test_pivot_choice_is_irrelevant(self):
        # key_polynomial recurses at the leftmost ascent; the reference
        # here at the rightmost one.
        memo = {}
        for n in range(1, 5):
            for alpha in product(range(5), repeat=n):
                assert key_polynomial(alpha) == reference_key(alpha, "rightmost", memo), alpha

    def test_matches_synthetic_division_keys(self):
        memo = {}
        for n in range(1, 5):
            for alpha in product(range(5), repeat=n):
                assert key_polynomial(alpha) == reference_key(alpha, "leftmost", memo), alpha

    @pytest.mark.parametrize("pivot", ["leftmost", "rightmost"])
    def test_packing_edge_cases_match_reference(self, pivot):
        # no digits, base 1, and exponents on the top digit of their base
        polynomial._KEY_CACHE.clear()
        memo = {}
        for alpha in [(), (0,), (0, 0, 0), (0, 9), (9, 0, 9), (2, 10, 0, 10), (10, 2, 10, 0)]:
            assert key_polynomial(alpha) == reference_key(alpha, pivot, memo), alpha

    def test_intermediates_of_a_cold_key(self):
        polynomial._KEY_CACHE.clear()
        top = tuple(range(7))
        key_polynomial(top)
        handed_out = [a for a, v in polynomial._KEY_CACHE.items() if isinstance(v, SparsePolynomial)]
        assert len(polynomial._KEY_CACHE) == 22 and handed_out == [top]
        below = (5, 4, 3, 2, 1, 0, 6)  # 6 steps above the partition, 429 terms
        key = key_polynomial(below)
        assert key == reference_key(below, "leftmost", {})
        assert key_polynomial(below) is key
        with pytest.raises(TypeError):
            key.terms[below] = 2
        assert key.coefficient(below) == 1
        # a chain through a handed-out key packs that key again
        polynomial._KEY_CACHE.clear()
        key_polynomial(below)
        above = (4, 5, 3, 2, 1, 0, 6)
        assert key_polynomial(above) == reference_key(above, "leftmost", {})

    def test_alpha_is_an_exponent_with_coefficient_one(self):
        for n in range(1, 5):
            for alpha in product(range(5), repeat=n):
                assert key_polynomial(alpha).coefficient(alpha) == 1
