"""Tests for exact polynomial arithmetic and the operator algebra.

The divided difference has two oracles here: synthetic division of the
antisymmetric numerator f - s_i f by x_i - x_{i+1}, and the multiply-back
identity q * (x_i - x_{i+1}) == f - s_i f.  Neither shares code with the
implementation's closed-form geometric-sum expansion.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypoly import polynomial, verify
from keypoly.polynomial import (
    SparsePolynomial,
    demazure,
    divided_difference,
    exponent_vectors,
    key_polynomial,
)
from worked_examples import rand_poly


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


def reference_pi_runs(terms, low, base):
    """pi_i on packed terms one output term at a time, from a running
    exponent, with the zero coefficients still in: dropping them gives
    the terms ``_pi_packed`` must return, in the order it must keep."""
    step = low * base - low
    out = {}
    for e, c in terms.items():
        q = e // low
        x = q % base
        y = q // base % base
        if x >= y:
            for _ in range(x - y + 1):
                out[e] = out.get(e, 0) + c
                e += step
        else:
            c = -c
            e -= (y - x - 1) * step
            for _ in range(y - x - 1):
                out[e] = out.get(e, 0) + c
                e += step
    return out


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

    def test_non_int_variable_count_or_coefficient_rejected(self):
        for n in (2.0, True, "2"):
            with pytest.raises(TypeError, match="variable count"):
                SparsePolynomial(n, {})
        for coeff in (1.5, "x", True):
            with pytest.raises(TypeError, match="coefficients must be ints"):
                SparsePolynomial(2, {(1, 0): coeff})

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

    @pytest.mark.parametrize(
        "operation",
        [lambda f: f + 1, lambda f: f - 1, lambda f: f * 1.5, lambda f: 1.5 * f, lambda f: f * True, lambda f: True * f],
        ids=["f+1", "f-1", "f*1.5", "1.5*f", "f*True", "True*f"],
    )
    def test_operands_other_than_polynomials_and_ints_raise_type_error(self, operation):
        with pytest.raises(TypeError, match="unsupported operand"):
            operation(mono(1, 0))

    @pytest.mark.parametrize("index", [True, 1.0, "1"])
    @pytest.mark.parametrize(
        "call",
        [
            divided_difference,
            demazure,
            SparsePolynomial.swap_variables,
            SparsePolynomial.times_variable,
            lambda f, i: SparsePolynomial.variable(f.n, i),
        ],
        ids=["divided_difference", "demazure", "swap_variables", "times_variable", "variable"],
    )
    def test_non_int_indices_refused(self, call, index):
        with pytest.raises(ValueError, match="is not an int"):
            call(mono(1, 0), index)

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
        assert reference_divided_difference(f, 2) == expected
        assert divided_difference(f, 2) == expected

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            divided_difference(mono(1, 0), 0)
        with pytest.raises(ValueError):
            divided_difference(mono(1, 0), 2)

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


class TestPiPacked:
    @staticmethod
    def cancelled(terms, low, base):
        """Check ``_pi_packed`` against the reference, order included, and
        return how many of the reference's terms cancelled to 0."""
        runs = reference_pi_runs(terms, low, base)
        got = polynomial._pi_packed(dict(terms), low, base)
        assert list(got.items()) == [(e, c) for e, c in runs.items() if c], (terms, low, base)
        assert 0 not in got.values()
        return len(runs) - len(got)

    def test_matches_the_stepped_loop_on_random_terms(self):
        # the terms of one input all take the x >= y branch of pi_i, all
        # the x + 1 < y branch, or either ("mixed")
        rng = random.Random(23)
        cancelled = {"x >= y": 0, "x + 1 < y": 0, "mixed": 0}
        for _ in range(600):
            branch = rng.choice(list(cancelled))
            base, n = rng.randint(3, 5), rng.randint(2, 4)
            k = rng.randrange(n - 1)
            terms = {}
            for _ in range(rng.randint(1, 12)):
                digits = [rng.randrange(base) for _ in range(n)]
                if branch == "x >= y":
                    digits[k], digits[k + 1] = sorted(digits[k : k + 2], reverse=True)
                elif branch == "x + 1 < y":
                    digits[k] = rng.randrange(base - 2)
                    digits[k + 1] = rng.randrange(digits[k] + 2, base)
                terms[polynomial._pack(tuple(digits), base)] = rng.choice([-2, -1, 1, 2])
            cancelled[branch] += self.cancelled(terms, base**k, base)
        assert all(cancelled.values()), cancelled
        # base 1: the constant term, a run of one
        assert self.cancelled({0: 3}, 1, 1) == 0

    def test_a_run_keeps_the_input_exponent_object(self):
        # a chain of memoized steps then holds each exponent int once; a
        # copy per step would add about a fifth to the memo, which holds
        # 150 MB after the keys of composition_family(6, 4)
        e = polynomial._pack((3, 1, 2, 5), 7)
        assert e > 256  # not one of the ints the interpreter shares anyway
        out = polynomial._pi_packed({e: 1}, 1, 7)
        assert [f for f in out if f == e][0] is e

    def test_matches_the_stepped_loop_on_a_cold_chain(self):
        alpha = (0, 1, 2, 3, 4, 5)
        base = 6
        a, chain = alpha, []
        while (k := next((k for k in range(5) if a[k] < a[k + 1]), None)) is not None:
            chain.append(k)
            a = a[:k] + (a[k + 1], a[k]) + a[k + 2 :]
        terms = {polynomial._pack(a, base): 1}
        for k in reversed(chain):
            self.cancelled(terms, base**k, base)
            terms = polynomial._pi_packed(terms, base**k, base)
        assert len(chain) == 15
        assert polynomial._unpack_terms(terms, base, 6, {}) == key_polynomial(alpha).terms


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
        key_polynomial(tuple(range(7)))
        assert len(polynomial._KEY_CACHE) == 22
        # the memo holds packed terms only, never a polynomial handed out
        for terms in polynomial._KEY_CACHE.values():
            assert type(terms) is dict
            assert all(type(e) is int and type(c) is int for e, c in terms.items())
        below = (5, 4, 3, 2, 1, 0, 6)  # 6 steps above the partition, 429 terms
        key = key_polynomial(below)
        assert key == reference_key(below, "leftmost", {})
        again = key_polynomial(below)
        assert again == key and again is not key and again.terms is not key.terms
        with pytest.raises(TypeError):
            key.terms[below] = 2
        assert key.coefficient(below) == 1

    def test_no_chain_packs_a_key_again(self, monkeypatch):
        # theorem11 sweeps each class in decreasing lex order, so nearly
        # every key's chain steps onto a key asked for just before it.
        packed = []
        original = polynomial._pack_terms
        monkeypatch.setattr(polynomial, "_KEY_CACHE", {})
        monkeypatch.setattr(polynomial, "_pack_terms", lambda terms, base: packed.append(terms) or original(terms, base))
        assert verify.suite_theorem11(3, 3).passed
        assert packed == []

    def test_alpha_is_an_exponent_with_coefficient_one(self):
        for n in range(1, 5):
            for alpha in product(range(5), repeat=n):
                assert key_polynomial(alpha).coefficient(alpha) == 1
