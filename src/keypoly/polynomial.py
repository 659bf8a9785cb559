"""Exact sparse polynomial arithmetic with divided differences.

A polynomial in n variables is a finite map from exponent tuples (length n,
nonnegative entries) to nonzero integer coefficients.  Coefficients are
plain Python ints, so all arithmetic is exact and overflow-free.  Variable
indices are 1-based throughout the public API: ``divided_difference(f, 2)``
acts on the pair (x_2, x_3).  The divided difference is expanded in closed
form, one monomial at a time.

Polynomials are immutable: ``terms`` is a read-only view, so a polynomial
handed out by the key-polynomial memo cannot be changed by its caller.
Arithmetic on valid polynomials builds its results without revalidating
every term.

The module also provides the key polynomial of a composition, computed by
the standard recursion: a weakly decreasing alpha gives the monomial
x^alpha, and otherwise the operator ``pi_i = partial_i . (x_i *)`` is
applied at an ascent of alpha.

>>> key_polynomial((0, 1)) == SparsePolynomial(2, {(1, 0): 1, (0, 1): 1})
True
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import MappingProxyType

__all__ = [
    "SparsePolynomial",
    "divided_difference",
    "demazure",
    "key_polynomial",
    "exponent_vectors",
]


class SparsePolynomial:
    """Immutable sparse polynomial over the integers.

    ``terms`` never stores a zero coefficient and every key has length
    ``n``.  All operations return new polynomials.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if n < 0:
            raise ValueError(f"variable count must be nonnegative, got {n}")
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} has length {len(exp)}, expected {n}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if coeff != 0:
                    clean[exp] = coeff
        self._terms = clean

    @classmethod
    def _unchecked(cls, n: int, terms: dict[tuple[int, ...], int]) -> SparsePolynomial:
        """Wrap a term dict that already satisfies the invariants (keys of
        length n, nonnegative exponents, no zero coefficient) and that no
        one else holds.  For arithmetic on valid polynomials only."""
        obj = cls.__new__(cls)
        obj.n = n
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls, n: int) -> SparsePolynomial:
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> SparsePolynomial:
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff: int = 1) -> SparsePolynomial:
        exp = tuple(exponent)
        return cls(len(exp), {exp: coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> SparsePolynomial:
        """The polynomial x_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return cls(n, {tuple(exp): 1})

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """A read-only view of the term map."""
        return MappingProxyType(self._terms)

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self._terms.get(tuple(exponent), 0)

    def exponents(self) -> set[tuple[int, ...]]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other: SparsePolynomial) -> SparsePolynomial:
        self._check_same_vars(other)
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            total = out.get(exp, 0) + coeff
            if total:
                out[exp] = total
            else:
                out.pop(exp, None)
        return SparsePolynomial._unchecked(self.n, out)

    def __neg__(self) -> SparsePolynomial:
        return SparsePolynomial._unchecked(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: SparsePolynomial) -> SparsePolynomial:
        return self + (-other)

    def __mul__(self, other: SparsePolynomial | int) -> SparsePolynomial:
        if isinstance(other, int):
            scaled = {e: c * other for e, c in self._terms.items()} if other else {}
            return SparsePolynomial._unchecked(self.n, scaled)
        self._check_same_vars(other)
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                total = out.get(exp, 0) + ca * cb
                if total:
                    out[exp] = total
                else:
                    out.pop(exp, None)
        return SparsePolynomial._unchecked(self.n, out)

    __rmul__ = __mul__

    def swap_variables(self, i: int) -> SparsePolynomial:
        """Exchange x_i and x_{i+1} in every term (the action of s_i)."""
        self._check_operator_index(i)
        k = i - 1
        out = {}
        for exp, coeff in self._terms.items():
            swapped = exp[:k] + (exp[k + 1], exp[k]) + exp[k + 2:]
            out[swapped] = coeff
        return SparsePolynomial._unchecked(self.n, out)

    def times_variable(self, i: int) -> SparsePolynomial:
        """Multiply by x_i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        k = i - 1
        out = {exp[:k] + (exp[k] + 1,) + exp[k + 1:]: c for exp, c in self._terms.items()}
        return SparsePolynomial._unchecked(self.n, out)

    def canonical_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms sorted by lexicographically decreasing exponent vector."""
        return sorted(self._terms.items(), key=lambda item: item[0], reverse=True)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"exp": list(exp), "coeff": coeff} for exp, coeff in self.canonical_terms()],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> SparsePolynomial:
        return cls(data["n"], {tuple(t["exp"]): t["coeff"] for t in data["terms"]})

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.n}, {dict(self.canonical_terms())!r})"

    def _check_same_vars(self, other: SparsePolynomial) -> None:
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")

    def _check_operator_index(self, i: int) -> None:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"operator index {i} out of range 1..{self.n - 1}")


def divided_difference(f: SparsePolynomial, i: int) -> SparsePolynomial:
    """(f - s_i f) / (x_i - x_{i+1}), expanded one monomial at a time.

    With x = a_i and y = a_{i+1}, the monomial x^a maps to the geometric
    sum x_i^(x-1-t) x_{i+1}^(y+t) over t = 0 .. x-y-1 when x > y, to 0 when
    x == y, and to minus the mirrored sum when x < y.  Terms of different
    monomials are summed and zero coefficients dropped.
    """
    f._check_operator_index(i)
    k = i - 1  # 0-based positions k and i hold the exponents of x_i, x_{i+1}
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for exp, coeff in f._terms.items():
        x = exp[k]
        y = exp[i]
        if x == y:
            continue
        if x < y:
            x, y = y, x
            coeff = -coeff
        head = exp[:k]
        tail = exp[i + 1:]
        for t in range(x - y):
            e = head + (x - 1 - t, y + t) + tail
            out[e] = get(e, 0) + coeff
    return SparsePolynomial._unchecked(f.n, {e: c for e, c in out.items() if c})


def demazure(f: SparsePolynomial, i: int) -> SparsePolynomial:
    """The operator pi_i f = divided_difference(x_i * f, i)."""
    f._check_operator_index(i)
    return divided_difference(f.times_variable(i), i)


_KEY_CACHE: dict[tuple[tuple[int, ...], str], SparsePolynomial] = {}


def key_polynomial(alpha: Sequence[int], *, pivot: str = "leftmost") -> SparsePolynomial:
    """The key polynomial of the composition alpha.

    A weakly decreasing alpha yields the single monomial x^alpha; otherwise
    the recursion applies pi_i across the chosen ascent (alpha_i <
    alpha_{i+1}).  The result is independent of which ascent is chosen;
    ``pivot`` ("leftmost" or "rightmost") only fixes the recursion path so
    memoized results are reproducible.
    """
    a = tuple(alpha)
    if any(not isinstance(p, int) or p < 0 for p in a):
        raise ValueError(f"composition parts must be nonnegative integers, got {a}")
    if pivot not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown pivot rule {pivot!r}")
    return _key_recursive(a, pivot)


def _key_recursive(a: tuple[int, ...], pivot: str) -> SparsePolynomial:
    cached = _KEY_CACHE.get((a, pivot))
    if cached is not None:
        return cached
    ascents = [k for k in range(len(a) - 1) if a[k] < a[k + 1]]
    if not ascents:
        result = SparsePolynomial.monomial(a)
    else:
        k = ascents[0] if pivot == "leftmost" else ascents[-1]
        swapped = a[:k] + (a[k + 1], a[k]) + a[k + 2:]
        result = demazure(_key_recursive(swapped, pivot), k + 1)
    _KEY_CACHE[(a, pivot)] = result
    return result


def exponent_vectors(f: SparsePolynomial) -> set[tuple[int, ...]]:
    """The set of exponent vectors of f."""
    return f.exponents()
