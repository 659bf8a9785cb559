"""Exact sparse polynomial arithmetic with divided differences.

A polynomial in n variables is a finite map from exponent tuples (length n,
nonnegative entries) to nonzero integer coefficients.  Coefficients are
plain Python ints, so all arithmetic is exact and overflow-free.  Variable
indices are 1-based throughout the public API: ``divided_difference(f, 2)``
acts on the pair (x_2, x_3).  The divided difference is expanded in closed
form, one monomial at a time.

Polynomials are immutable: ``terms`` is a read-only view.  Arithmetic on
valid polynomials builds its results without revalidating every term.

The module also provides the key polynomial of a composition, computed by
the standard recursion: a weakly decreasing alpha gives the monomial
x^alpha, and otherwise the operator ``pi_i = partial_i . (x_i *)`` is
applied at an ascent of alpha.  The pi_i chain runs on exponent vectors
packed into one int in base max(alpha) + 1: no exponent of any
intermediate exceeds max(alpha), so no digit carries, and one pi_i step
maps each packed monomial to an arithmetic run of packed monomials
without building x_i * f or any tuple.  Only the answer is unpacked.
``demazure`` runs the same step on a packed copy of its argument.

The key memo holds the packed terms of every composition on a chain, so
a longer chain stops at the first one computed before.  Each call
unpacks a new polynomial from it; the polynomials share their exponent
tuples through a second memo from packed exponent to tuple, so a sweep
over many compositions builds each exponent tuple once.

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
        if type(n) is not int:
            raise TypeError(f"variable count must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"variable count must be nonnegative, got {n}")
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} has length {len(exp)}, expected {n}")
                if any(type(e) is not int for e in exp) or type(coeff) is not int:
                    raise TypeError(f"exponent entries and coefficients must be ints, got {exp}: {coeff!r}")
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
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError(f"variable index {i!r} is not an int in 1..{n}")
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
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
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
        if type(other) is int:
            scaled = {e: c * other for e, c in self._terms.items()} if other else {}
            return SparsePolynomial._unchecked(self.n, scaled)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
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
        if type(i) is not int or not 1 <= i <= self.n:
            raise ValueError(f"variable index {i!r} is not an int in 1..{self.n}")
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
        """Inverse of ``to_json_dict``; raises ValueError on any other
        shape, such as an exponent given twice."""
        try:
            n, terms = data["n"], [(tuple(t["exp"]), t["coeff"]) for t in data["terms"]]
            by_exp = dict(terms)
            if len(by_exp) != len(terms):
                raise ValueError("duplicate exponent in polynomial terms")
            return cls(n, by_exp)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {type(exc).__name__} {exc}") from None

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.n}, {dict(self.canonical_terms())!r})"

    def _check_same_vars(self, other: SparsePolynomial) -> None:
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")

    def _check_operator_index(self, i: int) -> None:
        if type(i) is not int or not 1 <= i <= self.n - 1:
            raise ValueError(f"operator index {i!r} is not an int in 1..{self.n - 1}")


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
    """The operator pi_i f = divided_difference(x_i * f, i), computed on
    packed exponents (see ``_pi_packed``) without building x_i * f."""
    f._check_operator_index(i)
    base = max(max(exp) for exp in f._terms) + 1 if f._terms else 1
    packed = _pi_packed(_pack_terms(f._terms, base), base ** (i - 1), base)
    return SparsePolynomial._unchecked(f.n, _unpack_terms(packed, base, f.n, {}))


# An exponent vector e of length n with entries below ``base`` packs into
# the int sum(e[k] * base**k); x_i is the digit at place base**(i-1).

def _pack(exp: tuple[int, ...], base: int) -> int:
    packed = 0
    for x in reversed(exp):
        packed = packed * base + x
    return packed


def _pack_terms(terms: Mapping[tuple[int, ...], int], base: int) -> dict[int, int]:
    return {_pack(exp, base): c for exp, c in terms.items()}


def _unpack_terms(
    terms: dict[int, int], base: int, n: int, known: dict[int, tuple[int, ...]]
) -> dict[tuple[int, ...], int]:
    """The terms with tuple exponents, in the same order.  ``known`` maps
    packed exponents to tuples and gains every exponent missing from it;
    such an exponent is unpacked as its low half of digits plus its high
    half, each half decoded once per call and then looked up."""
    half = n // 2
    split = base**half
    lows: dict[int, tuple[int, ...]] = {}
    highs: dict[int, tuple[int, ...]] = {}
    for packed in terms:
        if packed not in known:
            high, low = divmod(packed, split)
            head = lows.get(low)
            if head is None:
                head = lows[low] = _digits(low, base, half)
            tail = highs.get(high)
            if tail is None:
                tail = highs[high] = _digits(high, base, n - half)
            known[packed] = head + tail
    return dict(zip(map(known.__getitem__, terms), terms.values()))


def _digits(packed: int, base: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        packed, x = divmod(packed, base)
        digits.append(x)
    return tuple(digits)


def _pi_packed(terms: dict[int, int], low: int, base: int) -> dict[int, int]:
    """pi_i on packed terms, where ``low`` = base**(i-1) is the place of x_i.

    With x = a_i and y = a_{i+1}, pi_i x^a is the sum of x_i^(x-t)
    x_{i+1}^(y+t) over t = 0 .. x-y when x >= y, 0 when x + 1 == y, and
    minus the sum of x_i^(x+s) x_{i+1}^(y-s) over s = 1 .. y-x-1 when
    x + 1 < y.  Every new digit lies between x and y, so no digit carries
    and the packing stays valid; one unit moved from x_i to x_{i+1} adds
    ``step`` to the packed exponent, so each monomial's terms are one
    ``range`` of packed exponents with that step.  When x >= y the run
    starts at the monomial's own exponent, which is stored as the input's
    key object, so a chain of memoized steps shares those ints.  Output
    terms come in the order the divided difference of x_i * f emits them;
    the terms that cancel to 0 are deleted in place, which keeps that
    order.
    """
    # base 1 holds only the constant term (x = y = 0, a one-term run),
    # for which any nonzero step will do
    step = low * base - low or 1
    out: dict[int, int] = {}
    get = out.get
    for e, c in terms.items():
        q = e // low
        x = q % base
        y = q // base % base
        if x >= y:
            out[e] = get(e, 0) + c
            for f in range(e + step, e + (x - y + 1) * step, step):
                out[f] = get(f, 0) + c
        else:
            c = -c
            for f in range(e - (y - x - 1) * step, e, step):
                out[f] = get(f, 0) + c
    for e in [e for e, c in out.items() if not c]:
        del out[e]
    return out


# alpha -> the packed terms (base max(alpha) + 1) of the key of alpha.
_KEY_CACHE: dict[tuple[int, ...], dict[int, int]] = {}

# (base, n) -> packed exponent -> its tuple, for every exponent of a key
# handed out so far; those keys share these tuples.
_KEY_EXPONENTS: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}


def key_polynomial(alpha: Sequence[int]) -> SparsePolynomial:
    """The key polynomial of the composition alpha.

    A weakly decreasing alpha yields the single monomial x^alpha; otherwise
    the recursion applies pi_i across the leftmost ascent (alpha_i <
    alpha_{i+1}).  The result is independent of which ascent is chosen;
    fixing one only makes the recursion path, and so the memo, reproducible.
    """
    a = tuple(alpha)
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 0 for p in a):
        raise ValueError(f"composition parts must be nonnegative integers, got {a}")
    n = len(a)
    base = max(a, default=0) + 1
    known = _KEY_EXPONENTS.setdefault((base, n), {})
    return SparsePolynomial._unchecked(n, _unpack_terms(_packed_key(a, base), base, n, known))


def _packed_key(a: tuple[int, ...], base: int) -> dict[int, int]:
    """The packed terms of key(a).  Walks down the chain of leftmost
    ascents to a memo entry or a weakly decreasing composition, then
    applies pi_i on the way back up, memoizing each step.  Every
    composition on the chain rearranges a, so they all share one
    base."""
    chain = []
    while True:
        terms = _KEY_CACHE.get(a)
        if terms is not None:
            break
        k = next((k for k in range(len(a) - 1) if a[k] < a[k + 1]), None)
        if k is None:
            terms = _KEY_CACHE[a] = {_pack(a, base): 1}
            break
        chain.append((a, k))
        a = a[:k] + (a[k + 1], a[k]) + a[k + 2:]
    for above, k in reversed(chain):
        terms = _KEY_CACHE[above] = _pi_packed(terms, base**k, base)
    return terms


def exponent_vectors(f: SparsePolynomial) -> set[tuple[int, ...]]:
    """The set of exponent vectors of f."""
    return f.exponents()
