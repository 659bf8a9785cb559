"""Bruhat order on permutations and interval polytopes.

Permutations of [n] are stored in one-line notation as tuples.  The order
test uses the tableau criterion (Björner–Brenti, Thm 2.6.3): u <= v iff
for every prefix length i, sorted(u[:i]) <= sorted(v[:i]) entrywise.
Intervals are computed by filtering all of S_n, which is fine at the
small n this package targets (n <= 6 or so).  ``verify_qww0`` reads
the interval polytope through its lattice points: one hull per w.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from itertools import permutations
from operator import le

from .polynomial import exponent_vectors, key_polynomial
from .polytope import VPolytope, lattice_points

__all__ = [
    "check_permutation",
    "inversions",
    "longest_element",
    "bruhat_leq",
    "bruhat_interval",
    "interval_polytope",
    "verify_qww0",
]


def check_permutation(w: Sequence[int]) -> tuple[int, ...]:
    """w as a tuple; raises ValueError unless it is a permutation of
    1..len(w) with int entries (True and 1.0 compare equal to 1)."""
    t = tuple(w)
    if any(type(x) is not int for x in t):
        raise ValueError(f"permutation entries must be ints, got {t}")
    if sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t}")
    return t


def inversions(w: Sequence[int]) -> int:
    t = check_permutation(w)
    return sum(1 for a in range(len(t)) for b in range(a + 1, len(t)) if t[a] > t[b])


def longest_element(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def bruhat_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Tableau comparison of two permutations of the same [n]."""
    a = check_permutation(u)
    b = check_permutation(v)
    if len(a) != len(b):
        raise ValueError(f"sizes differ: {len(a)} vs {len(b)}")
    return all(map(le, _tableau(a), _tableau(b)))


def _tableau(w: tuple[int, ...]) -> tuple[int, ...]:
    """sorted(w[:1]), ..., sorted(w[:n-1]) concatenated: by the tableau
    criterion, u <= v iff their tableaux compare entrywise."""
    return tuple(x for i in range(1, len(w)) for x in sorted(w[:i]))


@cache
def _tableaux(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each w in S_n mapped to its ``_tableau``."""
    return {w: _tableau(w) for w in permutations(range(1, n + 1))}


def bruhat_interval(u: Sequence[int], v: Sequence[int]) -> set[tuple[int, ...]]:
    """All w with u <= w <= v, by filtering S_n."""
    a = check_permutation(u)
    b = check_permutation(v)
    if not bruhat_leq(a, b):
        raise ValueError(f"{a} is not below {b} in Bruhat order")
    tableaux = _tableaux(len(a))
    low, high = tableaux[a], tableaux[b]
    return {w for w, mid in tableaux.items() if all(map(le, low, mid)) and all(map(le, mid, high))}


def interval_polytope(u: Sequence[int], v: Sequence[int]) -> VPolytope:
    """Convex hull of the one-line notations in the interval [u, v]."""
    interval = bruhat_interval(u, v)
    return VPolytope.from_points(len(tuple(u)), interval)


def verify_qww0(w: Sequence[int]) -> bool:
    """Whether the lattice points LP(Q) of Q = conv [w, w0] are the
    exponents E of key_polynomial(w), with w read as a composition.

    That is Newton(key(w)) = Q, exactly.  Permutations are vertices of the
    permutohedron, so [w, w0] is the vertex set of Q.  If LP(Q) = E, then
    [w, w0] lies in E and E in Q, so conv E = Q.  Conversely, keys are
    saturated (Fink, Meszaros and St. Dizier 2018): conv E = Q gives
    E = LP(conv E) = LP(Q).
    """
    t = check_permutation(w)
    interval = interval_polytope(t, longest_element(len(t)))
    return lattice_points(interval) == exponent_vectors(key_polynomial(t))
