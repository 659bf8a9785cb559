"""Bruhat order on permutations and interval polytopes.

Permutations of [n] are stored in one-line notation as tuples.  The order
test uses the tableau criterion (Björner–Brenti, Thm 2.6.3): u <= v iff
for every prefix length i, sorted(u[:i]) <= sorted(v[:i]) entrywise.
Intervals are computed by filtering all of S_n, which is fine at the
small n this package targets (n <= 6 or so).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from itertools import permutations
from operator import le

from .polynomial import exponent_vectors, key_polynomial
from .polytope import VPolytope, polytope_equal

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
    t = tuple(w)
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
    """Whether Newton(key_polynomial(w)) equals the interval polytope from
    w up to the longest element, with w read as a composition."""
    t = check_permutation(w)
    n = len(t)
    newton = VPolytope.from_points(n, exponent_vectors(key_polynomial(t)))
    return polytope_equal(newton, interval_polytope(t, longest_element(n)))
