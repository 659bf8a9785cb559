"""Exact convex-hull membership and lattice point enumeration.

A polytope is given as the convex hull of finitely many integer generator
points (a lattice V-representation).

Lattice points come LP-free whenever the support values of the
generators prove them, as for every Newton polytope of a key polynomial,
a generalized permutahedron (Postnikov 2009) that is saturated (Fink,
Meszaros and St. Dizier 2018).  The support values h(S) = max over
generators g of sum_{i in S} g_i, one per subset S of the coordinates,
cut out the H-polytope

    H(h):  sum_{i in S} x_i <= h(S)  for every S,   sum_i x_i = h([n]).

``_lattice_points`` enumerates the lattice points of H(h) once,
coordinate by coordinate, each coordinate over the interval its prefix
leaves open, and answers from them in this order.  Every generator
meets the inequalities.

- The sandwich.  When the generators G share a coordinate sum, G lies in
  the lattice points of conv G, which lie in those of H(h), whether or
  not h is submodular.  So when H(h) holds exactly the points G, the
  hull is saturated with lattice points G.
- The lift, when the sandwich misses and G has two or more coordinate
  sums.  With d = h([n]), the largest sum, x -> (x, d - sum(x)) is an
  affine lattice bijection from Z^n onto the integer points of sum d in
  Z^{n+1}, and it maps conv G onto conv G' for the lifted generators G'.
  G' shares the sum d, so the lattice points of conv G are those of
  conv G', found by the steps here in n + 1 coordinates, with the last
  coordinate dropped.  H(h') of G' projects into the coordinate box of
  G, so no more candidates reach the LP than that box holds.
- The greedy certificate: each of the n! greedy vertices of h (Edmonds)
  is a generator.  Greedy vertices inside the hull make h submodular,
  and a submodular h has exactly the greedy vertices as the vertices of
  H(h), so the hull is H(h).
- Otherwise the LP below settles each candidate, each point of H(h):
  H(h) is convex and holds G, so it holds every lattice point of conv G.

``lattice_points`` and ``newton_lattice_points`` both answer through
this routine; the second builds the hull only for the LP, and which path
runs depends only on the generators.

``contains`` and ``polytope_subset`` (hence the ``rado`` suite) answer
from LP certificates, never from support values: for a permutohedron h(S)
is the sum of the |S| largest parts, so its inequalities are dominance
itself, and ``rado`` compares inclusion with dominance.  In
``polytope_subset(p, q)``, when the generator set of q is closed under
permuting coordinates, so is q, and a point lies in q iff its ascending
rearrangement does, so one LP per orbit of p's generators suffices.
Each hull finds out once whether it is closed and, if it is, lists its
orbits then, so a closed p, such as a permutohedron, is not sorted again
per call; only a p that is not closed is sorted and deduplicated on each
call.

For the LP, a rational point p is scaled once to integer numerators over
one common denominator den, and its membership is the feasibility of the
integer system

    lambda >= 0,  sum lambda_s = den,  sum lambda_s * s = den * p,

decided by a fraction-free dual simplex: every tableau entry is a Python
int over one shared denominator, the previous pivot (Bareiss), so with
exact arithmetic every answer is reproducible bit for bit.

Every solve starts from the hull's crash basis, built once from the
generators alone (``_crash_basis``) by pivoting generator columns into
the all-artificial tableau of the rows (1, s).  The rows it cannot pivot
are zero on every generator column, so each is an equation of the hull's
affine span, and a point that breaks one is refused before any pivot.
A point on the span is decided by a dual simplex (Lemke 1954) with no
objective: the solve copies the pivoted rows, adds the point's
right-hand side, and pivots by Bland's smallest-index rule, which rules
out cycling, until the right-hand side is repaired or a row proves it
cannot be.  A point the crash basis already fits takes no pivot.  No
solve changes the hull, so an answer does not depend on which questions
came before it.

Every LP answer carries a certificate that is checked before it is
returned.  A "yes" is a nonnegative integer combination of the
generators that sums to the point; a "no" is an integer Farkas vector,
an inequality that every generator satisfies and the point violates.
The cheap answers in ``contains`` (a coordinate bound that the point
breaks, or the point being a generator) are such certificates already.
A certificate that fails its check raises ``CertificateError``, which
``python -O`` does not strip.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Collection, Iterable, Sequence, Set
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, permutations
from operator import add, itemgetter, mul, sub

from .polynomial import SparsePolynomial

__all__ = [
    "VPolytope",
    "CertificateError",
    "newton_polytope",
    "contains",
    "lattice_points",
    "newton_lattice_points",
    "snp_check",
    "polytope_subset",
]


class CertificateError(ArithmeticError):
    """An exact membership answer failed the check of its own certificate."""


# A crash basis (columns, rows, equations, d); see ``_crash_basis``.
_Crash = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], int]


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of a nonempty set of integer points in Z^n."""

    n: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.n) is not int:
            raise TypeError(f"dimension must be an int, got {self.n!r}")
        if type(self.generators) is not tuple or not all(type(g) is tuple for g in self.generators):
            raise TypeError("generators must be a tuple of tuples")
        if not self.generators:
            raise ValueError("a polytope needs at least one generator")
        types = set(map(type, chain.from_iterable(self.generators)))
        if not types <= {int}:
            raise TypeError(f"generator entries must be ints, got {types - {int}}")
        for g in self.generators:
            if len(g) != self.n:
                raise ValueError(f"generator {g} has length {len(g)}, expected {self.n}")

    @classmethod
    def from_points(cls, n: int, points: Iterable[Sequence[int]]) -> VPolytope:
        return cls(n, tuple(sorted({tuple(p) for p in points})))

    @cached_property
    def _box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-coordinate minima and maxima of the generators."""
        columns = list(zip(*self.generators))
        return tuple(map(min, columns)), tuple(map(max, columns))

    @cached_property
    def _generator_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.generators)

    @cached_property
    def _crash(self) -> _Crash:
        """The basis every LP solve on this hull starts from; see
        ``_crash_basis``."""
        return _crash_basis(self.generators)

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        """The ascending rearrangement of each orbit of the generators
        under permuting coordinates, in the order the generators first
        reach it, when the generator set is closed under swapping any two
        adjacent coordinates, hence under every permutation of them; ()
        otherwise.  Computed once per hull, so that ``polytope_subset``
        sorts a closed hull's generators once, not on every call."""
        gens = self._generator_set
        if all(g[:i] + (g[i + 1], g[i]) + g[i + 2 :] in gens for g in gens for i in range(self.n - 1)):
            return tuple(dict.fromkeys(tuple(sorted(g)) for g in self.generators))
        return ()


def _support_values(points: Collection[tuple[int, ...]]) -> tuple[int, ...]:
    """h(S) = max over points g of sum_{i in S} g_i for every bitmask S
    (bit i for coordinate i + 1), of a nonempty set of points."""
    # sums[S] lists sum_{i in S} g_i for every point g.
    sums = [[0] * len(points)]
    for column in zip(*points):
        sums += [list(map(add, s, column)) for s in sums]
    return tuple(map(max, sums))


@cache
def _greedy_chains(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For every ordering of the n coordinates, the prefix bitmasks up to
    and just before each coordinate i, so that coordinate i of that
    ordering's greedy vertex is h(upto[i]) - h(before[i]).
    """
    chains = []
    for order in permutations(range(n)):
        before = [0] * n
        prefix = 0
        for i in order:
            before[i] = prefix
            prefix |= 1 << i
        chains.append((tuple(b | 1 << i for i, b in enumerate(before)), tuple(before)))
    return tuple(chains)


def _lattice_points(
    n: int, generators: Set[tuple[int, ...]], hull: VPolytope | SparsePolynomial
) -> set[tuple[int, ...]]:
    """The lattice points of the hull of the nonempty point set
    generators, from the lattice points of H(h) for the generators'
    support values h, the one source of candidates: by the sandwich, by
    the lift onto one coordinate sum, by the greedy certificate, or else
    by ``contains`` on each point of H(h) (see the module docstring).
    hull is that hull, or the polynomial whose Newton polytope it is,
    which is built only for ``contains``.  A lifted set answers through
    ``lattice_points`` of its own hull, so an LP on it runs on that hull
    and its one crash basis.  When the sandwich holds on generators that
    are not lifted, the answer is generators itself, so a caller that
    compares it with its own exponent tuples matches them by identity
    rather than by value.

    The greedy certificate makes h submodular, the hypothesis of
    Edmonds' theorem: the greedy vertex v of an ordering that starts with
    S, then i, then j lies in the hull, so h(S+j) >= v(S+j) = h(S) +
    h(S+i+j) - h(S+i).
    """
    h = _support_values(generators)
    points = _support_lattice_points(n, h)
    if points == generators:
        return generators
    if len(set(map(sum, generators))) > 1:
        d = h[-1]
        lifted = VPolytope.from_points(n + 1, {(*g, d - sum(g)) for g in generators})
        return set(map(itemgetter(slice(n)), lattice_points(lifted)))
    get = h.__getitem__
    if all(tuple(map(sub, map(get, upto), map(get, before))) in generators for upto, before in _greedy_chains(n)):
        return points
    p = newton_polytope(hull) if isinstance(hull, SparsePolynomial) else hull
    return {c for c in points if contains(p, c)}


def newton_polytope(f: SparsePolynomial) -> VPolytope:
    """Convex hull of the exponent vectors of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton polytope")
    return VPolytope.from_points(f.n, f.exponents())


def contains(p: VPolytope, point: Sequence[numbers.Rational]) -> bool:
    """Exact test whether point is a convex combination of the generators.

    Coordinates must be rational (``int`` or ``fractions.Fraction``); a
    float is refused, because its binary expansion is not the decimal it
    was written as, and so is a bool, as every other layer refuses it.
    """
    if len(point) != p.n:
        raise ValueError(f"point length {len(point)} does not match dimension {p.n}")
    if all(type(x) is int for x in point):
        den = 1
        num = tuple(point)
    else:
        for x in point:
            if isinstance(x, bool) or not isinstance(x, numbers.Rational):
                raise TypeError(f"coordinate {x!r} is not rational; use int or fractions.Fraction")
        den = math.lcm(*(x.denominator for x in point))
        num = tuple(x.numerator * (den // x.denominator) for x in point)
    # Cheap exact rejection: the hull lies inside the coordinate box.  A
    # point off the hull's affine span, such as off the generators' common
    # coordinate sum, is refused by a span equation of the crash basis.
    mins, maxs = p._box
    for k in range(p.n):
        if not mins[k] * den <= num[k] <= maxs[k] * den:
            return False
    if den == 1 and num in p._generator_set:
        return True
    return _convex_feasible(p, num, den)


def _convex_feasible(p: VPolytope, num: tuple[int, ...], den: int) -> bool:
    """Whether num/den is in the hull of p, by the dual simplex from the
    crash basis of p, with its certificate checked."""
    feasible, certificate, scale = _dual_restart(num, den, p._crash)
    if feasible:
        _check_combination(p.generators, num, den, certificate, scale)
    else:
        _check_separation(p.generators, num, den, certificate)
    return feasible


def _crash_basis(generators: Sequence[tuple[int, ...]]) -> _Crash:
    """The basis of the rows (1, g) that every solve starts from, as
    ``(columns, rows, equations, d)``.

    From the all-artificial tableau [A | I] of the generator columns
    (1, g), each generator column in turn enters at the first row whose
    artificial is still basic and where the column is nonzero, that row
    negated first if the entry is negative.  A column that enters is then
    zero off its row, and one that finds no row is zero on every row
    whose artificial is still basic; later pivots, on such rows, keep
    both so.  ``rows`` holds the pivoted rows of d * B^-1 [A | I] whole,
    generator entries then artificial ones, and ``columns`` the generator
    basic in each.  The other rows end zero on every generator column, so
    the artificial part y of each, in ``equations``, has y . (1, g) = 0
    for every generator g: an equation of the hull's affine span.
    """
    k = len(generators)
    m = len(generators[0]) + 1
    tableau = [[1] * k] + [list(column) for column in zip(*generators)]
    for r, row in enumerate(tableau):
        row += [0] * m
        row[k + r] = 1
    basis = [None] * m  # None while the row's artificial is basic
    d = 1
    for j in range(k):
        leave = next((r for r, row in enumerate(tableau) if basis[r] is None and row[j]), None)
        if leave is None:
            continue
        if tableau[leave][j] < 0:
            tableau[leave] = [-x for x in tableau[leave]]
        d = _pivot(tableau, leave, j, d)
        basis[leave] = j
    columns, rows = zip(*((j, tuple(row)) for j, row in zip(basis, tableau) if j is not None))
    equations = tuple(tuple(row[k:]) for j, row in zip(basis, tableau) if j is None)
    return columns, rows, equations, d


def _dual_restart(num: tuple[int, ...], den: int, start: _Crash) -> tuple[bool, list[int], int]:
    """Fraction-free dual simplex with no objective, under Bland's rule, on
    the convex combination system, from the crash basis ``start``.

    Returns ``(True, lam, d)`` when the system is feasible, where lam are
    integer weights with ``sum lam == d * den`` and ``sum lam_s * s ==
    d * num``; or ``(False, y, d)``, where y is a Farkas vector over the
    rows (convexity row first) with ``y . (1, s) <= 0`` for every
    generator s and ``y . (den, num) > 0``.  The caller checks either.

    A span equation y that (den, num) breaks refuses the point at once,
    with y or -y.  Otherwise each step the basic variable of smallest
    index among those of negative value leaves, and the generator column
    of smallest index among the negative entries of its row enters; a row
    with none is >= 0 on every (1, g), yet negative on (den, num).  The
    leaving row is negated first, so that the pivot, the next d, is
    positive, and every basic column stays d times a unit vector.

    The objective of phase 1, the artificial sum, is left out because it
    never changes a choice.  Let y be the sum of the crash basis's
    artificial rows.  A generator column's reduced cost, -y . (1, g), is
    0, since those rows are 0 on it, and a basic artificial's, d - y_r,
    is 0, since its column is d times a unit vector.  A pivot whose
    entering cost is 0 only rescales the objective row, so every ratio of
    the dual ratio test stays 0 and ties go to the smallest index.  The
    artificial rows have no entering column, so they never leave, and
    pivots rescale them by p / d > 0, so their sign is fixed from the
    start: a nonzero one is the refusal above, and a zero one cannot
    change a pivot and is dropped.
    """
    columns, rows, equations, d = start
    rhs = (den, *num)
    for y in equations:
        value = sum(map(mul, y, rhs))
        if value:
            return False, [x if value > 0 else -x for x in y], d
    k = len(rows[0]) - len(rhs)
    tableau = [[*row, sum(map(mul, row[k:], rhs))] for row in rows]
    basis = list(columns)
    while negative := [r for r, row in enumerate(tableau) if row[-1] < 0]:
        leave = min(negative, key=basis.__getitem__)
        row = tableau[leave]
        enter = next((j for j in range(k) if row[j] < 0), None)
        if enter is None:
            return False, [-x for x in row[k:-1]], d
        tableau[leave] = [-x for x in row]
        d = _pivot(tableau, leave, enter, d)
        basis[leave] = enter
    lam = [0] * k
    for j, row in zip(basis, tableau):
        lam[j] = row[-1]
    return True, lam, d


def _pivot(tableau: list[list[int]], leave: int, enter: int, d: int) -> int:
    """One fraction-free (Bareiss) pivot on tableau[leave][enter] > 0, in
    place; returns the pivot, the next d."""
    pivot_row = tableau[leave]
    p = pivot_row[enter]
    for r, row in enumerate(tableau):
        if r != leave:
            f = row[enter]
            if f:
                tableau[r] = [(x * p - f * y) // d for x, y in zip(row, pivot_row)]
            else:
                tableau[r] = [x * p // d for x in row]
    return p


def _check_combination(
    generators: Sequence[tuple[int, ...]],
    num: tuple[int, ...],
    den: int,
    lam: Sequence[int],
    scale: int,
) -> None:
    """Raise CertificateError unless lam >= 0, sum lam == scale * den and
    sum lam_s * s == scale * num, which put num/den in the hull."""
    if scale <= 0 or len(lam) != len(generators) or any(w < 0 for w in lam):
        raise CertificateError("hull certificate has a negative weight or scale")
    if sum(lam) != scale * den:
        raise CertificateError("hull certificate weights do not sum to the scale")
    used = [(w, g) for w, g in zip(lam, generators) if w]
    for i, x in enumerate(num):
        if sum(w * g[i] for w, g in used) != scale * x:
            raise CertificateError(f"hull certificate misses coordinate {i + 1}")


def _check_separation(
    generators: Sequence[tuple[int, ...]],
    num: tuple[int, ...],
    den: int,
    y: Sequence[int],
) -> None:
    """Raise CertificateError unless y . (1, s) <= 0 for every generator s
    and y . (den, num) > 0, which put num/den outside the hull."""
    if len(y) != len(num) + 1:
        raise CertificateError("separation certificate has the wrong length")
    y0, normal = y[0], y[1:]
    for g in generators:
        if y0 + sum(a * b for a, b in zip(normal, g)) > 0:
            raise CertificateError(f"separation certificate cuts off generator {g}")
    if y0 * den + sum(a * b for a, b in zip(normal, num)) <= 0:
        raise CertificateError("separation certificate does not cut off the point")


def lattice_points(p: VPolytope) -> set[tuple[int, ...]]:
    """All integer points of the hull, by ``_lattice_points``; an LP
    runs on p itself, so its crash basis serves every candidate."""
    return _lattice_points(p.n, set(p.generators), p)


def _support_lattice_points(n: int, h: Sequence[int]) -> set[tuple[int, ...]]:
    """Integer points x with sum(x) = h(all) and, for every bitmask S,
    h(all) - h(all - S) <= x(S) <= h(S).

    Coordinates are fixed left to right, depth first.  Given the fixed
    prefix, the inequalities whose largest element is coordinate k
    confine x_k to one interval, read off the sums of the prefix over
    each of its subsets.  The sum fixes the last coordinate, and the
    inequalities whose largest element it is are, through the sum, those
    of the complementary sets, so every inequality holds once a point is
    complete.
    """
    total = h[-1]
    if n < 2:
        return {(total,)} if n else {()}
    full = (1 << n) - 1
    # bounds[k]: upper and lower bounds of x(S) for S = {k} + s, indexed by
    # the bitmask s of coordinates below k.
    bounds = [
        (h[1 << k : 2 << k], [total - h[full ^ s] for s in range(1 << k, 2 << k)])
        for k in range(n - 1)
    ]
    points = set()

    def extend(head: tuple[int, ...], sums: list[int]) -> None:
        # sums[s] is the sum of head over the coordinates in bitmask s.
        upper, lower = bounds[len(head)]
        lo = max(map(sub, lower, sums))
        hi = min(map(sub, upper, sums))
        if len(head) == n - 2:
            rest = total - sums[-1]
            points.update((*head, x, rest - x) for x in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            extend((*head, x), sums + [s + x for s in sums])

    extend((), [0])
    return points


def newton_lattice_points(f: SparsePolynomial) -> set[tuple[int, ...]]:
    """All integer points of the Newton polytope of a nonzero polynomial,
    by ``_lattice_points`` of its exponents, which builds the Newton
    polytope only for the LP; exponents with two or more coordinate sums
    answer through the hull of their lift instead."""
    exps = f.exponents()
    if not exps:
        raise ValueError("the zero polynomial has no Newton polytope")
    return _lattice_points(f.n, exps, f)


def snp_check(f: SparsePolynomial) -> bool:
    """Whether every lattice point of Newton(f) is an exponent vector of f."""
    return f.is_zero() or newton_lattice_points(f) == f.terms.keys()


def polytope_subset(p: VPolytope, q: VPolytope) -> bool:
    """Generator-wise inclusion: every generator of p lies in q.

    When the generator set of q is closed under permuting coordinates, q
    is too, so g lies in q iff its ascending rearrangement does, and one
    ``contains`` call per rearrangement class decides them all.  A closed
    p lists those classes once per hull, in ``p._orbits``; only a p that
    is not closed sorts and deduplicates its generators on each call.
    """
    if p.n != q.n:
        raise ValueError(f"dimensions differ: {p.n} vs {q.n}")
    points = p.generators
    if q._orbits:
        points = p._orbits or dict.fromkeys(tuple(sorted(g)) for g in points)
    return all(contains(q, g) for g in points)
