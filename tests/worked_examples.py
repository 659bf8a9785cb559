"""Hand-checked worked examples, and the input families, shared by the
tests.

All coordinates use the package convention: rows 1..n top to bottom,
columns 1..n left to right, fillings written column by column as
{row: value} maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from keypoly.diagram import Diagram, skyline
from keypoly.filling import Filling
from keypoly.polynomial import SparsePolynomial

__all__ = [
    "GRID4_DIAGRAM",
    "GRID5_DIAGRAM",
    "GRID5_SCRAMBLED",
    "GRID5_SORTED",
    "GRID5_OPTIMIZED",
    "DescentExample",
    "PROMOTE_EXAMPLE",
    "EXCHANGE_EXAMPLE",
    "full_family",
    "rand_poly",
]


def full_family(n_max: int, part_max: int) -> list[tuple[int, ...]]:
    """Every vector of length 1..n_max with parts in 0..part_max, by
    length, then lexicographically: the theorem11 and rado sweep."""
    return [alpha for n in range(1, n_max + 1) for alpha in product(range(part_max + 1), repeat=n)]


def rand_poly(rng, n=4, max_terms=10, max_deg=5) -> SparsePolynomial:
    """A polynomial in n variables with up to max_terms terms of total
    degree at most max_deg and nonzero coefficients in -9..9."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exp = tuple(rng.randint(0, max_deg) for _ in range(n))
            if sum(exp) <= max_deg:
                break
        terms[exp] = rng.choice([c for c in range(-9, 10) if c])
    return SparsePolynomial(n, terms)


def _filling(d: Diagram, by_column: list[dict[int, int]]) -> Filling:
    cols = []
    for rows, col in zip(d.columns, by_column):
        if set(rows) != set(col):
            raise ValueError(f"entry rows {sorted(col)} do not match boxes {rows}")
        cols.append(tuple(col[r] for r in rows))
    return Filling(d, tuple(cols))


# A 4x4 diagram that is not left-justified; used to exercise the
# weight-set identity between all fillings and column-sorted fillings
# on an arbitrary diagram.
GRID4_DIAGRAM = Diagram.make(4, [[1], [], [1, 2, 3], [2, 3]])

# A 5x5 diagram, again not a skyline, with three fillings of it: one
# with scrambled columns, its column-sorted form, and its optimized
# form.  All three share the weight (4, 5, 2, 3, 0).
GRID5_DIAGRAM = Diagram.make(5, [[3, 4, 5], [2, 3, 4], [2, 4, 5], [4, 5], [1, 3, 4]])

GRID5_SCRAMBLED = _filling(
    GRID5_DIAGRAM,
    [
        {3: 2, 4: 1, 5: 4},
        {2: 1, 3: 3, 4: 2},
        {2: 1, 4: 2, 5: 4},
        {4: 4, 5: 2},
        {1: 1, 3: 3, 4: 2},
    ],
)

GRID5_SORTED = _filling(
    GRID5_DIAGRAM,
    [
        {3: 1, 4: 2, 5: 4},
        {2: 1, 3: 2, 4: 3},
        {2: 1, 4: 2, 5: 4},
        {4: 2, 5: 4},
        {1: 1, 3: 2, 4: 3},
    ],
)

GRID5_OPTIMIZED = _filling(
    GRID5_DIAGRAM,
    [
        {3: 2, 4: 4, 5: 1},
        {2: 2, 3: 3, 4: 1},
        {2: 2, 4: 4, 5: 1},
        {4: 4, 5: 2},
        {1: 1, 3: 3, 4: 2},
    ],
)


@dataclass(frozen=True)
class DescentExample:
    """A skyline filling, its optimized form, the stray entry (value i in
    row j, column h) the descent step acts on, and the worked result of
    the construction named by ``construction``."""

    alpha: tuple[int, ...]
    start: Filling
    optimized: Filling
    i: int
    j: int
    h: int
    construction: str  # "promote" or "exchange"
    result: Filling


def _descent_example(alpha, start, optimized, i, j, h, construction, result) -> DescentExample:
    d = skyline(alpha)
    return DescentExample(
        alpha=tuple(alpha),
        start=_filling(d, start),
        optimized=_filling(d, optimized),
        i=i,
        j=j,
        h=h,
        construction=construction,
        result=_filling(d, result),
    )


# An 8x8 skyline example whose optimized weight beta = (1,4,3,1,3,4,1,0)
# has beta_i <= beta_j at the stray entry (i=3, j=6, h=5), so the descent
# step promotes that single entry (an M move).
PROMOTE_EXAMPLE = _descent_example(
    alpha=(0, 4, 1, 0, 2, 6, 1, 3),
    start=[
        {2: 1, 3: 3, 5: 2, 6: 5, 7: 4, 8: 6},
        {2: 2, 5: 5, 6: 6, 8: 7},
        {2: 2, 6: 5, 8: 6},
        {2: 2, 6: 6},
        {6: 3},
        {6: 3},
        {},
        {},
    ],
    optimized=[
        {2: 2, 3: 3, 5: 5, 6: 6, 7: 4, 8: 1},
        {2: 2, 5: 5, 6: 6, 8: 7},
        {2: 2, 6: 6, 8: 5},
        {2: 2, 6: 6},
        {6: 3},
        {6: 3},
        {},
        {},
    ],
    i=3,
    j=6,
    h=5,
    construction="promote",
    result=[
        {2: 2, 3: 3, 5: 5, 6: 6, 7: 4, 8: 1},
        {2: 2, 5: 5, 6: 6, 8: 7},
        {2: 2, 6: 6, 8: 5},
        {2: 2, 6: 6},
        {6: 6},
        {6: 3},
        {},
        {},
    ],
)

# A second 8x8 skyline example, worked as the columnwise exchange of the
# stray value pair (i=3, j=5, h=4).  Note that its optimized weight
# beta = (2,6,5,3,6,4,1,0) has beta_3 <= beta_5, so lemma_step's guard
# routes this filling to the promote construction; the frozen exchange
# output below is exercised through swap_values directly.
EXCHANGE_EXAMPLE = _descent_example(
    alpha=(0, 4, 2, 0, 7, 5, 1, 8),
    start=[
        {2: 1, 3: 2, 5: 5, 6: 4, 7: 6, 8: 3},
        {2: 2, 3: 3, 5: 4, 6: 6, 8: 5},
        {2: 2, 5: 1, 6: 5, 8: 7},
        {2: 2, 5: 3, 6: 6, 8: 4},
        {5: 2, 6: 6, 8: 5},
        {5: 2, 8: 3},
        {5: 3, 8: 5},
        {8: 5},
    ],
    optimized=[
        {2: 2, 3: 3, 5: 5, 6: 6, 7: 4, 8: 1},
        {2: 2, 3: 3, 5: 5, 6: 6, 8: 4},
        {2: 2, 5: 5, 6: 1, 8: 7},
        {2: 2, 5: 3, 6: 6, 8: 4},
        {5: 5, 6: 6, 8: 2},
        {5: 2, 8: 3},
        {5: 5, 8: 3},
        {8: 5},
    ],
    i=3,
    j=5,
    h=4,
    construction="exchange",
    result=[
        {2: 2, 3: 3, 5: 5, 6: 6, 7: 4, 8: 1},
        {2: 2, 3: 3, 5: 5, 6: 6, 8: 4},
        {2: 2, 5: 3, 6: 1, 8: 7},
        {2: 2, 5: 5, 6: 6, 8: 4},
        {5: 3, 6: 6, 8: 2},
        {5: 2, 8: 5},
        {5: 5, 8: 3},
        {8: 3},
    ],
)
