"""Diagrams in an n x n grid, stored as ordered lists of column sets.

Rows are numbered 1..n top to bottom and columns 1..n left to right; the
box in row i of column j is present exactly when i is in the j-th column
set.  Column sets are kept as sorted tuples so that the columnwise order
(equal sizes, k-th smallest elements compared entrywise) is a zip-compare
and diagrams hash cheaply.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import product

__all__ = [
    "Diagram",
    "skyline",
    "subset_leq",
    "diagram_leq",
    "lower_subsets",
    "enumerate_lower_diagrams",
    "lower_monomials",
    "monomial_of_diagram",
]


@dataclass(frozen=True)
class Diagram:
    """n and one sorted tuple of row indices per column."""

    n: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if len(self.columns) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.columns)}")
        for col in self.columns:
            if any(type(r) is not int or not 1 <= r <= self.n for r in col):
                raise ValueError(f"diagram rows must be ints in 1..{self.n}, got column {col}")
            if any(col[k] >= col[k + 1] for k in range(len(col) - 1)):
                raise ValueError(f"column {col} is not strictly increasing")

    @classmethod
    def make(cls, n: int, columns: Iterable[Iterable[int]]) -> Diagram:
        """Build from arbitrary iterables, sorting and deduplicating rows."""
        return cls(n, tuple(tuple(sorted(set(col))) for col in columns))

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All boxes (row, col), column by column."""
        for j, col in enumerate(self.columns, start=1):
            for i in col:
                yield (i, j)

    def box_count(self) -> int:
        return sum(len(col) for col in self.columns)

    def has_box(self, row: int, col: int) -> bool:
        return 1 <= col <= self.n and row in self.columns[col - 1]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "columns": [list(col) for col in self.columns]}

    @classmethod
    def from_json_dict(cls, data) -> Diagram:
        """Inverse of ``to_json_dict``; raises ValueError on any other
        shape, since the data may come from outside the program."""
        try:
            n, columns = data["n"], [list(col) for col in data["columns"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed diagram JSON: {type(exc).__name__} {exc}") from None
        # Checked before ``make`` sorts the rows, which would raise
        # TypeError on rows that do not compare, such as ["a", 1].
        if any(type(r) is not int for col in columns for r in col):
            raise ValueError(f"diagram rows must be ints, got {columns}")
        return cls.make(n, columns)


def skyline(alpha: Sequence[int]) -> Diagram:
    """The left-justified diagram with alpha_i boxes in row i.

    Column j holds exactly the rows i with alpha_i >= j.  Parts larger
    than n = len(alpha) would place boxes outside the grid and are
    rejected.
    """
    a = tuple(alpha)
    n = len(a)
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 0 for p in a):
        raise ValueError(f"composition parts must be nonnegative ints, got {a}")
    if any(p > n for p in a):
        raise ValueError(f"part exceeding the grid size {n}: {a}")
    cols = tuple(tuple(i for i in range(1, n + 1) if a[i - 1] >= j) for j in range(1, n + 1))
    return Diagram(n, cols)


def subset_leq(r: Iterable[int], s: Iterable[int]) -> bool:
    """Componentwise order on subsets of 1..n.

    True iff the sets have equal size and, after sorting, the k-th element
    of r is at most the k-th element of s for every k.
    """
    rs = sorted(r)
    ss = sorted(s)
    return len(rs) == len(ss) and all(x <= y for x, y in zip(rs, ss))


def diagram_leq(c: Diagram, d: Diagram) -> bool:
    """Columnwise subset_leq; the diagrams must share the same n."""
    if c.n != d.n:
        raise ValueError(f"grid sizes differ: {c.n} vs {d.n}")
    return all(subset_leq(cj, dj) for cj, dj in zip(c.columns, d.columns))


def lower_subsets(s: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """All size-|s| subsets r of 1..n with subset_leq(r, s), in lex order.

    Built directly: r_1 < r_2 < ... with r_k <= s_k, which enumerates the
    lower set without scanning all size-|s| subsets.  Raises ValueError
    when s repeats an entry or has one outside 1..n.
    """
    out: list[tuple[int, ...]] = [()]
    prev = 0
    for bound in sorted(s):
        if not prev < bound <= n:
            raise ValueError(f"expected distinct entries in 1..{n}, got {tuple(s)}")
        out = [r + (v,) for r in out for v in range(r[-1] + 1 if r else 1, bound + 1)]
        prev = bound
    return out


def enumerate_lower_diagrams(d: Diagram) -> Iterator[Diagram]:
    """All diagrams c with diagram_leq(c, d), each exactly once.

    Columns vary independently, so the lower set is the Cartesian product
    of per-column lower sets; columns advance left to right (the last
    column fastest) with each column's candidates in lex order.
    """
    per_column = [lower_subsets(col, d.n) for col in d.columns]
    for columns in product(*per_column):
        yield Diagram(d.n, columns)


def lower_monomials(d: Diagram) -> set[tuple[int, ...]]:
    """``{monomial_of_diagram(c) for c in enumerate_lower_diagrams(d)}``,
    built as the Minkowski sum over columns of the lower subsets' row
    indicators, since columns vary independently; no diagram is built."""
    return _indicator_sumset(d.n, [lower_subsets(col, d.n) for col in d.columns])


def _indicator_sumset(n: int, columns: Sequence[Iterable[Sequence[int]]]) -> set[tuple[int, ...]]:
    """Minkowski sum over columns of {indicator(s) for s in column}.

    Each s lists distinct indices in 1..n.  Vectors are packed into one
    int, coordinate i as the base-b digit of weight b**(n - i), so adding
    two vectors is one int addition.  With b one more than the number of
    columns no digit carries, since each column adds at most 1 to a
    coordinate.  The sum is folded in column by column, deduplicating
    after each, and unpacked to tuples once at the end.
    """
    base = len(columns) + 1
    place = [base ** (n - i) for i in range(1, n + 1)]
    sums = {0}
    for column in columns:
        steps = {sum(place[i - 1] for i in s) for s in column}
        sums = {total + step for total in sums for step in steps}
    return {tuple(packed // p % base for p in place) for packed in sums}


def monomial_of_diagram(c: Diagram) -> tuple[int, ...]:
    """Row-occurrence counts across all columns (the exponent of x^C)."""
    counts = [0] * c.n
    for col in c.columns:
        for row in col:
            counts[row - 1] += 1
    return tuple(counts)
