"""Diagrams in an n x n grid, stored as ordered lists of column sets.

Rows are numbered 1..n top to bottom and columns 1..n left to right; the
box in row i of column j is present exactly when i is in the j-th column
set.  Column sets are kept as sorted tuples so that the columnwise order
(equal sizes, k-th smallest elements compared entrywise) is a zip-compare
and diagrams hash cheaply.

``lower_monomials`` here and ``filling.weight_set`` are Minkowski sums
over columns, computed by ``_indicator_sumset`` without building any
diagram or filling.  A column's packed steps depend only on its rows and
are built once per distinct column; packed sums are decoded by halves
through shared digit tables.  This module keeps its own big-endian
packing, apart from the key side's in ``polynomial``, so that the sums
share no code with the keys they are checked against.

``Diagram(...)`` and ``Diagram.make`` check every row they are given.
``skyline`` checks its composition instead and hands columns that are
valid by construction to the private ``Diagram._unchecked``, which does
not check them again: the kk and ccc sweeps build a skyline for every
composition they check.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
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
        if type(self.columns) is not tuple:
            raise ValueError(f"columns must be a tuple, got {self.columns!r}")
        if len(self.columns) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.columns)}")
        for col in self.columns:
            if type(col) is not tuple:
                raise ValueError(f"each column must be a tuple, got {col!r}")
            if any(type(r) is not int or not 1 <= r <= self.n for r in col):
                raise ValueError(f"diagram rows must be ints in 1..{self.n}, got column {col}")
            if any(col[k] >= col[k + 1] for k in range(len(col) - 1)):
                raise ValueError(f"column {col} is not strictly increasing")

    @classmethod
    def _unchecked(cls, n: int, columns: tuple[tuple[int, ...], ...]) -> Diagram:
        """Wrap columns that already satisfy the invariants (n sorted
        tuples of distinct int rows in 1..n) without checking them again.
        For builders whose columns are valid by construction only."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "columns", columns)
        return obj

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
        # ``make`` would drop a repeated row.
        if any(len(set(col)) != len(col) for col in columns):
            raise ValueError(f"duplicate row in a diagram column, got {columns}")
        return cls.make(n, columns)


def skyline(alpha: Sequence[int]) -> Diagram:
    """The left-justified diagram with alpha_i boxes in row i.

    Column j holds exactly the rows i with alpha_i >= j.  Parts larger
    than n = len(alpha) would place boxes outside the grid and are
    rejected.  Once alpha is checked, the columns are valid by
    construction: one pass over the rows appends each row i, in
    increasing order, to the columns j <= alpha_i, so the diagram is
    built without ``Diagram``'s checks.
    """
    a = tuple(alpha)
    n = len(a)
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 0 for p in a):
        raise ValueError(f"composition parts must be nonnegative ints, got {a}")
    if any(p > n for p in a):
        raise ValueError(f"part exceeding the grid size {n}: {a}")
    cols: list[list[int]] = [[] for _ in a]
    for i, p in enumerate(a, 1):
        for j, col in enumerate(cols, 1):
            if p >= j:
                col.append(i)
    return Diagram._unchecked(n, tuple(map(tuple, cols)))


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
    return _indicator_sumset(d.n, d.columns, lower_subsets, d.n)


# (subsets, args, rows, n, base) -> frozenset of one column's packed
# indicators.  The subsets function is part of the key, so a replaced
# ``lower_subsets`` or ``_column_assignments`` never reads another's steps.
_STEPS: dict[tuple, frozenset[int]] = {}
# (base, k) -> every k-digit tuple in base ``base``, at the index it encodes.
_DIGITS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
# The most entries a ``_DIGITS`` table may have: n <= 8 at base n + 1.
_DIGITS_MAX = 10_000


def _digit_table(base: int, k: int) -> tuple[tuple[int, ...], ...]:
    table = _DIGITS.get((base, k))
    if table is None:
        table = _DIGITS[base, k] = tuple(product(range(base), repeat=k))
    return table


def _indicator_sumset(
    n: int, columns: Sequence[Sequence[int]], subsets: Callable[..., Iterable[Sequence[int]]], *args
) -> set[tuple[int, ...]]:
    """Minkowski sum over the columns of {indicator(s) for s in
    ``subsets(rows, *args)``}, rows running over ``columns``.

    Each s lists distinct indices in 1..n.  Vectors are packed into one
    int, coordinate i as the base-b digit of weight b**(n - i), so adding
    two vectors is one int addition.  With b one more than the number of
    columns no digit carries, since each column adds at most 1 to a
    coordinate.

    A column's packed steps depend only on its rows, so each distinct
    column's are built once, by the ``subsets`` the caller looked up, and
    kept in ``_STEPS``.  Columns with one step add it to the start value;
    the others are folded in, deduplicating after each, and an empty step
    set makes the sum empty.  A packed sum is decoded by halves: its
    quotient and remainder by b**(n - n//2) are its first n//2 digits and
    its last n - n//2, each looked up in a shared ``_DIGITS`` table.  A
    half with more than ``_DIGITS_MAX`` values is decoded digit by digit
    instead.
    """
    base = len(columns) + 1
    place = [base ** (n - i) for i in range(1, n + 1)]
    start = 0
    folded = []
    for rows in columns:
        key = (subsets, args, rows, n, base)
        steps = _STEPS.get(key)
        if steps is None:
            steps = _STEPS[key] = frozenset(sum(place[i - 1] for i in s) for s in subsets(rows, *args))
        if len(steps) == 1:
            start += next(iter(steps))
        else:
            folded.append(steps)
    sums = {start}
    for steps in folded:
        sums = {total + step for total in sums for step in steps}
    low = n - n // 2
    split = base**low
    if split > _DIGITS_MAX:
        return {tuple(packed // p % base for p in place) for packed in sums}
    high, tail = _digit_table(base, n // 2), _digit_table(base, low)
    return {high[packed // split] + tail[packed % split] for packed in sums}


def monomial_of_diagram(c: Diagram) -> tuple[int, ...]:
    """Row-occurrence counts across all columns (the exponent of x^C)."""
    counts = [0] * c.n
    for col in c.columns:
        for row in col:
            counts[row - 1] += 1
    return tuple(counts)
