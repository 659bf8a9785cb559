"""Column-strict flagged fillings of diagrams and the descent machinery.

A filling assigns a positive integer to every box of a diagram subject to
two constraints: entries within a column are pairwise distinct
(column-strict) and the entry in row i never exceeds i (flagged).  The
weight of a filling counts how often each value 1..n occurs.

Fillings are stored column-major: one value tuple per column, aligned
with the diagram's sorted row tuple for that column.  Every algorithm
here works column by column.

Beyond enumeration this module implements:

* ``weight_set``, the weights of all fillings as a Minkowski sum of
  per-column value-set indicators, without building any filling;
* ``optimize``, which pulls each value that is both present in a column
  and a row index of that column into its home box, preserving weight;
* ``lemma_step``, one descent step on a skyline filling whose weight
  differs from the diagram's row counts: it returns a new filling plus a
  move relating the two weights, strictly decreasing the weight in lex
  order;
* ``descend_to_alpha`` / ``witness_filling``, which convert between
  fillings and move chains in both directions.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import product

from .diagram import Diagram, _indicator_sumset, lower_subsets, monomial_of_diagram, skyline
from .moves import Move, MoveChain, apply_move

__all__ = [
    "Filling",
    "weight",
    "weight_set",
    "row_index_filling",
    "enumerate_fillings",
    "enumerate_sorted_fillings",
    "sort_columns",
    "optimize",
    "promote_entry",
    "swap_values",
    "lemma_step",
    "descend_to_alpha",
    "witness_filling",
]


@dataclass(frozen=True)
class Filling:
    """A column-strict flagged filling; validated on construction."""

    diagram: Diagram
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = self.diagram
        if not isinstance(d, Diagram) or type(self.columns) is not tuple:
            raise ValueError(f"a filling needs a Diagram and a tuple of columns, got {d!r}, {self.columns!r}")
        if len(self.columns) != d.n:
            raise ValueError(f"expected {d.n} value columns, got {len(self.columns)}")
        for rows, values in zip(d.columns, self.columns):
            if type(values) is not tuple:
                raise ValueError(f"each value column must be a tuple, got {values!r}")
            if len(rows) != len(values):
                raise ValueError(f"column with rows {rows} got {len(values)} values")
            if len(set(values)) != len(values):
                raise ValueError(f"repeated value in column {values}")
            for row, value in zip(rows, values):
                if type(value) is not int or not 1 <= value <= row:
                    raise ValueError(f"entry {value!r} in row {row} is not an int in 1..{row}")

    def entry(self, row: int, col: int) -> int:
        if not self.diagram.has_box(row, col):
            raise KeyError(f"no box at (row {row}, col {col})")
        return self.columns[col - 1][self.diagram.columns[col - 1].index(row)]

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """(row, col, value) triples ordered by (col, row)."""
        for j, (rows, values) in enumerate(zip(self.diagram.columns, self.columns), start=1):
            for row, value in zip(rows, values):
                yield (row, j, value)

    def column_values(self, col: int) -> set[int]:
        if not 1 <= col <= self.diagram.n:
            raise KeyError(f"no column {col}")
        return set(self.columns[col - 1])

    def to_json_dict(self) -> dict:
        return {
            "diagram": self.diagram.to_json_dict(),
            "entries": [{"row": r, "col": c, "val": v} for r, c, v in self.entries()],
        }

    @classmethod
    def from_json_dict(cls, data) -> Filling:
        """Inverse of ``to_json_dict``; raises ValueError on any other
        shape, since the data may come from outside the program."""
        try:
            d = Diagram.from_json_dict(data["diagram"])
            entries = [(e["row"], e["col"], e["val"]) for e in data["entries"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed filling JSON: {type(exc).__name__} {exc}") from None
        if any(type(x) is not int for entry in entries for x in entry):
            raise ValueError(f"filling entries must be ints, got {entries}")
        by_box = {(r, c): v for r, c, v in entries}
        if len(by_box) != len(entries):
            raise ValueError("duplicate box in filling entries")
        cols = []
        for j, rows in enumerate(d.columns, start=1):
            try:
                cols.append(tuple(by_box.pop((r, j)) for r in rows))
            except KeyError as missing:
                raise ValueError(f"missing entry for box {missing}") from None
        if by_box:
            raise ValueError(f"entries outside the diagram: {sorted(by_box)}")
        return cls(d, tuple(cols))


def weight(f: Filling) -> tuple[int, ...]:
    """Occurrence counts of the values 1..n."""
    counts = [0] * f.diagram.n
    for col in f.columns:
        for value in col:
            counts[value - 1] += 1
    return tuple(counts)


def row_index_filling(d: Diagram) -> Filling:
    """Each box filled with its own row index; its weight is the diagram's
    row-count vector."""
    return Filling(d, d.columns)


def _column_assignments(rows: Sequence[int]) -> list[tuple[int, ...]]:
    """All injective value tuples for one column, value <= row per box.

    Enumerated in lex order of the value tuples.  Always nonempty: rows
    are distinct, so the k-th smallest row is at least k and the values
    1..k fit greedily.
    """
    out: list[tuple[int, ...]] = [()]
    for row in rows:
        out = [prefix + (v,) for prefix in out for v in range(1, row + 1) if v not in prefix]
    return out


def enumerate_fillings(d: Diagram) -> Iterator[Filling]:
    """All column-strict flagged fillings of d, each exactly once.

    Columns are independent, so the fillings are the Cartesian product of
    the per-column assignments, columns advancing left to right (the last
    column fastest).
    """
    per_column = [_column_assignments(rows) for rows in d.columns]
    for columns in product(*per_column):
        yield Filling(d, columns)


def enumerate_sorted_fillings(d: Diagram) -> Iterator[Filling]:
    """The fillings whose columns strictly increase from top to bottom.

    A strictly increasing value tuple below the row tuple is exactly a
    column set componentwise below the diagram column, so these are
    enumerated directly rather than by filtering enumerate_fillings.
    """
    per_column = [lower_subsets(rows, d.n) for rows in d.columns]
    for columns in product(*per_column):
        yield Filling(d, columns)


def weight_set(d: Diagram) -> set[tuple[int, ...]]:
    """``{weight(f) for f in enumerate_fillings(d)}``, built as the
    Minkowski sum over columns of the assignments' value-set indicators,
    since columns are filled independently; no filling is built."""
    return _indicator_sumset(d.n, d.columns, _column_assignments)


def sort_columns(f: Filling) -> Filling:
    """Resort every column increasingly from top to bottom.

    The result stays column-strict and flagged (sorting can only move
    smaller values to higher boxes), and clearly has the same weight.
    """
    return Filling(f.diagram, tuple(tuple(sorted(col)) for col in f.columns))


def optimize(f: Filling) -> Filling:
    """Pull every shared value of a column into its home box.

    Per column m with row set D_m and value set C_m, the targets are the
    members of C_m intersect D_m in increasing order; each target i not
    already in box (i, m) is swapped with the current entry of (i, m).
    Weight is preserved; afterwards every target sits in its home box.
    """
    new_columns = []
    for rows, values in zip(f.diagram.columns, f.columns):
        col = dict(zip(rows, values))
        targets = sorted(set(values) & set(rows))
        for target in targets:
            if col[target] == target:
                continue
            source = next(r for r, v in col.items() if v == target)
            if not source > target:
                raise RuntimeError("flag bound forces the stray copy below its home row")
            col[target], col[source] = target, col[target]
        if not all(col[t] == t for t in targets):
            raise RuntimeError("every target must sit in its home box")
        new_columns.append(tuple(col[r] for r in rows))
    result = Filling(f.diagram, tuple(new_columns))
    if weight(result) != weight(f):
        raise RuntimeError("optimize must preserve the weight")
    return result


def _locate_stray(f: Filling) -> tuple[int, int, int]:
    """Topmost row j holding an entry different from j, then the leftmost
    such entry i in that row, at box (j, h).  Returns (i, j, h)."""
    stray = min(((j, h, i) for j, h, i in f.entries() if i != j), default=None)
    if stray is None:
        raise ValueError("every entry equals its row index")
    j, h, i = stray
    return (i, j, h)


def promote_entry(f: Filling, i: int, j: int, h: int) -> Filling:
    """Replace the entry i in box (j, h) with j.

    Valid only when column h does not already contain j; this is checked
    at runtime rather than assumed.
    """
    if f.entry(j, h) != i:
        raise ValueError(f"box ({j},{h}) holds {f.entry(j, h)}, not {i}")
    if j in f.column_values(h):
        raise ValueError(f"column {h} already contains {j}")
    rows = f.diagram.columns[h - 1]
    k = rows.index(j)
    col = f.columns[h - 1]
    new_col = col[:k] + (j,) + col[k + 1:]
    return Filling(f.diagram, f.columns[:h - 1] + (new_col,) + f.columns[h:])


def swap_values(f: Filling, i: int, j: int) -> Filling:
    """Exchange the roles of the values i and j columnwise.

    Columns containing both or neither are unchanged; a column containing
    only i has that i replaced by j, and a column containing only j has
    that j replaced by i.  The weight entries at i and j trade places.
    """
    new_columns = []
    for values in f.columns:
        has_i = i in values
        has_j = j in values
        if has_i == has_j:
            new_columns.append(values)
        elif has_i:
            new_columns.append(tuple(j if v == i else v for v in values))
        else:
            new_columns.append(tuple(i if v == j else v for v in values))
    return Filling(f.diagram, tuple(new_columns))


def _skyline_shape(f: Filling) -> tuple[int, ...]:
    alpha = monomial_of_diagram(f.diagram)
    if f.diagram != skyline(alpha):
        raise ValueError("filling is not over a skyline diagram")
    return alpha


def lemma_step(f: Filling) -> tuple[Filling, Move]:
    """One descent step on a skyline filling with weight != row counts.

    Optimizes f, locates the stray entry i at box (j, h) as in
    _locate_stray, and with beta = the optimized weight either promotes
    that one entry to j (when beta_i <= beta_j, an M move) or exchanges
    the values i and j columnwise (when beta_i > beta_j, a T move).  In
    both cases the returned pair (f2, move) satisfies
    ``apply_move(weight(f2), move) == weight(f)`` and weight strictly
    drops in lex order.
    """
    alpha = _skyline_shape(f)
    beta = weight(f)
    if beta == alpha:
        raise ValueError("weight already equals the diagram row counts")
    g = optimize(f)
    i, j, h = _locate_stray(g)
    if beta[i - 1] <= beta[j - 1]:
        result = promote_entry(g, i, j, h)
        move = Move("M", i, j)
    else:
        result = swap_values(g, i, j)
        move = Move("T", i, j)
    new_weight = weight(result)
    if apply_move(new_weight, move) != beta:
        raise RuntimeError(f"{move} must map the new weight {new_weight} back to {beta}")
    if not beta > new_weight:  # tuples compare lexicographically
        raise RuntimeError(f"weight must drop in lex order, got {beta} -> {new_weight}")
    return result, move


def descend_to_alpha(f: Filling) -> MoveChain:
    """Iterate lemma_step down to the row-index filling.

    Returns the chain that regenerates weight(f) from the skyline shape
    alpha: the moves are discovered walking down but recorded so that
    replaying the chain from alpha ends at weight(f).
    """
    alpha = _skyline_shape(f)
    collected: list[Move] = []
    current = f
    while weight(current) != alpha:
        current, move = lemma_step(current)
        collected.append(move)
    return MoveChain(alpha, tuple(reversed(collected)))


def witness_filling(alpha: Sequence[int], chain: MoveChain) -> Filling:
    """Build a filling of D(alpha) whose weight is the chain's endpoint.

    Starts from the row-index filling and mirrors each move on fillings:
    a T(i, j) move (current v_i < v_j) rewrites j to i in the leftmost
    v_j - v_i columns containing j but not i, and an M(i, j) move does the
    same in the single leftmost such column.  Raises MoveError if a side
    condition fails, i.e. the chain is not a valid derivation from alpha.
    """
    a = tuple(alpha)
    if chain.start != a:
        raise ValueError(f"chain starts at {chain.start}, expected {a}")
    current = row_index_filling(skyline(a))
    v = a
    for mv in chain.moves:
        v_next = apply_move(v, mv)
        need = v[mv.j - 1] - v[mv.i - 1] if mv.kind == "T" else 1
        columns = list(current.columns)
        rewritten = 0
        for c, values in enumerate(columns):
            if rewritten == need:
                break
            if mv.j in values and mv.i not in values:
                columns[c] = tuple(mv.i if x == mv.j else x for x in values)
                rewritten += 1
        if rewritten != need:
            raise RuntimeError("column-strictness guarantees enough columns")
        current = Filling(current.diagram, tuple(columns))
        if weight(current) != v_next:
            raise RuntimeError(f"witness filling weight {weight(current)} must equal {v_next}")
        v = v_next
    return current
