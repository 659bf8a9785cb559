"""The two vector moves, the reachability order they generate, and the
dominance-order specialization.

For 1 <= i < j <= n, a T move swaps entries i and j (legal when the entry
at i is strictly smaller), and an M move adds 1 at i and subtracts 1 at j
(legal when entry_i < entry_j - 1).  beta is below alpha in the move order
when some sequence of legal moves leads from alpha to beta; legality is
always judged on the current vector, not on alpha.

Both moves preserve the coordinate sum and keep every coordinate inside
[min(alpha), max(alpha)], so breadth-first search over legal moves
terminates and computes the full reachable set.

The search keys its visited set by each vector packed into one int (the
digits of v - min(alpha) in base max(alpha) - min(alpha) + 1), so a move
is one integer addition, and builds a tuple only for a newly found vector.
Each state is one scan over the pairs (i, j): T moves are taken at
once, and M moves are listed and taken after the scan, in pair order, so
vectors are found in the order of ``legal_moves`` (T before M).  It
records each vector's parent as (parent, kind, i, j) in a tuple-keyed
map; ``Move`` objects are built only for the path that ``leq_kappa``
returns.  The most recent search is memoized, so a closure
followed by reachability queries from the same alpha searches once;
``closure`` and ``closure_order`` return fresh copies of it.

A sweep that needs the closure of every vector of a class (one length,
one sum, parts up to a cap) gets them all from ``class_closures`` in one
pass, with no search.  Every legal move raises a vector in lex order (a
T move puts the larger entry at i, an M move raises entry i by 1, and
the entries before i stay), so on each class the moves form a DAG, and
in decreasing lex order every successor comes first.  Hence closure(v)
is v together with the closures of its one-move successors, which lie in
v's class: one ``|`` of bitmasks per legal move.  The BFS stays the
reference the pass is tested against, and serves single queries and
witness chains.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from operator import ge, mul

__all__ = [
    "Move",
    "MoveChain",
    "MoveError",
    "apply_move",
    "legal_moves",
    "closure",
    "closure_order",
    "leq_kappa",
    "class_closures",
    "dominance_leq",
    "dominated_rearrangements",
]


class MoveError(ValueError):
    """A move's side condition failed on the current vector."""


@dataclass(frozen=True)
class Move:
    kind: str  # "T" (swap) or "M" (transfer)
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("T", "M"):
            raise ValueError(f"move kind must be 'T' or 'M', got {self.kind!r}")
        if type(self.i) is not int or type(self.j) is not int:
            raise ValueError(f"move indices must be ints, got ({self.i!r}, {self.j!r})")
        if not 1 <= self.i < self.j:
            raise ValueError(f"move indices must satisfy 1 <= i < j, got ({self.i}, {self.j})")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "i": self.i, "j": self.j}

    @classmethod
    def from_json_dict(cls, data) -> Move:
        try:
            kind, i, j = data["kind"], data["i"], data["j"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed move JSON: {type(exc).__name__} {exc}") from None
        return cls(kind, i, j)


@dataclass(frozen=True)
class MoveChain:
    """A start vector and moves applied to it left to right."""

    start: tuple[int, ...]
    moves: tuple[Move, ...]

    def __post_init__(self):
        if type(self.start) is not tuple or type(self.moves) is not tuple:
            raise ValueError(f"move chain start and moves must be tuples, got {self.start!r}, {self.moves!r}")
        if any(type(x) is not int for x in self.start):
            raise ValueError(f"move chain start entries must be ints, got {self.start}")
        if not all(isinstance(mv, Move) for mv in self.moves):
            raise ValueError(f"move chain moves must be Moves, got {self.moves}")

    def replay(self) -> tuple[int, ...]:
        """Apply the moves in order, checking every side condition.

        Raises MoveError if any move is illegal on the vector current at
        its position.
        """
        v = self.start
        for mv in self.moves:
            v = apply_move(v, mv)
        return v

    def to_json_dict(self) -> dict:
        return {"start": list(self.start), "moves": [m.to_json_dict() for m in self.moves]}

    @classmethod
    def from_json_dict(cls, data) -> MoveChain:
        try:
            start, moves = tuple(data["start"]), list(data["moves"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed move chain JSON: {type(exc).__name__} {exc}") from None
        return cls(start, tuple(map(Move.from_json_dict, moves)))


def apply_move(v: Sequence[int], mv: Move) -> tuple[int, ...]:
    """Apply one move, enforcing its side condition on v."""
    vec = _int_vector(v)
    if mv.j > len(vec):
        raise ValueError(f"move index {mv.j} out of range for length {len(vec)}")
    a, b = vec[mv.i - 1], vec[mv.j - 1]
    if mv.kind == "T":
        if not a < b:
            raise MoveError(f"T({mv.i},{mv.j}) needs entry {a} < {b} on {vec}")
        out = list(vec)
        out[mv.i - 1], out[mv.j - 1] = b, a
    else:
        if not a < b - 1:
            raise MoveError(f"M({mv.i},{mv.j}) needs entry {a} < {b} - 1 on {vec}")
        out = list(vec)
        out[mv.i - 1] += 1
        out[mv.j - 1] -= 1
    return tuple(out)


def legal_moves(v: Sequence[int]) -> list[Move]:
    """All legal moves on v: T before M, each in lex (i, j) order."""
    vec = tuple(v)
    n = len(vec)
    out = []
    for kind in ("T", "M"):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                a, b = vec[i - 1], vec[j - 1]
                if (kind == "T" and a < b) or (kind == "M" and a < b - 1):
                    out.append(Move(kind, i, j))
    return out


# How the BFS first reached a vector: (parent, kind, i, j).
_Step = tuple[tuple[int, ...], str, int, int]


@lru_cache(maxsize=1)
def _bfs_parents(alpha: tuple[int, ...]) -> dict[tuple[int, ...], _Step | None]:
    """BFS from alpha; maps each reachable vector w to (parent, kind, i, j),
    the move that first reached it, and alpha to None.

    Insertion order is discovery order.  Each state scans its pairs once,
    in lex (i, j) order: a T move is taken at once, and an M move whose
    target is not yet seen is listed and taken after the scan, in pair
    order.  No move of the same state can reach that target meanwhile:
    distinct pairs give distinct M targets, and a T target differs from
    v in two entries by b - a each, an M target by 1 with b - a >= 2.  So
    the T moves and then the M moves come in the order of legal_moves,
    and the order is deterministic.

    Moves are not built or revalidated here: a swap, and a unit transfer
    from an entry to one at least 2 below it, both keep the sum and every
    coordinate inside [min(alpha), max(alpha)].

    So v - min(alpha) packs into the int sum((v[k] - min(alpha)) * B**k)
    with B = max(alpha) - min(alpha) + 1, and the visited set holds these
    ints: with D = B**i - B**j, a T move on (i, j) adds (v[j] - v[i]) * D
    and an M move adds D.  A tuple is built only for a newly found vector.

    The last search is memoized (one entry), so closure(alpha) followed by
    leq_kappa(beta, alpha) searches once.  Callers must not mutate the
    returned dict.
    """
    n = len(alpha)
    lo = min(alpha) if alpha else 0
    base = max(alpha) - lo + 1 if alpha else 1
    pairs = [(i, j, i + 1, j + 1, base**i - base**j) for i in range(n - 1) for j in range(i + 1, n)]
    start = 0
    for x in reversed(alpha):
        start = start * base + x - lo
    parents: dict[tuple[int, ...], _Step | None] = {alpha: None}
    seen = {start}
    add = seen.add
    queue = deque([(start, alpha)])
    pop = queue.popleft
    push = queue.append
    while queue:
        e, v = pop()
        transfers = []
        for i, j, mi, mj, d in pairs:
            a = v[i]
            b = v[j]
            if a < b:
                f = e + (b - a) * d
                if f not in seen:
                    add(f)
                    w = list(v)
                    w[i] = b
                    w[j] = a
                    w = tuple(w)
                    parents[w] = (v, "T", mi, mj)
                    push((f, w))
                if a < b - 1:
                    f = e + d
                    if f not in seen:
                        transfers.append((f, i, j, mi, mj, a, b))
        for f, i, j, mi, mj, a, b in transfers:
            add(f)
            w = list(v)
            w[i] = a + 1
            w[j] = b - 1
            w = tuple(w)
            parents[w] = (v, "M", mi, mj)
            push((f, w))
    return parents


def _int_vector(v: Sequence[int]) -> tuple[int, ...]:
    """v as a tuple of ints.  Other entries, bools included, are refused:
    the search memo would answer (1.0, 2.0) or (True, 2) with the vectors
    found from (1, 2), and a move would carry them into its result."""
    vec = tuple(v)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in vec):
        raise TypeError(f"vector entries must be integers, got {vec}")
    return vec


def closure(alpha: Sequence[int]) -> set[tuple[int, ...]]:
    """Every vector reachable from alpha by legal moves, alpha included."""
    return set(_bfs_parents(_int_vector(alpha)))


def closure_order(alpha: Sequence[int]) -> list[tuple[int, ...]]:
    """The reachable set in BFS discovery order (deterministic)."""
    return list(_bfs_parents(_int_vector(alpha)))


def leq_kappa(beta: Sequence[int], alpha: Sequence[int]) -> tuple[bool, MoveChain | None]:
    """Decide reachability of beta from alpha; on success also return a
    witnessing chain from alpha to beta."""
    b = _int_vector(beta)
    a = _int_vector(alpha)
    if len(b) != len(a):
        raise ValueError(f"length mismatch: {len(b)} vs {len(a)}")
    parents = _bfs_parents(a)
    if b not in parents:
        return False, None
    path: list[Move] = []
    step = parents[b]
    while step is not None:
        node, kind, i, j = step
        path.append(Move(kind, i, j))
        step = parents[node]
    return True, MoveChain(a, tuple(reversed(path)))


def class_closures(n: int, cap: int, total: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The move closures of one class: the length-n vectors with entries in
    0..cap summing to total, in decreasing lex order, and the closure of
    each as a bitmask over that list (bit k for the k-th vector).

    Every legal move raises a vector in lex order, since it raises the
    entry at i and keeps the entries before i, and keeps it in its class.
    So the vectors are visited after all their one-move successors w, and
    closure(v) = {v} together with the union of every closure(w), one
    ``|`` per legal move.  As in ``_bfs_parents``, each vector is packed
    into one int, in base cap + 1, and a move adds a fixed step to it.

    ``closure`` stays the reference; this serves a sweep over whole
    classes, which it answers without one search per vector.
    """
    if n < 1:
        raise ValueError(f"a class needs length at least 1, got {n}")
    # The heads in decreasing lex order, each with the one last entry
    # that completes the sum.
    heads = product(range(cap, -1, -1), repeat=n - 1)
    vectors = [(*head, last) for head in heads if 0 <= (last := total - sum(head)) <= cap]
    base = cap + 1
    place = [base ** (n - 1 - i) for i in range(n)]
    pairs = [(i, j, place[i] - place[j]) for i in range(n - 1) for j in range(i + 1, n)]
    found: dict[int, int] = {}
    masks = []
    for k, v in enumerate(vectors):
        e = sum(map(mul, v, place))
        mask = 1 << k
        for i, j, d in pairs:
            a = v[i]
            b = v[j]
            if a < b:
                mask |= found[e + (b - a) * d]
                if a < b - 1:
                    mask |= found[e + d]
        found[e] = mask
        masks.append(mask)
    return vectors, masks


def dominance_leq(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """Prefix-sum comparison of two equal-sum partitions.

    Shorter input is padded with zeros.  Raises on non-partition input or
    unequal sums.
    """
    m = _check_partition(mu, "mu")
    l = _check_partition(lam, "lambda")
    if sum(m) != sum(l):
        raise ValueError(f"sums differ: {sum(m)} vs {sum(l)}")
    width = max(len(m), len(l))
    m += (0,) * (width - len(m))
    l += (0,) * (width - len(l))
    acc_m = acc_l = 0
    for x, y in zip(m, l):
        acc_m += x
        acc_l += y
        if acc_m > acc_l:
            return False
    return True


def dominated_rearrangements(lam: Sequence[int]) -> set[tuple[int, ...]]:
    """All rearrangements of all partitions of |lambda| dominated by lambda,
    as length-len(lambda) vectors."""
    l = _check_partition(lam, "lambda")
    n = len(l)
    total = sum(l)
    out: set[tuple[int, ...]] = set()
    max_part = l[0] if l else 0
    for mu in _partitions(total, max_part, n):
        if dominance_leq(mu, l):
            out.update(permutations(mu))
    return out


def _partitions(total: int, max_part: int, slots: int):
    """Weakly decreasing length-``slots`` vectors with the given sum and
    largest part at most max_part."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    low = -(-total // slots)  # ceil: first part must carry its share
    for first in range(min(total, max_part), low - 1, -1):
        for rest in _partitions(total - first, first, slots - 1):
            yield (first,) + rest


def _check_partition(p: Sequence[int], name: str) -> tuple[int, ...]:
    t = tuple(p)
    if not all(type(x) is int and x >= 0 for x in t):
        raise ValueError(f"{name} parts must be nonnegative ints: {t}")
    if not all(map(ge, t, t[1:])):
        raise ValueError(f"{name} is not weakly decreasing: {t}")
    return t
