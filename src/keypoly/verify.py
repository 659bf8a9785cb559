"""Batch cross-checks of the package's set equalities.

Each suite sweeps a family of inputs and compares two (or three) sets
that the underlying theory says coincide:

* ``kk``       monomials of lower diagrams vs key polynomial exponents
* ``ccc``      filling weights vs key polynomial exponents
* ``theorem11`` move closure vs exponents vs Newton lattice points
* ``aa``       weight sets of all fillings vs column-sorted fillings
* ``rado``     weakly increasing closures vs dominated rearrangements,
               and permutohedron inclusion vs dominance
* ``bruhat``   key exponents vs interval polytope lattice points

``kk`` and ``ccc`` are one sweep of the skylines, run once when either
or both are named.  Each alpha gets one skyline, built without checking
its columns again, one ``lower_monomials`` sum and one dict-keys view of
its key's terms, which compares with a set in C; kk's record comes from
these, and a set of the exponents is built only for a failure record.
The sums are columnwise sumsets built without any diagram or filling:
``lower_monomials`` folds each column's ``lower_subsets``, and
``weight_set`` would fold the value sets of its ``_column_assignments``,
which are the same sets (the identity behind ``enumerate_sorted_fillings``).
So ccc takes kk's record wherever each column of the skyline has the
same steps under the two enumerators, looked up at call time and
compared once per distinct column; only a column that differs, as under a
fault planted in either enumerator, makes ccc build its own
``weight_set``.  A fault in ``lower_monomials``' own body, outside the
step sets, therefore shows in both suites, and ``weight_set``'s body is
left to its own tests.  Each suite's ``wall_time_s`` is the time of its
own part of the sweep; ccc named without kk takes the shared part too.
Each distinct column's steps are built once per process, keyed by the
subsets function looked up at call time, so a replaced enumerator is
never answered from another's steps.  ``aa`` compares explicitly
enumerated fillings.  A zero key has no Newton polytope, so
``theorem11`` takes its lattice side to be empty and the closure side
records the loss.

``theorem11`` and ``rado`` take their move closures from
``class_closures``, one (length, sum) class at a time, as bitmasks over
the class; the other side is tested against the bits as it stands, and
only a difference is decoded into a failure record.  The records of one
length are reported after it, sorted by alpha, so in sweep order.
``theorem11`` and ``bruhat`` read a key's exponents through the same
dict-keys view as ``kk`` and ``ccc``.
``theorem11``'s lattice side is ``newton_lattice_points``: the lattice
points of the H-polytope of the exponents' support values, when the
sandwich (they are exactly the exponents) or, after a miss, the greedy
certificate proves them those of the Newton polytope, with no hull and
no LP.  Only when neither does is the hull built, and the LP then
settles each point of that same H-polytope, so a real failure is still
found.

A run's work depends only on ``(n_max, part_max)``.  The composition
suites sweep lengths n = 1..n_max with parts up to part_max (up to
min(part_max, n) for ``kk`` and ``ccc``, whose skylines are n x n), ``bruhat``
sweeps S_1..S_{n_max}, ``aa`` takes one fixed diagram and 50 seeded
random ones of size up to min(n_max, 4), and ``rado``'s inclusion checks
pair the partitions of length n_max and sum at most 10.

A suite fails iff some input exhibits a set inequality.  It counts its
checks but records only the failing inputs, each with the symmetric
difference.  All sweeps are deterministic (fixed enumeration orders,
fixed RNG seed), so reports are reproducible apart from ``wall_time_s``
and the passing inputs follow from ``(n_max, part_max)``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import permutations, product
from operator import itemgetter

from . import diagram, filling
from .bruhat import verify_qww0
from .diagram import Diagram, lower_monomials, skyline
from .filling import enumerate_fillings, enumerate_sorted_fillings, weight, weight_set
from .moves import _partitions, class_closures, dominance_leq, dominated_rearrangements
from .polynomial import key_polynomial
from .polytope import VPolytope, newton_lattice_points, polytope_subset

__all__ = ["SUITE_NAMES", "SuiteResult", "VerificationReport", "run_verification"]

_AA_SEED = 20240810
_PAIR_SUM_CAP = 10


@dataclass
class SuiteResult:
    name: str
    description: str
    passed: bool
    checked: int
    wall_time_s: float
    failures: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class VerificationReport:
    n_max: int
    part_max: int
    passed: bool
    wall_time_s: float
    suites: list[SuiteResult]

    def to_json_dict(self) -> dict:
        return {**vars(self), "suites": [s.to_json_dict() for s in self.suites]}


def composition_family(n_max: int, part_max: int):
    """The skyline sweep family: for n = 1..n_max, all length-n vectors
    with parts in 0..min(part_max, n), lexicographically, since larger
    parts leave the grid."""
    for n in range(1, n_max + 1):
        yield from product(range(min(part_max, n) + 1), repeat=n)


def _set_failure(label: dict, lhs: set, rhs: set) -> dict | None:
    """None if the sets are equal, else label plus the symmetric difference."""
    if lhs == rhs:
        return None
    return {**label, "equal": False, "only_lhs": sorted(lhs - rhs), "only_rhs": sorted(rhs - lhs)}


def _run_suite(name, description, checks) -> SuiteResult:
    """``checks`` yields None for each passing check and a record for each failing one."""
    start = time.perf_counter()
    results = list(checks)
    failures = [r for r in results if r is not None]
    elapsed = time.perf_counter() - start
    return SuiteResult(
        name=name,
        description=description,
        passed=not failures,
        checked=len(results),
        wall_time_s=elapsed,
        failures=failures,
    )


def _sumset_suites(n_max: int, part_max: int, names) -> list[SuiteResult]:
    """kk's and ccc's results, in that order, from one sweep of
    ``composition_family``; ccc's part runs, and its result means
    anything, only when ``names`` holds it.

    Each alpha gets one skyline, one ``lower_monomials`` sum and one view
    of its key's exponents, and kk's record comes from them.  ccc's record
    is kk's whenever ``_same_steps`` finds that each column has the same
    steps under both enumerators, since the two sums then fold the same
    steps; only otherwise is ``weight_set`` built.  kk's time is the
    shared part of the sweep and ccc's its own, plus the shared part when
    kk is not named.
    """
    kk = SuiteResult("kk", "lower-diagram monomials == key exponents", True, 0, 0.0)
    ccc = SuiteResult("ccc", "filling weights == key exponents", True, 0, 0.0)
    checked = 0
    for alpha in composition_family(n_max, part_max):
        start = time.perf_counter()
        d = skyline(alpha)
        label, exps = {"alpha": list(alpha)}, key_polynomial(alpha).terms.keys()
        record = _set_failure(label, lower_monomials(d), exps)
        if record is not None:
            kk.failures.append(record)
        middle = time.perf_counter()
        if "ccc" in names:
            if not _same_steps(d):
                record = _set_failure(label, weight_set(d), exps)
            if record is not None:
                ccc.failures.append(record)
        checked += 1
        kk.wall_time_s += middle - start
        ccc.wall_time_s += time.perf_counter() - middle
    kk.checked = ccc.checked = checked
    kk.passed, ccc.passed = not kk.failures, not ccc.failures
    if "kk" not in names:
        ccc.wall_time_s += kk.wall_time_s
    return [kk, ccc]


# (lower_subsets, _column_assignments, rows, n) -> whether the two give
# the column the same steps.  The enumerators are those looked up at call
# time, as in ``diagram._STEPS``, so a replaced one is never answered
# from the other's comparison.
_SAME_STEPS: dict[tuple, bool] = {}


def _same_steps(d: Diagram) -> bool:
    """Whether every column of d has the same steps, as sorted row tuples,
    under ``filling._column_assignments`` as under ``diagram.lower_subsets``.
    Equal sorted tuples are equal indicators, so ``weight_set(d)`` and
    ``lower_monomials(d)`` then fold the same steps."""
    lower, assign, n = diagram.lower_subsets, filling._column_assignments, d.n
    for rows in d.columns:
        key = (lower, assign, rows, n)
        same = _SAME_STEPS.get(key)
        if same is None:
            same = _SAME_STEPS[key] = set(map(tuple, map(sorted, assign(rows)))) == set(
                map(tuple, map(sorted, lower(rows, n)))
            )
        if not same:
            return False
    return True


def suite_kk(n_max: int, part_max: int) -> SuiteResult:
    return _sumset_suites(n_max, part_max, ("kk",))[0]


def suite_ccc(n_max: int, part_max: int) -> SuiteResult:
    return _sumset_suites(n_max, part_max, ("ccc",))[1]


def _closures(n: int, part_max: int):
    """Each length-n vector alpha with parts in 0..part_max, with
    ``differs(label, other)``: None when the set other is the move closure
    of alpha, else label with the symmetric difference.

    The closures come from ``class_closures``, one (length, sum) class at
    a time, as bitmasks in which bit k stands for the class's k-th vector.
    other is the closure exactly when it has as many vectors as the mask
    has bits set and the mask has the bit of each of them; only a
    difference decodes the closure.
    """
    for total in range(n * part_max + 1):
        vectors, masks = class_closures(n, part_max, total)
        bit = {v: 1 << k for k, v in enumerate(vectors)}
        for alpha, mask in zip(vectors, masks):

            def differs(label, other, mask=mask, bit=bit):
                if len(other) == mask.bit_count() and all(mask & bit.get(v, 0) for v in other):
                    return None
                return _set_failure(label, {v for v, b in bit.items() if mask & b}, other)

            yield alpha, differs


def suite_theorem11(n_max: int, part_max: int) -> SuiteResult:
    def run():
        for n in range(1, n_max + 1):
            failures = []
            for alpha, differs in _closures(n, part_max):
                key = key_polynomial(alpha)
                exps = key.terms.keys()
                # A zero key has no Newton polytope; its empty exponent
                # set then fails the closure side with a record.
                points = newton_lattice_points(key) if exps else set()
                # "equal" and "only_*" describe the closure side; a lattice failure nests.
                label = {"alpha": list(alpha), "compared": "closure/exponents"}
                record = differs(label, exps)
                if record is None and points == exps:
                    yield None
                    continue
                lattice = _set_failure({**label, "compared": "lattice/exponents"}, points, exps)
                record = record or {**label, "equal": True}
                failures.append(
                    {**record, "lattice_equal": lattice is None, **({"lattice_diff": lattice} if lattice else {})}
                )
            yield from sorted(failures, key=itemgetter("alpha"))

    return _run_suite(
        "theorem11", "move closure == key exponents == Newton lattice points", run()
    )


def random_diagram(rng: random.Random, n: int) -> Diagram:
    cols = []
    for _ in range(n):
        cols.append([r for r in range(1, n + 1) if rng.random() < 0.5])
    return Diagram.make(n, cols)


def suite_aa(n_max: int) -> SuiteResult:
    rng = random.Random(_AA_SEED)
    cap = max(1, min(n_max, 4))
    # A 4x4 diagram that is not left-justified, then 50 random ones.
    diagrams = [Diagram.make(4, [[1], [], [1, 2, 3], [2, 3]])]
    for _ in range(50):
        diagrams.append(random_diagram(rng, rng.randint(min(2, cap), cap)))

    def run():
        for d in diagrams:
            all_weights = {weight(f) for f in enumerate_fillings(d)}
            sorted_weights = {weight(f) for f in enumerate_sorted_fillings(d)}
            yield _set_failure({"diagram": d.to_json_dict()}, all_weights, sorted_weights)

    return _run_suite("aa", "weight sets of all vs column-sorted fillings", run())


def suite_rado(n_max: int, part_max: int) -> SuiteResult:
    def run():
        for n in range(1, n_max + 1):
            failures = []
            for alpha, differs in _closures(n, part_max):
                if any(alpha[k] > alpha[k + 1] for k in range(n - 1)):
                    continue
                record = differs({"kind": "closure", "alpha": list(alpha)}, dominated_rearrangements(alpha[::-1]))
                if record is None:
                    yield None
                else:
                    failures.append(record)
            yield from sorted(failures, key=itemgetter("alpha"))
        n = n_max
        for total in range(_PAIR_SUM_CAP + 1):
            parts = list(_partitions(total, total, n))
            polytopes = [VPolytope.from_points(n, permutations(p)) for p in parts]
            for mu, p_mu in zip(parts, polytopes):
                for lam, p_lam in zip(parts, polytopes):
                    subset = polytope_subset(p_mu, p_lam)
                    dominated = dominance_leq(mu, lam)
                    yield None if subset == dominated else {
                        "kind": "inclusion",
                        "mu": list(mu),
                        "lambda": list(lam),
                        "subset": subset,
                        "dominance": dominated,
                        "equal": False,
                    }

    return _run_suite(
        "rado",
        "weakly increasing closures == dominated rearrangements; "
        "permutohedron inclusion iff dominance",
        run(),
    )


def suite_bruhat(n_max: int) -> SuiteResult:
    def run():
        for n in range(1, n_max + 1):
            for w in permutations(range(1, n + 1)):
                yield None if verify_qww0(w) else {"w": list(w), "equal": False}

    return _run_suite(
        "bruhat",
        f"key exponents of w == lattice points of conv [w, w0], for w in S_1..S_{n_max}",
        run(),
    )


# name -> suites(n_max, part_max, names): a list of results that holds
# this suite's, given every name the run asks for; kk and ccc share one
# sweep, and only the named results are reported.  The functions are
# looked up by name at call time, so wrappers installed on this module's
# attributes apply.
_SUITES = {
    "kk": lambda n_max, part_max, names: _sumset_suites(n_max, part_max, names),
    "ccc": lambda n_max, part_max, names: _sumset_suites(n_max, part_max, names),
    "theorem11": lambda n_max, part_max, names: [suite_theorem11(n_max, part_max)],
    "aa": lambda n_max, part_max, names: [suite_aa(n_max)],
    "rado": lambda n_max, part_max, names: [suite_rado(n_max, part_max)],
    "bruhat": lambda n_max, part_max, names: [suite_bruhat(n_max)],
}
SUITE_NAMES = tuple(_SUITES)


def _check_run(n_max: int, part_max: int, suite_names: tuple[str, ...]) -> None:
    """Raise ValueError unless ``run_verification`` can run with these
    arguments, before any suite runs."""
    for name, size, least in (("n_max", n_max, 1), ("part_max", part_max, 0)):
        if type(size) is not int or size < least:
            raise ValueError(f"{name} must be an int >= {least}, got {size!r}")
    if not suite_names:
        raise ValueError("no suite to run")
    unknown = [name for name in suite_names if name not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; known: {SUITE_NAMES}")


def run_verification(
    n_max: int, part_max: int, suite_names: tuple[str, ...] = SUITE_NAMES
) -> VerificationReport:
    _check_run(n_max, part_max, suite_names)
    start = time.perf_counter()
    # A repeated name runs once, in first-seen order.
    names = tuple(dict.fromkeys(suite_names))
    done = {}
    for name in names:
        if name not in done:
            done.update((r.name, r) for r in _SUITES[name](n_max, part_max, names))
    results = [done[name] for name in names]
    elapsed = time.perf_counter() - start
    return VerificationReport(
        n_max=n_max,
        part_max=part_max,
        passed=all(r.passed for r in results),
        wall_time_s=elapsed,
        suites=results,
    )
