"""Batch cross-checks of the package's set equalities.

Each suite sweeps a family of inputs and compares two (or three) sets
that the underlying theory says coincide:

* ``kk``       monomials of lower diagrams vs key polynomial exponents
* ``ccc``      filling weights vs key polynomial exponents
* ``theorem11`` move closure vs exponents vs Newton lattice points
* ``aa``       weight sets of all fillings vs column-sorted fillings
* ``rado``     weakly increasing closures vs dominated rearrangements,
               and permutohedron inclusion vs dominance
* ``bruhat``   Newton polytopes of permutations vs interval polytopes

``kk`` and ``ccc`` get their sets as columnwise sumsets (``lower_monomials``,
``weight_set``) without building any diagram or filling; ``aa`` compares
explicitly enumerated fillings.

A run's work depends only on ``(n_max, part_max)``.  The composition
suites sweep lengths 1..n_max with parts up to part_max, ``bruhat``
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

from .bruhat import longest_element, verify_qww0
from .diagram import Diagram, lower_monomials, skyline
from .filling import enumerate_fillings, enumerate_sorted_fillings, weight, weight_set
from .moves import closure, dominance_leq, dominated_rearrangements, _partitions
from .polynomial import exponent_vectors, key_polynomial
from .polytope import VPolytope, lattice_points, polytope_subset

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


def composition_family(n_max: int, part_max: int, cap_parts_by_n: bool):
    """The sweep family: for n = 1..n_max, all length-n vectors with parts
    in 0..cap, lexicographically.  The cap is part_max, or min(part_max, n)
    for suites that build skyline diagrams, since larger parts leave the
    grid."""
    for n in range(1, n_max + 1):
        cap = min(part_max, n) if cap_parts_by_n else part_max
        yield from product(range(cap + 1), repeat=n)


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


def _skyline_suite(name: str, description: str, n_max: int, part_max: int, side) -> SuiteResult:
    """Compare ``side(skyline(alpha))`` with the key exponents of alpha
    over the skyline sweep."""

    def run():
        for alpha in composition_family(n_max, part_max, cap_parts_by_n=True):
            lhs = side(skyline(alpha))
            exps = exponent_vectors(key_polynomial(alpha))
            yield _set_failure({"alpha": list(alpha)}, lhs, exps)

    return _run_suite(name, description, run())


def suite_kk(n_max: int, part_max: int) -> SuiteResult:
    return _skyline_suite(
        "kk", "lower-diagram monomials == key exponents", n_max, part_max, lower_monomials
    )


def suite_ccc(n_max: int, part_max: int) -> SuiteResult:
    return _skyline_suite("ccc", "filling weights == key exponents", n_max, part_max, weight_set)


def suite_theorem11(n_max: int, part_max: int) -> SuiteResult:
    def run():
        for alpha in composition_family(n_max, part_max, cap_parts_by_n=False):
            reach = closure(alpha)
            exps = exponent_vectors(key_polynomial(alpha))
            points = lattice_points(VPolytope.from_points(len(alpha), exps))
            if reach == exps == points:
                yield None
                continue
            # "equal" and "only_*" describe the closure side; a lattice failure nests.
            label = {"alpha": list(alpha), "compared": "closure/exponents"}
            lattice = _set_failure({**label, "compared": "lattice/exponents"}, points, exps)
            record = _set_failure(label, reach, exps) or {**label, "equal": True}
            yield {**record, "lattice_equal": lattice is None, **({"lattice_diff": lattice} if lattice else {})}

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
        for alpha in composition_family(n_max, part_max, cap_parts_by_n=False):
            if any(alpha[k] > alpha[k + 1] for k in range(len(alpha) - 1)):
                continue
            lam = tuple(sorted(alpha, reverse=True))
            yield _set_failure(
                {"kind": "closure", "alpha": list(alpha)},
                closure(alpha),
                dominated_rearrangements(lam),
            )
        n = n_max
        for total in range(_PAIR_SUM_CAP + 1):
            parts = list(_partitions(total, total, n))
            polytopes = [VPolytope.from_points(n, set(permutations(p))) for p in parts]
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
        f"Newton polytope of a permutation == interval polytope up to {longest_element(n_max)}",
        run(),
    )


# name -> suite(n_max, part_max); the suites are looked up by name at
# call time, so wrappers installed on this module's attributes apply.
_SUITES = {
    "kk": lambda n_max, part_max: suite_kk(n_max, part_max),
    "ccc": lambda n_max, part_max: suite_ccc(n_max, part_max),
    "theorem11": lambda n_max, part_max: suite_theorem11(n_max, part_max),
    "aa": lambda n_max, part_max: suite_aa(n_max),
    "rado": lambda n_max, part_max: suite_rado(n_max, part_max),
    "bruhat": lambda n_max, part_max: suite_bruhat(n_max),
}
SUITE_NAMES = tuple(_SUITES)


def run_verification(
    n_max: int, part_max: int, suite_names: tuple[str, ...] = SUITE_NAMES
) -> VerificationReport:
    unknown = [name for name in suite_names if name not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; known: {SUITE_NAMES}")
    start = time.perf_counter()
    results = [_SUITES[name](n_max, part_max) for name in suite_names]
    elapsed = time.perf_counter() - start
    return VerificationReport(
        n_max=n_max,
        part_max=part_max,
        passed=all(r.passed for r in results),
        wall_time_s=elapsed,
        suites=results,
    )
