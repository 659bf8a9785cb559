"""Tests for exact hull membership, lattice points, and SNP checks.

Independent oracle for membership in two dimensions: a point is in the
hull iff it is on the correct side of every edge of the (tiny) generator
set, checked with exact cross products.  In any dimension, ``contains``
is compared with ``reference_feasible``, a phase-1 simplex over
``fractions.Fraction`` that shares no code with the integer solver.
Higher-dimensional answers are also cross-checked against the move
closure, which is computed by BFS and never touches the LP.  Inclusion
in a hull whose generator set is closed under permuting coordinates asks
one point per orbit; its answers are compared with the scan of every
generator by the reference, in the rado sweep and on random orbit hulls.

The LP scan stays the oracle for the certified H-representation path of
``lattice_points``: ``lp_lattice_points`` forces the fallback, and the
two are compared on every Newton polytope of the theorem11 sweep at
n <= 4, parts <= 4, and on random hulls.  Random simplices double as an
independent oracle for ``support``: all their vertex pairs are edges, so
one is a generalized permutahedron iff every edge is parallel to some
e_i - e_j.
"""

import contextlib
import inspect
import os
import random
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import keypoly
from keypoly import polytope, verify
from keypoly.moves import closure, dominance_leq
from keypoly.polynomial import SparsePolynomial, exponent_vectors, key_polynomial
from keypoly.polytope import (
    VPolytope,
    contains,
    lattice_points,
    newton_polytope,
    polytope_equal,
    polytope_subset,
    snp_check,
)


def reference_feasible(generators, point):
    """Phase-1 simplex with Bland's rule on the convex combination system,
    in ``Fraction`` arithmetic, without any shortcut: the reference that
    the integer solver behind ``contains`` must agree with."""
    point = tuple(Fraction(x) for x in point)
    n = len(point)
    num_vars = len(generators)
    m = n + 1  # one convexity row plus one row per coordinate
    # Equality rows [A | b]: row 0 is sum lambda = 1, row k is coordinate k.
    rows: list[list[Fraction]] = []
    for r in range(m):
        if r == 0:
            coeffs = [Fraction(1)] * num_vars
            rhs = Fraction(1)
        else:
            coeffs = [Fraction(g[r - 1]) for g in generators]
            rhs = point[r - 1]
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
        rows.append(coeffs + [rhs])

    # Tableau columns: num_vars originals, m artificials, then the rhs.
    width = num_vars + m + 1
    tableau = []
    for r, row in enumerate(rows):
        t = row[:-1] + [Fraction(0)] * m + [row[-1]]
        t[num_vars + r] = Fraction(1)
        tableau.append(t)
    basis = [num_vars + r for r in range(m)]

    # Phase-1 objective: minimize the artificial sum.  Reduced cost row,
    # with the rhs cell holding minus the current objective value.
    obj = [Fraction(0)] * width
    for c in range(num_vars):
        obj[c] = -sum(tableau[r][c] for r in range(m))
    obj[-1] = -sum(tableau[r][-1] for r in range(m))

    while True:
        enter = next((c for c in range(num_vars + m) if obj[c] < 0), None)
        if enter is None:
            return obj[-1] == 0
        leave = None
        best: Fraction | None = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        assert leave is not None, "phase-1 objective is bounded below"
        _reference_pivot(tableau, obj, leave, enter)
        basis[leave] = enter


def _reference_pivot(tableau, obj, row, col):
    pivot_row = tableau[row]
    inv = 1 / pivot_row[col]
    tableau[row] = [x * inv for x in pivot_row]
    pivot_row = tableau[row]
    for r, other in enumerate(tableau):
        if r != row and other[col]:
            factor = other[col]
            tableau[r] = [x - factor * y for x, y in zip(other, pivot_row)]
    if obj[col]:
        factor = obj[col]
        obj[:] = [x - factor * y for x, y in zip(obj, pivot_row)]


def _uncertified(monkeypatch):
    """Make every hull uncertified, so that ``lattice_points`` and
    ``polytope_equal`` take the LP fallback."""
    monkeypatch.setattr(VPolytope, "support", property(lambda self: None))


@pytest.fixture
def lp_only(monkeypatch):
    _uncertified(monkeypatch)


def via_lp(fn, *args):
    """``fn(*args)`` with every hull uncertified, i.e. through the LP."""
    with pytest.MonkeyPatch.context() as mp:
        _uncertified(mp)
        return fn(*args)


def lp_lattice_points(p):
    """``lattice_points`` through the LP scan, as for an uncertified hull."""
    return via_lp(lattice_points, p)


def hull_contains_2d(generators, point):
    """Exact 2D membership: some triangle (or segment, or vertex) of
    generators contains the point, by barycentric sign checks."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = list(generators)
    if any(tuple(map(Fraction, g)) == tuple(point) for g in pts):
        return True
    for tri in combinations(pts, 3):
        if cross(tri[0], tri[1], tri[2]) == 0:
            continue  # degenerate; collinear points are covered by segments
        d1 = cross(tri[0], tri[1], point)
        d2 = cross(tri[1], tri[2], point)
        d3 = cross(tri[2], tri[0], point)
        if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
            return True
    for a, b in combinations(pts, 2):
        if cross(a, b, point) == 0:
            t_num = [point[0] - a[0], point[1] - a[1]]
            d = [b[0] - a[0], b[1] - a[1]]
            axis = 0 if d[0] != 0 else 1
            if d[axis] == 0:
                continue
            t = Fraction(t_num[axis], d[axis])
            if 0 <= t <= 1 and all(a[k] + t * d[k] == point[k] for k in (0, 1)):
                return True
    return False


class TestVPolytope:
    def test_needs_generators(self):
        with pytest.raises(ValueError):
            VPolytope(2, ())

    def test_from_points_dedupes_and_sorts(self):
        p = VPolytope.from_points(2, [(1, 0), (0, 1), (1, 0)])
        assert p.generators == ((0, 1), (1, 0))

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            VPolytope.from_points(2, [(1, 0, 0)])

    def test_generator_entries_must_be_ints(self):
        for bad in ((0.5, 1.5), (True, 0), (Fraction(1), 0)):
            with pytest.raises(TypeError):
                VPolytope.from_points(2, [bad, (2, 0)])

    @pytest.mark.parametrize(
        "n, generators",
        [
            (True, ((1,),)),
            (2.0, ((1, 2), (2, 1))),
            ("2", ((1, 2), (2, 1))),
            (2, ([1, 2], [2, 1])),
            (2, [(1, 2), (2, 1)]),
        ],
    )
    def test_dimension_must_be_an_int_and_generators_tuples(self, n, generators):
        with pytest.raises(TypeError):
            VPolytope(n, generators)


class TestContains:
    def test_generators_are_inside(self):
        p = VPolytope.from_points(3, set(permutations((3, 2, 1))))
        for g in p.generators:
            assert contains(p, g)

    def test_midpoint_inside(self):
        p = VPolytope.from_points(3, set(permutations((3, 2, 1))))
        assert contains(p, (2, 2, 2))

    def test_outside_newton_polytope(self):
        n = newton_polytope(key_polynomial((1, 3, 2)))
        assert not contains(n, (4, 1, 1))

    def test_rational_points(self):
        p = VPolytope.from_points(2, [(0, 0), (1, 0), (0, 1)])
        assert contains(p, (Fraction(1, 3), Fraction(1, 3)))
        assert not contains(p, (Fraction(2, 3), Fraction(2, 3)))
        assert contains(p, (Fraction(1, 2), Fraction(1, 2)))  # boundary, exactly

    def test_dimension_mismatch(self):
        p = VPolytope.from_points(2, [(0, 0)])
        with pytest.raises(ValueError):
            contains(p, (1, 2, 3))

    def test_matches_2d_oracle(self):
        rng = random.Random(61)
        for _ in range(25):
            gens = {(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 7))}
            p = VPolytope.from_points(2, gens)
            for _ in range(12):
                q = (Fraction(rng.randint(0, 12), 2), Fraction(rng.randint(0, 12), 2))
                assert contains(p, q) == hull_contains_2d(gens, q)

    def test_float_coordinates_rejected(self):
        p = VPolytope.from_points(2, [(1, 0), (0, 1)])
        assert contains(p, (Fraction(1, 10), Fraction(9, 10)))
        for bad in ((0.1, 0.9), (Fraction(1, 10), 0.9), (Decimal("0.1"), Decimal("0.9"))):
            with pytest.raises(TypeError):
                contains(p, bad)

    @pytest.mark.parametrize("bad", [(True, True), (True, 1), (Fraction(1, 2), False)])
    def test_bool_coordinates_rejected(self, bad):
        p = VPolytope.from_points(2, [(0, 2), (2, 0)])
        assert contains(p, (1, 1))
        with pytest.raises(TypeError):
            contains(p, bad)

    def test_deterministic(self):
        p = VPolytope.from_points(3, set(permutations((4, 2, 0))))
        probes = [(2, 2, 2), (1, 2, 3), (4, 1, 1), (0, 0, 6)]
        first = [contains(p, q) for q in probes]
        for _ in range(3):
            assert [contains(p, q) for q in probes] == first


class TestLatticePoints:
    def test_single_point(self):
        p = VPolytope.from_points(3, [(1, 2, 3)])
        assert lattice_points(p) == {(1, 2, 3)}

    def test_segment_without_interior_points(self):
        p = VPolytope.from_points(2, [(1, 0), (0, 1)])
        assert lattice_points(p) == {(1, 0), (0, 1)}

    def test_newton_polytope_of_worked_key(self):
        n = newton_polytope(key_polynomial((1, 3, 2)))
        assert lattice_points(n) == {
            (3, 2, 1),
            (3, 1, 2),
            (2, 3, 1),
            (2, 2, 2),
            (1, 3, 2),
        }

    def test_mixed_sums_scans_full_box(self):
        p = VPolytope.from_points(1, [(0,), (2,)])
        assert lattice_points(p) == {(0,), (1,), (2,)}

    def test_square(self):
        p = VPolytope.from_points(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
        assert lattice_points(p) == {(a, b) for a in range(3) for b in range(3)}

    def test_zero_dimensional(self):
        assert lattice_points(VPolytope.from_points(0, [()])) == {()}

    def test_candidates_are_box_points_on_the_common_sum_in_lex_order(self, monkeypatch, lp_only):
        p = VPolytope.from_points(3, set(permutations((3, 1, 0))))
        seen = []
        real = polytope.contains
        monkeypatch.setattr(polytope, "contains", lambda q, c: seen.append(c) or real(q, c))
        lattice_points(p)
        assert seen == [c for c in product(range(4), repeat=3) if sum(c) == 4]


class TestSnp:
    def test_worked_key_polynomial(self):
        assert snp_check(key_polynomial((1, 3, 2)))

    def test_classic_failure(self):
        assert not snp_check(SparsePolynomial(2, {(2, 0): 1, (0, 2): 1}))

    def test_monomials_and_zero(self):
        assert snp_check(SparsePolynomial.monomial((3, 0, 4)))
        assert snp_check(SparsePolynomial.zero(3))

    def test_all_small_key_polynomials(self):
        for n in range(1, 4):
            for alpha in product(range(4), repeat=n):
                assert snp_check(key_polynomial(alpha)), alpha


class TestPolytopeEqual:
    def test_identical(self):
        p = VPolytope.from_points(2, [(0, 0), (1, 1)])
        assert polytope_equal(p, p)

    def test_redundant_generator(self):
        a = VPolytope.from_points(1, [(0,), (2,)])
        b = VPolytope.from_points(1, [(0,), (1,), (2,)])
        assert polytope_equal(a, b)

    def test_strict_subset(self):
        a = VPolytope.from_points(2, [(0, 0), (1, 0)])
        b = VPolytope.from_points(2, [(0, 0), (2, 0)])
        assert polytope_subset(a, b)
        assert not polytope_subset(b, a)
        assert not polytope_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            polytope_subset(VPolytope.from_points(1, [(0,)]), VPolytope.from_points(2, [(0, 0)]))


class TestCrossModule:
    def test_lattice_points_match_closure(self):
        for n in range(1, 4):
            for alpha in product(range(4), repeat=n):
                pts = lattice_points(newton_polytope(key_polynomial(alpha)))
                assert pts == closure(alpha), alpha

    def test_permutohedron_inclusion_iff_dominance(self):
        # small slice here; the full sum <= 10 sweep runs in acceptance
        same_sum = [(3, 0, 0), (2, 1, 0), (1, 1, 1)]
        hulls = {lam: VPolytope.from_points(3, set(permutations(lam))) for lam in same_sum}
        for mu in same_sum:
            for lam in same_sum:
                assert polytope_subset(hulls[mu], hulls[lam]) == dominance_leq(mu, lam)


def _random_instance(rng):
    n = rng.randint(1, 4)
    kind = rng.choice(("free", "repeated", "collinear"))
    if kind == "collinear":
        base = [rng.randint(-3, 3) for _ in range(n)]
        step = [rng.randint(-2, 2) for _ in range(n)]
        gens = [tuple(b + t * s for b, s in zip(base, step)) for t in rng.sample(range(-2, 4), rng.randint(1, 4))]
    else:
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        if kind == "repeated":
            gens += rng.choices(gens, k=rng.randint(1, 3))
    # VPolytope() itself keeps repeated generators; from_points would drop them.
    p = VPolytope(n, tuple(gens))
    if rng.random() < 0.5:
        weights = [rng.randint(0, 3) for _ in gens]
        weights[0] += 1
        total = sum(weights)
        point = [Fraction(sum(w * g[k] for w, g in zip(weights, gens)), total) for k in range(n)]
        if rng.random() < 0.5:
            point[rng.randrange(n)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 4))
    else:
        point = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
    return p, tuple(point)


class TestReferenceSimplex:
    def test_suite_instances_match_reference(self, monkeypatch, lp_only):
        instances = []

        def record(p, point):
            instances.append((p, tuple(point)))
            return contains(p, point)

        monkeypatch.setattr(polytope, "contains", record)
        assert verify.suite_theorem11(3, 3).passed
        assert verify.suite_rado(3, 3).passed
        assert len(instances) == 861
        for p, point in dict.fromkeys(instances):
            assert contains(p, point) == reference_feasible(p.generators, point), (p, point)

    def test_random_instances_match_reference(self):
        rng = random.Random(2011)
        answers = []
        for _ in range(300):
            p, point = _random_instance(rng)
            answer = contains(p, point)
            assert answer == reference_feasible(p.generators, point), (p, point)
            answers.append(answer)
        assert 50 < sum(answers) < 250  # both answers are exercised


# Run under ``python -O``, which strips every assert, so the exit status
# shows whether the certificate checks still reject on their own.
_TAMPER_SCRIPT = textwrap.dedent(
    """
    from keypoly.polytope import CertificateError, VPolytope, _check_combination, _check_separation, _dual_restart

    def rejected(check, *args):
        try:
            check(*args)
        except CertificateError:
            return True
        return False

    square = ((0, 0), (2, 0), (0, 2))
    feasible, lam, scale = _dual_restart((1, 1), 2, VPolytope(2, square)._crash)
    if not feasible or rejected(_check_combination, square, (1, 1), 2, lam, scale):
        raise SystemExit("honest hull certificate was not accepted")
    for i in range(len(lam)):
        for delta in (-1, 1):
            bad = list(lam)
            bad[i] += delta
            if not rejected(_check_combination, square, (1, 1), 2, bad, scale):
                raise SystemExit(f"tampered weights {bad} were accepted")
    feasible, y, _ = _dual_restart((2, 2), 1, VPolytope(2, square)._crash)
    if feasible or rejected(_check_separation, square, (2, 2), 1, y):
        raise SystemExit("honest separation certificate was not accepted")
    for i in range(len(y)):
        if y[i]:
            bad = list(y)
            bad[i] = -bad[i]
            if not rejected(_check_separation, square, (2, 2), 1, bad):
                raise SystemExit(f"tampered separation {bad} was accepted")
    print("optimized" if not __debug__ else "debug", lam, scale, y)
    """
)


# The same under ``python -O`` for the support certificate: a triangle in
# x + y + z = 3 with no edge along any e_i - e_j is rejected, and its
# lattice points still come out right, through the LP.
_REJECT_SCRIPT = textwrap.dedent(
    """
    from keypoly.polytope import VPolytope, lattice_points

    triangle = VPolytope.from_points(3, [(2, 0, 1), (0, 1, 2), (1, 2, 0)])
    if triangle.support is not None:
        raise SystemExit(f"the triangle was certified with support {triangle.support}")
    points = lattice_points(triangle)
    if points != {(2, 0, 1), (0, 1, 2), (1, 2, 0), (1, 1, 1)}:
        raise SystemExit(f"wrong lattice points {sorted(points)}")
    print("optimized" if not __debug__ else "debug", sorted(points))
    """
)


# The same under ``python -O`` for the crash basis: it answers a point it
# fits with no pivot, and a corrupted one is caught by the check of the
# weights it gives.  Once its cached properties are built, a hull is left
# as it was by every call, so asking again takes the same pivots.
_CRASH_SCRIPT = textwrap.dedent(
    """
    from fractions import Fraction
    from keypoly import polytope
    from keypoly.polytope import CertificateError, VPolytope, contains

    pivots = []
    real = polytope._pivot

    def counted(*args):
        pivots.append(args[2:4])
        return real(*args)

    polytope._pivot = counted
    half, third = (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3))
    triangle = VPolytope.from_points(2, [(0, 0), (2, 0), (0, 2)])
    square = VPolytope.from_points(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    asked = [
        (triangle, half),
        (triangle, third),
        (triangle, (Fraction(3, 2), Fraction(3, 2))),
        (square, (Fraction(1, 2), Fraction(1, 4))),
        (square, (Fraction(3, 2), Fraction(7, 4))),
        (square, (Fraction(1, 4), Fraction(1, 4))),
    ]
    crash = {p: p._crash for p, _ in asked}

    def answer_all():
        answers = []
        for p, point in asked:
            before = len(pivots)
            answers.append((contains(p, point), len(pivots) - before))
        return answers

    answers = answer_all()
    state = {p: dict(vars(p)) for p, _ in asked}
    if answer_all() != answers or any(vars(p) != state[p] for p, _ in asked):
        raise SystemExit("an answer changed its hull")

    columns, rows, equations, d = crash[triangle]
    bad = [list(row) for row in rows]
    bad[0][-2] = -bad[0][-2]  # an artificial entry of the first pivoted row
    vars(triangle)["_crash"] = (columns, tuple(map(tuple, bad)), equations, d)
    try:
        contains(triangle, third)
    except CertificateError:
        pass
    else:
        raise SystemExit("a corrupted crash basis was trusted")
    print("optimized" if not __debug__ else "debug", answers)
    """
)


# The same under ``python -O`` for the dual simplex: on a fresh segment
# hull, each of the three points below reaches it from the crash basis
# (one per exit), and a flipped answer or a tampered certificate from it
# is caught by the check.
_RESTART_SCRIPT = textwrap.dedent(
    """
    from fractions import Fraction
    from keypoly import polytope
    from keypoly.polytope import CertificateError, VPolytope, contains

    half = Fraction(1, 2)
    asked = [(3 * half, 3 * half), (0, half), (half, 0)]
    real = polytope._dual_restart
    calls = []

    def hull():
        return VPolytope.from_points(2, [(0, 0), (1, 1), (2, 2)])

    def flip(feasible, certificate, scale):
        return not feasible, certificate, scale

    def nudge(feasible, certificate, scale):
        if feasible:
            return feasible, [certificate[0] + 1, *certificate[1:]], scale
        return feasible, [-x for x in certificate], scale

    def tampered(*args):
        calls.append(args[:2])
        return tamper(*real(*args))

    honest = [contains(hull(), point) for point in asked]
    polytope._dual_restart = tampered
    for tamper in (flip, nudge):
        for point in asked:
            before = len(calls)
            try:
                contains(hull(), point)
            except CertificateError:
                if len(calls) == before + 1:
                    continue
            raise SystemExit(f"{tamper.__name__} at {point} was not caught in the restart")
    print("optimized" if not __debug__ else "debug", honest)
    """
)


def _run_optimized(script):
    src = str(Path(keypoly.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)


class TestCertificates:
    def test_tampered_certificates_rejected_without_asserts(self):
        proc = _run_optimized(_TAMPER_SCRIPT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("optimized [4, 2, 2] 4 [-4, 2, 2]"), proc.stdout

    def test_support_rejected_without_asserts(self):
        proc = _run_optimized(_REJECT_SCRIPT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("optimized [(0, 1, 2), (1, 1, 1)"), proc.stdout

    def test_crash_basis_checked_without_asserts(self):
        proc = _run_optimized(_CRASH_SCRIPT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # (answer, pivots): the triangle's crash basis, on all three
        # generators, fits (1/2, 1/2) and (1/3, 1/3), and refuses
        # (3/2, 3/2) with no pivot either: the weight of (0, 0) is
        # negative and its row has no negative entry.  The square's crash
        # basis, on (0, 0), (0, 2) and (2, 0), fits its first and third
        # points; its second needs (2, 2), one pivot away.
        assert proc.stdout.startswith(
            "optimized [(True, 0), (True, 0), (False, 0), (True, 0), (True, 1), (True, 0)]"
        ), proc.stdout

    def test_restart_certificates_checked_without_asserts(self):
        proc = _run_optimized(_RESTART_SCRIPT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("optimized [True, False, False]"), proc.stdout

    def test_answers_raise_when_certificate_breaks(self, monkeypatch):
        """A flipped answer from the dual simplex raises, for a point in
        the hull (the square) and for one outside (the triangle), each
        solved from the crash basis of a fresh hull."""
        solved = []
        real = polytope._dual_restart

        def wrong_answer(*args):
            solved.append(args[:2])
            feasible, certificate, scale = real(*args)
            return not feasible, certificate, scale

        monkeypatch.setattr(polytope, "_dual_restart", wrong_answer)
        square = [(0, 0), (2, 0), (0, 2), (2, 2)]
        for generators in (square, square[:3]):
            solved.clear()
            with pytest.raises(polytope.CertificateError):
                contains(VPolytope.from_points(2, generators), (Fraction(3, 2), Fraction(3, 2)))
            assert solved == [((3, 3), 2)], generators


def _is_root_direction(v):
    """Whether v is a nonzero multiple of some e_i - e_j."""
    nonzero = [x for x in v if x]
    return len(nonzero) == 2 and sum(nonzero) == 0


def _affinely_independent(points):
    """Rank test over ``Fraction`` on the differences to the first point."""
    rows = [[Fraction(a - b) for a, b in zip(q, points[0])] for q in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(rows)


@st.composite
def same_sum_points(draw, n, total, min_size=1, max_size=6):
    """Distinct nonnegative integer points of R^n with coordinate sum total."""
    point = st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1).filter(
        lambda head: sum(head) <= total
    )
    heads = draw(st.lists(point, min_size=min_size, max_size=max_size, unique_by=tuple))
    return [(*head, total - sum(head)) for head in heads]


@st.composite
def simplices(draw):
    """Affinely independent points on a hyperplane x_1 + ... + x_n = c."""
    n = draw(st.integers(2, 4))
    total = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    vertices = draw(same_sum_points(n, total, min_size=k, max_size=k))
    assume(_affinely_independent(vertices))
    return vertices


@st.composite
def point_sets(draw):
    """Random generator sets, on a common-sum hyperplane or not."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return n, draw(same_sum_points(n, draw(st.integers(0, 5))))
    point = st.tuples(*[st.integers(-2, 3)] * n)
    return n, draw(st.lists(point, min_size=1, max_size=6))


@st.composite
def simplex_sums(draw):
    """Minkowski sums of coordinate simplices conv(e_i : i in I), which
    are generalized permutahedra, as the set of all sums of their
    vertices."""
    n = draw(st.integers(1, 4))
    subsets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4))
    points = {(0,) * n}
    for subset in subsets:
        points = {tuple(x + (k == i) for k, x in enumerate(q)) for q in points for i in subset}
    return n, points


_RANDOM = settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


class TestSupport:
    def test_permutohedron_support_is_the_sum_of_largest_parts(self):
        lam = (4, 2, 1, 0)
        p = VPolytope.from_points(4, set(permutations(lam)))
        assert p.support == tuple(sum(lam[: bin(s).count("1")]) for s in range(16))

    def test_zero_and_one_dimensional(self):
        assert VPolytope.from_points(0, [()]).support == (0,)
        assert VPolytope.from_points(1, [(3,)]).support == (0, 3)
        assert lattice_points(VPolytope.from_points(1, [(3,)])) == {(3,)}

    @pytest.mark.parametrize(
        "generators",
        [
            # A triangle in x + y + z = 3 with no edge along any e_i - e_j:
            # h is submodular, but the greedy vertex (2, 1, 0) is missing.
            [(2, 0, 1), (0, 1, 2), (1, 2, 0)],
            # No common coordinate sum.
            [(0, 0, 1), (1, 0, 0), (1, 1, 1)],
            # A permutohedron without its greedy vertex (0, 1, 2).
            [q for q in permutations((2, 1, 0)) if q != (0, 1, 2)],
            # h is not submodular: h(13) + h(23) = 2 < h(123) + h(3) = 3.
            [(1, 1, 0, 0), (0, 0, 1, 1)],
        ],
    )
    def test_uncertified_hulls_fall_back_to_the_lp(self, generators):
        p = VPolytope.from_points(len(generators[0]), generators)
        assert p.support is None
        box = product(*[range(lo, hi + 1) for lo, hi in zip(*p._box)])
        assert lattice_points(p) == {c for c in box if reference_feasible(p.generators, c)}

    def test_newton_lattice_points_match_the_lp_scan(self):
        """All 780 theorem11 polytopes at n <= 4, parts <= 4 are certified,
        and their H-path lattice points equal the LP scan's and the
        exponents; at n <= 3, parts <= 3 every box candidate is also
        settled by the Fraction reference simplex."""
        for alpha in verify.composition_family(4, 4, cap_parts_by_n=False):
            exps = exponent_vectors(key_polynomial(alpha))
            p = VPolytope.from_points(len(alpha), exps)
            assert p.support is not None, alpha
            points = lattice_points(p)
            assert points == lp_lattice_points(p) == exps, alpha
            if len(alpha) <= 3 and max(alpha) <= 3:
                box = product(*[range(lo, hi + 1) for lo, hi in zip(*p._box)])
                for c in box:
                    if sum(c) == sum(alpha):
                        assert (c in points) == reference_feasible(p.generators, c), (alpha, c)

    def test_certified_hulls_make_no_lp_call(self, monkeypatch):
        p = newton_polytope(key_polynomial((1, 3, 2)))
        q = VPolytope.from_points(3, lattice_points(p))

        def refuse(*args):
            raise AssertionError("the LP ran on a certified hull")

        for name in ("contains", "_crash_basis", "_dual_restart"):
            monkeypatch.setattr(polytope, name, refuse)
        assert lattice_points(p) == {(3, 2, 1), (3, 1, 2), (2, 3, 1), (2, 2, 2), (1, 3, 2)}
        assert polytope_equal(p, q)
        assert not polytope_equal(p, newton_polytope(key_polynomial((2, 3, 1))))
        assert "_crash" not in vars(p) and "_crash" not in vars(q)

    @_RANDOM
    @given(simplices())
    def test_simplex_certified_iff_every_edge_is_a_root_direction(self, vertices):
        p = VPolytope.from_points(len(vertices[0]), vertices)
        roots = all(_is_root_direction([a - b for a, b in zip(u, v)]) for u, v in combinations(vertices, 2))
        assert (p.support is not None) == roots
        assert lattice_points(p) == lp_lattice_points(p)

    @_RANDOM
    @given(point_sets())
    def test_random_hulls_match_the_lp_scan(self, case):
        n, generators = case
        p = VPolytope.from_points(n, generators)
        assert lattice_points(p) == lp_lattice_points(p)

    @_RANDOM
    @given(simplex_sums())
    def test_sums_of_simplices_are_certified(self, case):
        n, points = case
        p = VPolytope.from_points(n, points)
        assert p.support is not None
        assert lattice_points(p) == lp_lattice_points(p) == points

    @_RANDOM
    @given(simplex_sums(), simplex_sums())
    def test_polytope_equal_matches_the_lp(self, first, second):
        (n, points), (m, others) = first, second
        p = VPolytope.from_points(n, points)
        vertices = VPolytope.from_points(n, [v for v in points if not _between(v, points)])
        assert polytope_equal(p, vertices) and via_lp(polytope_equal, p, vertices)
        if n == m:
            q = VPolytope.from_points(m, others)
            assert polytope_equal(p, q) == via_lp(polytope_equal, p, q)


def _between(v, points):
    """Whether v is the midpoint of two other points of the set."""
    return any(tuple(2 * a - b for a, b in zip(v, u)) in points for u in points if u != v)


@st.composite
def hulls_with_points(draw):
    """A random hull, possibly with repeated generators, and a list of
    rational points: random ones and convex combinations of generators."""
    n = draw(st.integers(1, 3))
    generators = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * n), min_size=1, max_size=6))
    coordinate = st.fractions(-3, 4, max_denominator=4)
    weights = st.lists(st.integers(0, 3), min_size=len(generators), max_size=len(generators)).filter(any)
    points = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            points.append(tuple(draw(st.lists(coordinate, min_size=n, max_size=n))))
        else:
            w = draw(weights)
            points.append(tuple(Fraction(sum(a * g[i] for a, g in zip(w, generators)), sum(w)) for i in range(n)))
    return n, tuple(generators), points


def _assert_inverts_its_columns(p, crash):
    """Each pivoted row of the crash basis is its artificial part times
    [A | I], and those parts map the basic generator columns (1, g) to
    d > 0 times the unit vectors; there is one pivoted row or equation
    per row of the system."""
    columns, rows, equations, d = crash
    assert d > 0 and len(rows) + len(equations) == p.n + 1, crash
    vectors = [(1, *g) for g in p.generators]
    k = len(vectors)
    for i, row in enumerate(rows):
        y = row[k:]
        assert row[:k] == tuple(sum(map(mul, y, v)) for v in vectors), crash
        assert [sum(map(mul, y, vectors[j])) for j in columns] == [d * (i == r) for r in range(len(rows))], crash


@st.composite
def orbit_hulls(draw):
    """A hull p of one to four random points, their coordinates left
    unsorted, and a hull q whose generators are the orbits, under
    permuting coordinates, of one to three random points, sometimes less
    one generator."""
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, 3)] * n)
    seeds = draw(st.lists(point, min_size=1, max_size=3))
    generators = sorted({g for s in seeds for g in permutations(s)})
    if len(generators) > 1 and draw(st.booleans()):
        del generators[draw(st.integers(0, len(generators) - 1))]
    return VPolytope(n, tuple(draw(st.lists(point, min_size=1, max_size=4)))), VPolytope(n, tuple(generators))


class TestOrbitReduction:
    def test_rado_answers_match_the_generator_scan_and_the_reference(self, monkeypatch):
        """Every polytope_subset call of the rado sweep at n = 3 asks
        ``contains`` once, since a permutohedron's generators form one
        orbit, and answers as the scan of all of p's generators does,
        both by ``contains`` and by the Fraction reference."""
        asked = []
        real_contains = polytope.contains
        monkeypatch.setattr(polytope, "contains", lambda q, g: asked.append(g) or real_contains(q, g))
        answers = []
        real_subset = verify.polytope_subset

        def record(p, q):
            before = len(asked)
            answer = real_subset(p, q)
            answers.append((p, q, answer, len(asked) - before))
            return answer

        monkeypatch.setattr(verify, "polytope_subset", record)
        assert verify.suite_rado(3, 3).passed
        assert len(answers) == 609
        for p, q, answer, calls in answers:
            assert q._symmetric and calls == 1, (p, q)
            assert answer == all(real_contains(q, g) for g in p.generators), (p, q)
            assert answer == all(reference_feasible(q.generators, g) for g in p.generators), (p, q)

    @_RANDOM
    @given(orbit_hulls())
    def test_orbit_hulls_match_the_reference(self, case):
        p, q = case
        gens = set(q.generators)
        closed = all(tuple(g[i] for i in order) in gens for g in gens for order in permutations(range(q.n)))
        assert q._symmetric == closed
        assert polytope_subset(p, q) == all(reference_feasible(q.generators, g) for g in p.generators)

    def test_hull_missing_one_permuted_vertex_is_not_reduced(self, monkeypatch):
        """The permutohedron of (2, 1, 0) without the vertex (2, 1, 0) is
        not symmetric, and does not contain that vertex, though it does
        contain its ascending rearrangement (0, 1, 2): reducing to it
        would answer wrongly."""
        q = VPolytope.from_points(3, [g for g in permutations((2, 1, 0)) if g != (2, 1, 0)])
        p = VPolytope.from_points(3, [(2, 1, 0)])
        assert not q._symmetric
        assert not polytope_subset(p, q)
        monkeypatch.setitem(vars(q), "_symmetric", True)
        assert polytope_subset(p, q)


@st.composite
def seeded_hulls(draw):
    """A random hull, a convex combination of its generators to ask
    first, and rational points to ask afterwards: random ones and affine
    combinations of the generators, which lie on the hull's affine span,
    inside the hull or not."""
    n = draw(st.integers(1, 4))
    generators = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * n), min_size=2, max_size=7))
    k = len(generators)

    def combination(low):
        w = draw(st.lists(st.integers(low, 3), min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
        return tuple(Fraction(sum(a * g[i] for a, g in zip(w, generators)), sum(w)) for i in range(n))

    seed = combination(0)
    coordinate = st.fractions(-3, 4, max_denominator=4)
    points = [
        combination(-1) if draw(st.booleans()) else tuple(draw(st.lists(coordinate, min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 8)))
    ]
    return n, tuple(generators), seed, points


class TestDualRestart:
    @_RANDOM
    @given(hulls_with_points())
    def test_answers_do_not_depend_on_the_order_asked(self, case):
        n, generators, points = case
        forward, backward = VPolytope(n, generators), VPolytope(n, generators)
        answers = [contains(forward, q) for q in points]
        assert answers[::-1] == [contains(backward, q) for q in reversed(points)]
        assert answers == [reference_feasible(generators, q) for q in points]

    @_RANDOM
    @given(seeded_hulls())
    def test_answers_after_one_feasible_answer_match_the_reference(self, case):
        n, generators, seed, points = case
        p = VPolytope(n, generators)
        assert contains(p, seed)
        for q in points:
            assert contains(p, q) == reference_feasible(generators, q), q

    @_RANDOM
    @given(point_sets(), st.data())
    def test_crash_basis_is_dual_feasible_for_every_point(self, case, data):
        """The pivoted rows of the crash basis invert their columns, and
        every span equation it sets apart vanishes on every generator
        column (1, g), so every reduced cost is 0; a fresh hull's first
        answer, which starts from it, matches the reference."""
        n, generators = case
        p = VPolytope.from_points(n, generators)
        k = len(p.generators)
        w = data.draw(st.lists(st.integers(-1, 3), min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
        point = tuple(Fraction(sum(a * g[i] for a, g in zip(w, p.generators)), sum(w)) for i in range(n))
        assert contains(p, point) == reference_feasible(p.generators, point), point
        crash = polytope._crash_basis(p.generators)
        assert p._crash == crash
        _assert_inverts_its_columns(p, crash)
        for y in crash[2]:
            assert any(y) and all(sum(map(mul, y, (1, *g))) == 0 for g in p.generators), (crash, y)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_each_exit_is_reached(self, sign, monkeypatch):
        """The generators (0, 0, 0), (0, 0, 1), (0, 0, 2) and (2, 2, 1)
        span a triangle in the plane x = y, so the crash basis sets apart
        the equation y - x = 0.  (0, 1/2, 0) breaks it and is refused
        with no pivot: exit 1.  (3/2, 3/2, 3/2) lies on the plane and in
        the box, but outside the triangle, and after one pivot its leaving
        row has no negative entry: exit 2.  (1/2, 1/2, 3/2) is in the
        triangle, one pivot away: exit 3.  In the mirror image, with every
        coordinate negated, (0, -1/2, 0), (-3/2, -3/2, -1/2) and
        (-1/2, -1/2, -1/2) take the same exits after as many pivots."""
        half = Fraction(sign, 2)
        p = VPolytope.from_points(3, [(0, 0, 0), (0, 0, sign), (0, 0, 2 * sign), (2 * sign, 2 * sign, sign)])
        if sign > 0:
            asked = [(0, half, 0), (3 * half, 3 * half, 3 * half), (half, half, 3 * half)]
        else:
            asked = [(0, half, 0), (3 * half, 3 * half, half), (half, half, half)]
        assert p._crash[2] == ((0, -2, 2, 0),)
        pivots = []
        real = polytope._pivot
        monkeypatch.setattr(polytope, "_pivot", lambda *args: pivots.append(args) or real(*args))
        with _exits_taken() as exits:
            answers = []
            for q in asked:
                before = len(pivots)
                answers.append((contains(p, q), len(pivots) - before))
            assert answers == [(False, 0), (False, 1), (True, 1)]
            assert exits == [1, 2, 3]
            # No solve changes the hull, so asking the last point again
            # takes the same pivot from the crash basis again.
            assert contains(p, asked[2]) and exits == [1, 2, 3, 3] and len(pivots) == 3


@contextlib.contextmanager
def _exits_taken():
    """Record how each ``_dual_restart`` call returns, told apart by the
    line of its return statement: 1 for a broken span equation, 2 for a
    leaving row that no column can enter, 3 for a feasible answer."""
    code = polytope._dual_restart.__code__
    lines, first = inspect.getsourcelines(polytope._dual_restart)
    returns = [first + i for i, line in enumerate(lines) if line.lstrip().startswith("return ")]
    exit_of = dict(zip(returns, (1, 2, 3), strict=True))
    exits = []

    def local(frame, event, arg):
        if event == "return":
            exits.append(exit_of[frame.f_lineno])
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        yield exits
    finally:
        sys.settrace(previous)
