"""Planted faults that the verify suites must catch.

Each test breaks one layer on purpose, runs a suite over it and expects
the suite to fail: a suite that still passes over a broken layer shows
nothing about that layer.  The failure records are a report's only
per-check content, so most tests pin them exactly.
"""

import functools
import inspect
import textwrap
from itertools import permutations

import pytest
import test_moves

from keypoly import bruhat, diagram, filling, moves, polynomial, polytope, verify
from keypoly.polynomial import SparsePolynomial


@pytest.mark.parametrize("answer, failures", [(True, 50), (False, 575)])
def test_rado_catches_an_lp_that_always_answers_the_same(monkeypatch, answer, failures):
    """With every LP answer fixed, rado's inclusion checks disagree with
    dominance.  n = 4 is needed: at n = 3 the cheap box rejections of
    ``contains`` answer every "no", so an LP that always says yes would
    pass there."""
    monkeypatch.setattr(polytope, "_convex_feasible", lambda p, num, den: answer)
    result = verify.suite_rado(4, 4)
    assert not result.passed
    assert len(result.failures) == failures
    assert {f["kind"] for f in result.failures} == {"inclusion"}


# Faults planted in verify's namespace, and the exact failure records they
# must produce.  Passing checks are counted in ``checked`` but leave no
# record.


def _drop_largest(original):
    """Wrap a set-valued function to drop its lexicographically largest
    vector whenever it has more than one."""

    def faulty(*args):
        found = original(*args)
        return found - {max(found)} if len(found) > 1 else found

    return faulty


def _drop_largest_lattice_point(monkeypatch):
    """The H-polytope enumeration behind both the sandwich and
    ``lattice_points`` drops its largest point."""
    monkeypatch.setattr(polytope, "_support_lattice_points", _drop_largest(polytope._support_lattice_points))


def _gain_a_vector(monkeypatch):
    """Every closure of the one-pass sweep also reaches
    (|alpha| + 1, 0, ..., 0), which no vector of weight |alpha| is.  That
    vector lies outside the class, so it is appended to the class's
    vectors with a bit of its own, set in every closure, and has no
    closure of its own to be checked."""
    original = verify.class_closures

    def gained(n, cap, total):
        vectors, masks = original(n, cap, total)
        extra = 1 << len(vectors)
        return vectors + [(total + 1,) + (0,) * (n - 1)], [mask | extra for mask in masks]

    monkeypatch.setattr(verify, "class_closures", gained)


def _mutant(fn, old, new):
    """fn compiled again from its source, with the one occurrence of old
    replaced by new, over a copy of its module's globals."""
    fn = inspect.unwrap(fn)
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (fn.__name__, old)
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def test_kk_catches_lower_monomials_dropping_a_vector(monkeypatch):
    # Of the 11 skylines at n <= 2, only (0, 1), (0, 2) and (1, 2) have a
    # key polynomial with more than one monomial.
    monkeypatch.setattr(verify, "lower_monomials", _drop_largest(verify.lower_monomials))
    result = verify.suite_kk(2, 2)
    assert not result.passed and result.checked == 11
    assert result.failures == [
        {"alpha": [0, 1], "equal": False, "only_lhs": [], "only_rhs": [(1, 0)]},
        {"alpha": [0, 2], "equal": False, "only_lhs": [], "only_rhs": [(2, 0)]},
        {"alpha": [1, 2], "equal": False, "only_lhs": [], "only_rhs": [(2, 1)]},
    ]


def test_theorem11_catches_lattice_points_dropping_a_point(monkeypatch):
    _drop_largest_lattice_point(monkeypatch)
    result = verify.suite_theorem11(2, 2)
    assert not result.passed and result.checked == 12
    assert result.failures == [
        {
            "alpha": list(alpha),
            "compared": "closure/exponents",
            "equal": True,
            "lattice_equal": False,
            "lattice_diff": {
                "alpha": list(alpha),
                "compared": "lattice/exponents",
                "equal": False,
                "only_lhs": [],
                "only_rhs": [dropped],
            },
        }
        for alpha, dropped in [((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1))]
    ]


def _closure_failure(alpha, gained, **lattice):
    return {
        "alpha": list(alpha),
        "compared": "closure/exponents",
        "equal": False,
        "only_lhs": [gained],
        "only_rhs": [],
        "lattice_equal": not lattice,
        **lattice,
    }


def test_theorem11_catches_closure_gaining_a_vector(monkeypatch):
    _gain_a_vector(monkeypatch)
    result = verify.suite_theorem11(2, 1)
    assert not result.passed and result.checked == 6
    assert result.failures == [
        _closure_failure((0,), (1,)),
        _closure_failure((1,), (2,)),
        _closure_failure((0, 0), (1, 0)),
        _closure_failure((0, 1), (2, 0)),
        _closure_failure((1, 0), (2, 0)),
        _closure_failure((1, 1), (3, 0)),
    ]


def test_theorem11_reports_both_sides_of_one_input(monkeypatch):
    _gain_a_vector(monkeypatch)
    _drop_largest_lattice_point(monkeypatch)
    result = verify.suite_theorem11(2, 1)
    assert result.checked == 6
    lattice_diff = {
        "alpha": [0, 1],
        "compared": "lattice/exponents",
        "equal": False,
        "only_lhs": [],
        "only_rhs": [(1, 0)],
    }
    assert result.failures[3] == _closure_failure((0, 1), (2, 0), lattice_equal=False, lattice_diff=lattice_diff)
    assert [f["lattice_equal"] for f in result.failures] == [True, True, True, False, True, True]


def test_rado_catches_closure_gaining_a_vector(monkeypatch):
    # The 5 weakly increasing compositions at n <= 2, parts <= 1, fail;
    # the 146 inclusion checks (partitions of 0..10 into at most 2 parts,
    # paired) still pass.
    _gain_a_vector(monkeypatch)
    result = verify.suite_rado(2, 1)
    assert not result.passed and result.checked == 5 + 146
    assert result.failures == [
        {"kind": "closure", "alpha": list(alpha), "equal": False, "only_lhs": [gained], "only_rhs": []}
        for alpha, gained in [((0,), (1,)), ((1,), (2,)), ((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 1), (3, 0))]
    ]


def test_closure_suites_catch_the_pass_without_m_moves(monkeypatch):
    # Only T moves: each closure holds rearrangements of alpha alone.
    # rado checks the weakly increasing alpha among these.
    monkeypatch.setattr(verify, "class_closures", _mutant(moves.class_closures, "if a < b - 1:", "if False:"))
    missed = [
        ((0, 2), [(1, 1)]),
        ((0, 0, 2), [(0, 1, 1), (1, 0, 1), (1, 1, 0)]),
        ((0, 1, 2), [(1, 1, 1)]),
        ((0, 2, 0), [(1, 1, 0)]),
        ((0, 2, 1), [(1, 1, 1)]),
        ((0, 2, 2), [(1, 1, 2), (1, 2, 1), (2, 1, 1)]),
        ((1, 0, 2), [(1, 1, 1)]),
        ((2, 0, 2), [(2, 1, 1)]),
    ]
    result = verify.suite_theorem11(3, 2)
    assert not result.passed and result.checked == 3 + 9 + 27
    assert result.failures == [
        {
            "alpha": list(alpha),
            "compared": "closure/exponents",
            "equal": False,
            "only_lhs": [],
            "only_rhs": only_rhs,
            "lattice_equal": True,
        }
        for alpha, only_rhs in missed
    ]
    result = verify.suite_rado(3, 2)
    assert not result.passed
    assert result.failures == [
        {"kind": "closure", "alpha": list(alpha), "equal": False, "only_lhs": [], "only_rhs": only_rhs}
        for alpha, only_rhs in missed
        if list(alpha) == sorted(alpha)
    ]


def test_class_closure_oracle_catches_the_bfs_without_m_moves(monkeypatch):
    # No suite runs the BFS; the test comparing it with the one-pass
    # closures guards it.
    monkeypatch.setattr(moves, "_bfs_parents", _mutant(moves._bfs_parents, "if a < b - 1:", "if False:"))
    with pytest.raises(AssertionError):
        test_moves.TestClassClosures().test_match_bfs_closure()


def test_theorem11_catches_lattice_points_missing_a_coordinate_range(monkeypatch):
    # Every coordinate but the last two takes only its lowest value, so
    # from n = 3 on the sandwich misses and the fallback agrees with it.
    monkeypatch.setattr(
        polytope,
        "_support_lattice_points",
        _mutant(polytope._support_lattice_points, "for x in range(lo, hi + 1):", "for x in range(lo, lo + 1):"),
    )
    result = verify.suite_theorem11(3, 1)
    assert not result.passed and result.checked == 2 + 4 + 8
    assert result.failures == [
        {
            "alpha": list(alpha),
            "compared": "closure/exponents",
            "equal": True,
            "lattice_equal": False,
            "lattice_diff": {
                "alpha": list(alpha),
                "compared": "lattice/exponents",
                "equal": False,
                "only_lhs": [],
                "only_rhs": only_rhs,
            },
        }
        for alpha, only_rhs in [((0, 0, 1), [(1, 0, 0)]), ((0, 1, 0), [(1, 0, 0)]), ((0, 1, 1), [(1, 0, 1), (1, 1, 0)])]
    ]


def test_bruhat_catches_verify_qww0_answering_false(monkeypatch):
    monkeypatch.setattr(verify, "verify_qww0", lambda w: False)
    result = verify.suite_bruhat(3)
    assert not result.passed and result.checked == 1 + 2 + 6
    assert result.failures == [
        {"w": list(w), "equal": False}
        for w in [(1,), (1, 2), (2, 1), (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    ]


def test_bruhat_catches_a_key_missing_its_interior_exponent(monkeypatch):
    # (2, 2, 2) is the one exponent of key((1, 2, 3)) inside the hull of
    # the others, so the hull is unchanged; only its lattice points show
    # the loss.
    original = bruhat.key_polynomial

    def faulty(alpha):
        f = original(alpha)
        if tuple(alpha) != (1, 2, 3):
            return f
        return SparsePolynomial(f.n, {e: c for e, c in f.terms.items() if e != (2, 2, 2)})

    monkeypatch.setattr(bruhat, "key_polynomial", faulty)
    result = verify.suite_bruhat(3)
    assert not result.passed and result.checked == 1 + 2 + 6
    assert result.failures == [{"w": [1, 2, 3], "equal": False}]


def test_ccc_catches_a_flag_off_by_one(monkeypatch):
    # Each value must now lie below its row, so a box in row 1 has no
    # value and a skyline with one has no filling.
    monkeypatch.setattr(
        filling,
        "_column_assignments",
        _mutant(filling._column_assignments, "range(1, row + 1)", "range(1, row)"),
    )
    result = verify.suite_ccc(2, 1)
    assert not result.passed and result.checked == 2 + 4
    assert result.failures == [
        {"alpha": list(alpha), "equal": False, "only_lhs": [], "only_rhs": [alpha]}
        for alpha in [(1,), (0, 1), (1, 0), (1, 1)]
    ]


# pi_i's run for x >= y, from the monomial's own exponent through x - y
# steps, made one term short: it starts at the exponent and stops a step
# early, so a run with x == y is empty.
_PI_RUN_ONE_SHORT = (
    "out[e] = get(e, 0) + c\n            for f in range(e + step, e + (x - y + 1) * step, step):",
    "for f in range(e, e + (x - y) * step, step):",
)


def test_key_suites_catch_a_pi_run_one_term_short(monkeypatch):
    # pi_1 x^(a, b) with a >= b loses its last term, x^(b, a), so at
    # n = 2 each key with an ascent lacks alpha itself.  The key memo is
    # swapped for an empty one, so the faulty keys are computed, and
    # dropped afterwards.
    monkeypatch.setattr(polynomial, "_KEY_CACHE", {})
    monkeypatch.setattr(
        polynomial,
        "_pi_packed",
        _mutant(polynomial._pi_packed, *_PI_RUN_ONE_SHORT),
    )
    missed = [(0, 1), (0, 2), (1, 2)]
    for suite, checked, extra in [
        (verify.suite_kk, 11, {}),
        (verify.suite_ccc, 11, {}),
        (verify.suite_theorem11, 12, {"lattice_equal": True}),
    ]:
        result = suite(2, 2)
        assert not result.passed and result.checked == checked
        label = {"compared": "closure/exponents"} if extra else {}
        assert result.failures == [
            {"alpha": list(alpha), **label, "equal": False, "only_lhs": [alpha], "only_rhs": [], **extra}
            for alpha in missed
        ]



def test_theorem11_reports_a_zero_key(monkeypatch):
    # At n = 3 the short pi run sends key((0, 0, 1)) and key((0, 1, 1))
    # to zero.  A zero key has no Newton polytope, so its lattice side is
    # the empty set, equal to its exponents, and only the closure side
    # records the loss.
    monkeypatch.setattr(polynomial, "_KEY_CACHE", {})
    monkeypatch.setattr(
        polynomial,
        "_pi_packed",
        _mutant(polynomial._pi_packed, *_PI_RUN_ONE_SHORT),
    )
    result = verify.suite_theorem11(3, 1)
    assert not result.passed and result.checked == 2 + 4 + 8
    assert result.failures == [
        {
            "alpha": list(alpha),
            "compared": "closure/exponents",
            "equal": False,
            "only_lhs": only_lhs,
            "only_rhs": [],
            "lattice_equal": True,
        }
        for alpha, only_lhs in [
            ((0, 1), [(0, 1)]),
            ((0, 0, 1), [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
            ((0, 1, 0), [(0, 1, 0)]),
            ((0, 1, 1), [(0, 1, 1), (1, 0, 1), (1, 1, 0)]),
            ((1, 0, 1), [(1, 0, 1)]),
        ]
    ]


def test_key_suites_catch_a_memo_step_stored_under_the_chain_bottom(monkeypatch):
    # Each pi_i step is stored under the composition the chain stopped
    # at, so after key((0, 1)) the memo answers (1, 0) with key((0, 1)).
    # Run in order over one cold memo, each suite reads that wrong entry
    # once; alone over a cold memo, theorem11 needs n = 3, parts = 2.
    original = polynomial._packed_key

    def plant():
        monkeypatch.setattr(polynomial, "_KEY_CACHE", {})
        monkeypatch.setattr(
            polynomial, "_packed_key", _mutant(original, "_KEY_CACHE[above] = ", "_KEY_CACHE[a] = ")
        )

    plant()
    report = verify.run_verification(2, 1, ("kk", "ccc", "theorem11", "bruhat"))
    record = {"alpha": [1, 0], "equal": False, "only_lhs": [], "only_rhs": [(0, 1)]}
    assert [(s.name, s.checked, s.failures) for s in report.suites] == [
        ("kk", 6, [record]),
        ("ccc", 6, [record]),
        ("theorem11", 6, [{**record, "compared": "closure/exponents", "lattice_equal": True}]),
        ("bruhat", 3, [{"w": [2, 1], "equal": False}]),
    ]
    plant()
    result = verify.suite_theorem11(3, 2)
    assert not result.passed and result.checked == 3 + 9 + 27
    assert result.failures == [
        {
            "alpha": list(alpha),
            "compared": "closure/exponents",
            "equal": False,
            "only_lhs": [],
            "only_rhs": only_rhs,
            "lattice_equal": True,
        }
        for alpha, only_rhs in [
            ((0, 2, 1), [(0, 1, 2), (1, 0, 2)]),
            ((1, 0, 2), [(0, 1, 2), (0, 2, 1)]),
            ((1, 2, 0), [(0, 2, 1), (1, 1, 1), (2, 0, 1)]),
        ]
    ]


def test_bruhat_catches_tableaux_without_their_last_prefix(monkeypatch):
    # The interval [w, w0] then admits permutations that only agree with
    # w0 on the shorter prefixes.  The tableaux of S_n are built once per
    # process, so the planted ones go into a fresh cache.
    monkeypatch.setattr(
        bruhat,
        "_tableau",
        _mutant(bruhat._tableau, "range(1, len(w))", "range(1, len(w) - 1)"),
    )
    monkeypatch.setattr(bruhat, "_tableaux", functools.cache(bruhat._tableaux.__wrapped__))
    result = verify.suite_bruhat(3)
    assert not result.passed and result.checked == 1 + 2 + 6
    assert result.failures == [{"w": list(w), "equal": False} for w in [(2, 1), (1, 3, 2), (2, 3, 1), (3, 2, 1)]]


def test_rado_catches_dominance_off_by_one(monkeypatch):
    # A prefix sum may now exceed lambda's by one.  Both of rado's sides
    # read dominance_leq: the closure side through
    # dominated_rearrangements, the inclusion side directly.
    faulty = _mutant(moves.dominance_leq, "if acc_m > acc_l:", "if acc_m > acc_l + 1:")
    monkeypatch.setattr(moves, "dominance_leq", faulty)
    monkeypatch.setattr(verify, "dominance_leq", faulty)
    result = verify.suite_rado(3, 2)
    assert not result.passed and len(result.failures) == 124
    closure = {"kind": "closure", "alpha": [1, 1, 2], "equal": False, "only_lhs": []}
    inclusion = {"kind": "inclusion", "mu": [2, 0, 0], "lambda": [1, 1, 0], "subset": False, "dominance": True}
    assert result.failures[:2] == [
        {**closure, "only_rhs": [(0, 2, 2), (2, 0, 2), (2, 2, 0)]},
        {**inclusion, "equal": False},
    ]


def test_sumset_suites_catch_a_single_step_column_replacing_the_start(monkeypatch):
    # A column with one step sets the start value instead of adding to
    # it, so each such column erases the ones before it.  filling holds
    # its own binding of _indicator_sumset.
    faulty = _mutant(diagram._indicator_sumset, "start += ", "start = ")
    monkeypatch.setattr(diagram, "_indicator_sumset", faulty)
    monkeypatch.setattr(filling, "_indicator_sumset", faulty)
    for suite in (verify.suite_kk, verify.suite_ccc):
        result = suite(2, 2)
        assert not result.passed and result.checked == 11
        assert result.failures == [
            {"alpha": list(alpha), "equal": False, "only_lhs": [erased], "only_rhs": [alpha]}
            for alpha, erased in [
                ((1, 0), (0, 0)),
                ((1, 1), (0, 0)),
                ((2, 0), (1, 0)),
                ((2, 1), (1, 0)),
                ((2, 2), (1, 1)),
            ]
        ]


def test_sumset_suites_catch_a_skyline_one_column_short(monkeypatch):
    # Column j now holds the rows with alpha_i > j, so every row loses
    # its last box; at parts <= 1 each skyline is empty and both sums
    # hold only the zero vector.  No Diagram check sees the columns that
    # skyline builds, so only the suites can.
    monkeypatch.setattr(verify, "skyline", _mutant(diagram.skyline, "if p >= j:", "if p > j:"))
    for suite in (verify.suite_kk, verify.suite_ccc):
        result = suite(2, 1)
        assert not result.passed and result.checked == 2 + 4
        assert result.failures == [
            {"alpha": [1], "equal": False, "only_lhs": [(0,)], "only_rhs": [(1,)]},
            {"alpha": [0, 1], "equal": False, "only_lhs": [(0, 0)], "only_rhs": [(0, 1), (1, 0)]},
            {"alpha": [1, 0], "equal": False, "only_lhs": [(0, 0)], "only_rhs": [(1, 0)]},
            {"alpha": [1, 1], "equal": False, "only_lhs": [(0, 0)], "only_rhs": [(1, 1)]},
        ]


def test_sumset_suites_catch_their_enumerators_with_a_warm_step_memo(monkeypatch):
    # kk and ccc keep each column's steps in a memo keyed by the subsets
    # function, so a planted enumerator must not read the steps that the
    # clean runs left there.
    assert verify.suite_kk(2, 1).passed and verify.suite_ccc(2, 1).passed
    monkeypatch.setattr(
        filling,
        "_column_assignments",
        _mutant(filling._column_assignments, "range(1, row + 1)", "range(1, row)"),
    )
    result = verify.suite_ccc(2, 1)
    assert not result.passed and result.checked == 2 + 4
    assert result.failures == [
        {"alpha": list(alpha), "equal": False, "only_lhs": [], "only_rhs": [alpha]}
        for alpha in [(1,), (0, 1), (1, 0), (1, 1)]
    ]
    # Each r_k must now lie strictly below s_k, so a column holding row
    # k in its k-th box has no lower subset and the sum is empty.
    monkeypatch.setattr(
        diagram,
        "lower_subsets",
        _mutant(diagram.lower_subsets, "bound + 1)", "bound)"),
    )
    result = verify.suite_kk(2, 1)
    assert not result.passed and result.checked == 2 + 4
    assert result.failures == [
        {"alpha": [1], "equal": False, "only_lhs": [], "only_rhs": [(1,)]},
        {"alpha": [0, 1], "equal": False, "only_lhs": [], "only_rhs": [(0, 1)]},
        {"alpha": [1, 0], "equal": False, "only_lhs": [], "only_rhs": [(1, 0)]},
        {"alpha": [1, 1], "equal": False, "only_lhs": [], "only_rhs": [(1, 1)]},
    ]

# The enumerator each sumset suite folds, and a one-token fault in it
# that empties the lower set of a column with row k in its k-th box.
_ENUMERATOR_FAULTS = {
    "kk": (diagram, "lower_subsets", "bound + 1)", "bound)"),
    "ccc": (filling, "_column_assignments", "range(1, row + 1)", "range(1, row)"),
}


@pytest.mark.parametrize("broken", ["kk", "ccc"])
def test_the_shared_sweep_charges_a_planted_enumerator_to_its_own_suite(monkeypatch, broken):
    # run_verification sweeps kk and ccc together, and ccc takes kk's
    # record wherever each column has the same steps under both
    # enumerators, so a fault in either must make its columns differ.
    # The clean run first leaves both step memos warm.
    assert verify.run_verification(2, 1, ("kk", "ccc")).passed
    module, name, old, new = _ENUMERATOR_FAULTS[broken]
    monkeypatch.setattr(module, name, _mutant(getattr(module, name), old, new))
    report = verify.run_verification(2, 1, ("kk", "ccc"))
    assert [s.name for s in report.suites] == ["kk", "ccc"]
    for suite in report.suites:
        assert suite.checked == 2 + 4 and suite.passed == (suite.name != broken)
        assert suite.failures == (
            [
                {"alpha": list(alpha), "equal": False, "only_lhs": [], "only_rhs": [alpha]}
                for alpha in [(1,), (0, 1), (1, 0), (1, 1)]
            ]
            if suite.name == broken
            else []
        )
    # ccc named alone gives what it gave beside kk, apart from its time.
    (alone,) = verify.run_verification(2, 1, ("ccc",)).suites
    alone.wall_time_s = report.suites[1].wall_time_s
    assert alone == report.suites[1]


# Faults that no suite catches yet.  Each row runs every suite at
# n = 4, parts = 4, and is a strict xfail: the suite that would catch it
# turns the row into a required failure.


def _double_leading_coefficients(monkeypatch):
    """Every key that verify and bruhat see has the coefficient of its
    lexicographically largest exponent doubled."""
    for module in (verify, bruhat):

        def doubled(alpha, original=module.key_polynomial):
            f = original(alpha)
            lead = max(f.terms)
            return SparsePolynomial(f.n, {**f.terms, lead: 2 * f.terms[lead]})

        monkeypatch.setattr(module, "key_polynomial", doubled)


def _support_without_greedy_check(monkeypatch):
    """``_lattice_points`` returns the lattice points of H(h), with no
    ``contains`` call, for every generator set the sandwich misses, lifted
    onto one coordinate sum or not, greedy vertices or not: there are no
    greedy vertices to check."""
    monkeypatch.setattr(polytope, "_greedy_chains", lambda n: ())


def _first_orbit_only(monkeypatch):
    """Every hull's orbit list keeps only its first orbit, so
    ``polytope_subset`` into a closed q asks ``contains`` about one orbit
    of a closed p and never about the others."""
    orbits = polytope.VPolytope._orbits.func
    monkeypatch.setattr(polytope.VPolytope, "_orbits", property(lambda self: orbits(self)[:1]))


@pytest.mark.parametrize(
    "plant",
    [
        pytest.param(
            _double_leading_coefficients,
            marks=pytest.mark.xfail(strict=True, reason="every suite compares supports, not coefficients"),
        ),
        pytest.param(
            _support_without_greedy_check,
            marks=pytest.mark.xfail(
                strict=True,
                reason="every hull a suite builds is a generalized permutahedron, "
                "so only the unit tests in test_polytope.py guard this check",
            ),
        ),
        pytest.param(
            _first_orbit_only,
            marks=pytest.mark.xfail(
                strict=True,
                reason="every hull that rado's inclusion checks build is a permutohedron, "
                "with one orbit, so only the unit tests in test_polytope.py guard the others",
            ),
        ),
    ],
)
def test_run_verification_catches(monkeypatch, plant):
    plant(monkeypatch)
    assert not verify.run_verification(4, 4).passed


def test_uncaught_faults_take_effect(monkeypatch):
    """The rows above fail for want of a suite, not of a fault."""
    # Three coordinate sums: the hull reaches the greedy check through its
    # lift, and H(h) of the lift projects to 24 points.
    mixed = polytope.VPolytope.from_points(3, [(0, 0, 0), (1, 2, 0), (0, 3, 1), (2, 0, 2)])
    assert polytope.lattice_points(mixed) == {(0, 0, 0), (1, 2, 0), (0, 3, 1), (2, 0, 2), (1, 0, 1), (1, 1, 1)}
    # Two orbits: (1, 1, 1) is not in the simplex, and only the planted
    # orbit list never asks about it.
    simplex = polytope.VPolytope.from_points(3, permutations((1, 0, 0)))
    two_orbits = polytope.VPolytope.from_points(3, [*permutations((1, 0, 0)), (1, 1, 1)])
    assert not polytope.polytope_subset(two_orbits, simplex)
    _first_orbit_only(monkeypatch)
    _double_leading_coefficients(monkeypatch)
    _support_without_greedy_check(monkeypatch)
    assert polytope.polytope_subset(two_orbits, simplex)
    for module in (verify, bruhat):
        assert module.key_polynomial((0, 1)).terms == {(1, 0): 2, (0, 1): 1}
    # The triangle has no edge along any e_i - e_j, so it is not a
    # generalized permutahedron, yet it gets all 7 lattice points of H(h).
    triangle = polytope.VPolytope.from_points(3, [(2, 0, 1), (0, 1, 2), (1, 2, 0)])
    assert polytope.lattice_points(triangle) == {
        (2, 0, 1), (0, 1, 2), (1, 2, 0), (1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)
    }
    assert len(polytope.lattice_points(mixed)) == 24
