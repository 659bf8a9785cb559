"""The four perfbench workloads and the checks on their outputs.

Each workload is chosen so that one layer dominates it and another is
absent from it (see ``why`` in BENCHMARK.json):

* ``enum-n5``      ``keypoly verify`` suites kk, ccc, aa at n=5, parts=3:
                   diagram and filling enumeration plus cached keys; no
                   polytope or moves code runs.
* ``lattice-n4``   suite theorem11 at n=4, parts=4: Newton lattice points,
                   whose ~1,100 LP solves are all infeasible.
* ``inclusion-n4`` suites rado and bruhat at n=4, parts=4: polytope
                   inclusion, whose ~6,600 LP solves are almost all
                   feasible.
* ``query-n7``     cold queries on alpha = (0, 1, ..., 6): one big key
                   polynomial, its move closure, and three seeded
                   reachability witnesses with their round trips.

The verify sweeps are fixed by their (n, parts) and report exact check
counts, so a change cannot skip work unnoticed; the seed there only
labels the run.  query-n7 draws its three targets from the seed.

keypoly is passed in, never imported here, so the workload runs against
exactly the tree the caller loaded.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout

# workload -> (n, parts, {suite: exact number of checks it must report})
VERIFY = {
    "enum-n5": (5, 3, {"kk": 1355, "ccc": 1355, "aa": 51}),
    "lattice-n4": (4, 4, {"theorem11": 780}),
    "inclusion-n4": (4, 4, {"rado": 1481, "bruhat": 33}),
}
QUERY_ALPHA = (0, 1, 2, 3, 4, 5, 6)
QUERY_TERMS = 36961
QUERY_TARGETS = 3
NAMES = (*VERIFY, "query-n7")


def expected_checks(workload: str) -> int:
    if workload in VERIFY:
        return sum(VERIFY[workload][2].values())
    return 2 + QUERY_TARGETS


def run(keypoly, workload: str, seed: int, outdir: str) -> dict:
    """Run one workload through keypoly's public entry points and check
    its outputs.  Returns ``checks`` attempted, ``failed`` among them,
    ``problems`` (one line each) and, for verify workloads, the size of
    the report ``keypoly verify`` wrote."""
    if workload in VERIFY:
        return _run_verify(keypoly, workload, outdir)
    return _run_query(keypoly, seed)


def _run_verify(keypoly, workload: str, outdir: str) -> dict:
    n, parts, want = VERIFY[workload]
    report_path = os.path.join(outdir, f"report-{workload}.json")
    argv = ["verify", "--n", str(n), "--parts", str(parts), "--out", report_path]
    for suite in want:
        argv += ["--suite", suite]
    with redirect_stdout(io.StringIO()):
        code = keypoly.cli.main(argv)
    with open(report_path) as handle:
        report = json.load(handle)
    suites = {s["name"]: s for s in report["suites"]}
    problems = []
    failed = 0
    for name, count in want.items():
        suite = suites.get(name)
        if suite is None:
            problems.append(f"suite {name} missing from the report")
            failed += count
            continue
        failed += len(suite["failures"]) + abs(suite["checked"] - count)
        if suite["checked"] != count:
            problems.append(f"suite {name} checked {suite['checked']}, expected {count}")
        if not suite["passed"]:
            problems.append(f"suite {name} failed {len(suite['failures'])} checks")
    if code != 0 or not report["passed"]:
        problems.append(f"keypoly verify exited {code} with passed={report['passed']}")
        failed = max(failed, 1)
    return {
        "checks": sum(want.values()),
        "failed": failed,
        "problems": problems,
        "report_bytes": os.path.getsize(report_path),
    }


def _run_query(keypoly, seed: int) -> dict:
    alpha = QUERY_ALPHA
    problems = []
    key = keypoly.key_polynomial(alpha)
    if len(key.terms) != QUERY_TERMS:
        problems.append(f"key{alpha} has {len(key.terms)} terms, expected {QUERY_TERMS}")
    reach = keypoly.closure(alpha)
    if keypoly.exponent_vectors(key) != reach:
        problems.append(f"exponents of key{alpha} differ from its move closure")
    for beta in random.Random(seed).sample(sorted(reach), QUERY_TARGETS):
        ok, chain = keypoly.leq_kappa(beta, alpha)
        if not ok or chain.replay() != beta:
            problems.append(f"no replayable chain from {alpha} to {beta}")
            continue
        f = keypoly.witness_filling(alpha, chain)
        back = keypoly.descend_to_alpha(f)
        if keypoly.weight(f) != beta or back.start != alpha or back.replay() != beta:
            problems.append(f"witness round trip for {beta} does not replay to it")
    return {"checks": expected_checks("query-n7"), "failed": len(problems), "problems": problems}
