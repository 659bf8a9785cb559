import random

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion, derived from the test outcomes."""
    rows = []
    for key, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "ERROR"), ("skipped", "SKIPPED")):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid or "test_criterion" not in nodeid:
                continue
            if key in ("passed", "failed") and getattr(rep, "when", "call") != "call":
                continue
            rows.append((nodeid.split("::")[-1], label))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(set(rows)):
            terminalreporter.write_line(f"{name}: {outcome}")


@pytest.fixture(scope="session")
def sumset_diagrams():
    """Diagrams for checking the columnwise sumsets against explicit
    enumeration: the all-empty and the full grid of every size 1..5 (the
    full n x n grid sends every coordinate to n, the largest a coordinate
    can reach) and 110 seeded random diagrams up to 5x5 at mixed densities."""
    from keypoly.diagram import Diagram

    rng = random.Random(61)
    cases = [Diagram.make(n, [[]] * n) for n in range(1, 6)]
    cases += [Diagram.make(n, [range(1, n + 1)] * n) for n in range(1, 6)]
    for _ in range(110):
        n = rng.randint(1, 5)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        cases.append(Diagram.make(n, [[r for r in range(1, n + 1) if rng.random() < p] for _ in range(n)]))
    return cases
