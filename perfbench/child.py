"""One cold-process sample of a perfbench workload; started by run.py.

usage: python3 perfbench/child.py ROOT WORKLOAD SEED TRACE OUTDIR

Imports keypoly from ROOT/src and prints ``ready``; the parent times
interpreter start plus ``import keypoly`` up to that line.  WORKLOAD
``setup`` then only probes the host's speed and prints it.  Otherwise the
child runs the workload, checks its outputs and prints one JSON line:
``run_s`` from import done to outputs checked, the host ``speed`` probed
meanwhile, the checks attempted and failed and, with TRACE=1, the
per-layer metrics of the spans it recorded.  Exits 1 when a check fails.

The speed probe exists because on a shared machine the speed this process
gets drifts by up to 2x within a minute, so wall times alone cannot show
a 10% change.  ``probe`` times a fixed pure-Python loop that shares no
code with keypoly; ``speed`` is its mean rate in loops per second.  During
a workload a SIGALRM handler probes every PROBE_INTERVAL_S of wall time,
which costs about 0.3% of run_s.
"""

import os
import sys
import time

PROBE_INTERVAL_S = 0.1
probe_s: list[float] = []


def probe(signum=None, frame=None) -> None:
    began = time.perf_counter()
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + i
    probe_s.append(time.perf_counter() - began)


def speed() -> float:
    return sum(1 / d for d in probe_s) / len(probe_s)


root, workload, seed, traced, outdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5]
sys.path.insert(0, os.path.join(root, "src"))

import keypoly  # noqa: E402
import keypoly.cli  # noqa: E402

print("ready", flush=True)
if workload == "setup":
    for _ in range(20):
        probe()
    print(speed())
    sys.exit(0)

# The benchmark's own modules load after "ready", outside both timings.
import json  # noqa: E402
import signal  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

tracer = spans.install(keypoly) if traced else None
signal.signal(signal.SIGALRM, probe)
signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
start = time.perf_counter()
try:
    result = workloads.run(keypoly, workload, seed, outdir)
except Exception as exc:  # a crash fails every check of the sample
    checks = workloads.expected_checks(workload)
    result = {"checks": checks, "failed": checks, "problems": [f"{type(exc).__name__}: {exc}"]}
result["run_s"] = time.perf_counter() - start
signal.setitimer(signal.ITIMER_REAL, 0, 0)
probe()
result["probes"] = len(probe_s)
result["speed"] = speed()
if tracer is not None and not result["failed"]:
    result["layers"] = spans.per_layer_metrics(tracer, result["run_s"], result.get("report_bytes", 0))
    spans.write_spans(tracer, os.path.join(outdir, f"spans-{workload}.json"))
print(json.dumps(result), flush=True)
sys.exit(1 if result["failed"] else 0)
