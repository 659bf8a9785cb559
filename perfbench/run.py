"""perfbench: keypoly's benchmark, run from the repository root.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh interpreter (perfbench/child.py), because
``key_polynomial`` memoizes into a module-global dict that an in-process
repeat would find warm, while a ``keypoly verify`` user starts cold.  The
run compiles ``src/keypoly`` to bytecode (the build), times bare ``import
keypoly`` children, starts one workload sample after another until the
next one would end past S seconds (at least one), then times bare imports
again, so that the set-up median spans the run.

On a shared machine the speed a process gets drifts by up to 2x within a
minute, and raw wall and CPU seconds spread by up to a third between runs
of the same code.  Each child therefore also measures the host's speed
with a fixed probe loop (see child.py), and the gated times are scaled to
the speed at which the probe loop takes PROBE_NOMINAL_S.  With --trace 0
it prints, as medians over the samples:

  run_norm_s    run_s at the nominal host speed                  (gated)
  run_s         wall time from ``import keypoly`` done to outputs checked
  cpu_s         user+sys CPU of the child, from its own wait4 rusage
  checks_per_s  set-equality checks (or query round trips) per run second
  setup_s       interpreter start plus ``import keypoly`` timed from the
                parent, at the nominal host speed                 (gated)
  setup_wall_s  the same, unscaled
  peak_rss_mb   the child's own peak resident memory              (gated)
  fail_ratio    failed over attempted checks; 0 whenever keypoly is right

With --trace 1 samples alternate between an untraced child and one that
wraps every public keypoly function in spans (see spans.py), and it
prints the traced per-layer metrics.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and the gated ``metrics`` (the per-layer ones
with --trace 1); the lines before it print every metric with its unit and
sample count, and the environment.  The full record, samples included,
goes to .perfbench_out/.  Exits 1 when a check fails and 2 when there is
no keypoly source tree to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 6  # bare-import children before, and again after, the samples
# The probe loop's time on an idle core of a 2-vCPU Xeon under Python 3.11.
PROBE_NOMINAL_S = 300e-6
# The end-to-end metrics BENCHMARK.json gates on; the rest are printed.
GATED = ("run_norm_s", "setup_s", "peak_rss_mb")
# Every child must end this long after the run starts, so that the run
# itself exits within 180 seconds even when a child hangs.
DEADLINE_S = 165.0


def spawn(root: str, workload: str, seed: int, traced: bool, outdir: str, timeout: float) -> dict:
    """Run one child to its end and return what it and its rusage report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), root, workload, str(seed), str(int(traced)), outdir]
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_wall_s = time.perf_counter() - began
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    sample = {
        "setup_wall_s": setup_wall_s,
        "wall_s": time.perf_counter() - began,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
        "ready": ready == "ready\n",
    }
    lines = rest.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    if workload == "setup":
        sample["ok"] = sample["ready"] and proc.returncode == 0 and isinstance(last, float)
        if sample["ok"]:
            sample["setup_s"] = setup_wall_s * last * PROBE_NOMINAL_S
        return sample
    if isinstance(last, dict):
        sample.update(last)
        sample["run_norm_s"] = sample["run_s"] * sample["speed"] * PROBE_NOMINAL_S
    else:
        checks = workloads.expected_checks(workload)
        sample.update(checks=checks, failed=checks, problems=[f"child exited {proc.returncode} without a result"])
    return sample


def environment(root: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


def print_table(title: str, rows: dict[str, tuple[str, list[float]]], tails: bool) -> None:
    """One line per metric: median, unit and sample count; with tails,
    also the range and the highest percentile with at least ten samples
    beyond it."""
    print(title)
    for name, (unit, values) in rows.items():
        line = f"  {name:40s} {statistics.median(values):14.6g} {unit:5s} n={len(values)}"
        if tails:
            bp = spans.tail_percentile(len(values))
            tail = f"{spans.format_bp(bp)} {spans.percentile(sorted(values), bp):.6g}" if bp else "no tail (n<20)"
            line += f"  range {min(values):.6g}..{max(values):.6g}  {tail}"
        print(line)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="keypoly benchmark (run from the repository root)")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    source = os.path.join(root, "src", "keypoly")
    if not os.path.isfile(os.path.join(source, "__init__.py")):
        print(f"perfbench: no keypoly source tree at {source}; run from the repository root", file=sys.stderr)
        return 2
    began = time.perf_counter()
    outdir = os.path.join(root, OUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    if not compileall.compile_dir(source, quiet=1):
        print("perfbench: src/keypoly does not compile", file=sys.stderr)
        return 2
    env = environment(root, args.seed)

    def time_left() -> float:
        return DEADLINE_S - (time.perf_counter() - began)

    def setup_samples() -> list[dict] | None:
        out = [spawn(root, "setup", args.seed, False, outdir, time_left()) for _ in range(SETUP_SAMPLES)]
        return out if all(s["ok"] for s in out) else None

    setup = setup_samples()
    if setup is None:
        print("perfbench: a bare `import keypoly` failed", file=sys.stderr)
        return 2
    timed: list[dict] = []
    traced: list[dict] = []
    measure_began = time.perf_counter()
    while True:
        batch = [spawn(root, args.workload, args.seed, False, outdir, time_left())]
        if args.trace:
            batch.append(spawn(root, args.workload, args.seed, True, outdir, time_left()))
        timed.append(batch[0])
        traced += batch[1:]
        if not all(s["ready"] for s in batch):
            print("perfbench: a workload child failed before `import keypoly` was done", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - measure_began
        batch_s = sum(s["wall_s"] for s in batch)
        if any(s["failed"] for s in batch) or elapsed + batch_s > min(args.seconds, time_left()):
            break
    setup += setup_samples() or []

    everything = timed + traced
    attempted = sum(s["checks"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    for s in everything:
        for problem in s.get("problems", []):
            print(f"perfbench: check failed: {problem}", file=sys.stderr)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"samples: {len(timed)} untraced, {len(traced)} traced, {len(setup)} set-up; "
          f"{failed} of {attempted} checks failed")

    # Timings come only from samples whose checks all passed.
    passing = [s for s in timed if not s["failed"]]
    setup_rows = {
        "setup_s": ("s", [s["setup_s"] for s in setup]),
        "setup_wall_s": ("s", [s["setup_wall_s"] for s in setup]),
    }
    rows = {
        "run_norm_s": ("s", [s["run_norm_s"] for s in passing]),
        "run_s": ("s", [s["run_s"] for s in passing]),
        "cpu_s": ("s", [s["cpu_s"] for s in passing]),
        "checks_per_s": ("1/s", [s["checks"] / s["run_s"] for s in passing]),
        **setup_rows,
        "peak_rss_mb": ("MB", [s["peak_rss_mb"] for s in passing]),
    } if passing else setup_rows
    print_table("end-to-end (untraced samples):", {
        **rows, "fail_ratio": ("ratio", [s["failed"] / s["checks"] for s in timed]),
    }, tails=True)
    rows = {k: rows[k] for k in GATED if k in rows}
    traced_ok = [s for s in traced if not s["failed"]]
    if args.trace and passing and traced_ok:
        untraced = statistics.median(rows["run_norm_s"][1])
        rows = {k: (layer_unit(k), [s["layers"][k] for s in traced_ok]) for k in traced_ok[0]["layers"]}
        rows["trace.overhead_ratio"] = ("ratio", [s["run_norm_s"] / untraced for s in traced_ok])
        print_table("per layer (traced samples):", rows, tails=False)
        wall, outside = (statistics.median(rows[k][1]) for k in ("trace.wall_s", "trace.unaccounted_s"))
        print(f"self times of all spans sum to {wall - outside:.6g} s of {wall:.6g} s traced; {outside:.6g} s "
              "ran outside any span (the benchmark's own checks and non-public calls between public ones)")
    elif args.trace:
        rows = {}
    metrics = {k: {"value": statistics.median(values), "unit": unit} for k, (unit, values) in rows.items()}

    correct = failed == 0
    record = {"args": vars(args), "env": env, "correct": correct, "setup": setup, "samples": everything,
              "metrics": metrics}
    with open(os.path.join(outdir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
