"""Count the live GC-tracked objects that ``import keypoly`` and one
perfbench workload leave behind.

usage: python3 scripts/live_objects.py WORKLOAD

Compiles src/keypoly first, as perfbench/run.py does, so that the import
reads bytecode.  It compiles with ``force=True``: by default
``compileall`` skips a source whose cached bytecode records its mtime, so
a file edited and given back its old mtime keeps stale bytecode, which
the import then compiles afresh, and the count moves by the compiler's
own objects.  perfbench/run.py's compile has the same skip, so delete
src/keypoly/__pycache__ before each side of a perfbench comparison.

Then a fresh interpreter, with the collector off, imports ``keypoly`` and
``keypoly.cli`` from src/ and runs the workload once through
``perfbench/workloads.py`` at seed 1, and prints the net change in live
GC-tracked objects over each step as ``import I run R``.  The
lattice-n4 speed probe runs in the GC state the run leaves, so these two
counts tell whether a change to src/keypoly moved it (see ROADMAP.md).
"""

import argparse
import compileall
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# Read from stdin by a fresh interpreter, so that nothing this script
# imported is already loaded when keypoly is.
MEASURE = """
import gc, sys
gc.disable()
sys.path[:0] = ["src", "perfbench"]
c = gc.get_count()[0]
import keypoly, keypoly.cli
i = gc.get_count()[0] - c
import workloads
c = gc.get_count()[0]
workloads.run(keypoly, sys.argv[1], 1, sys.argv[2])
print("import", i, "run", gc.get_count()[0] - c)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description="live GC-tracked objects after import keypoly and one workload")
    parser.add_argument("workload", choices=workloads.NAMES)
    args = parser.parse_args()
    if not compileall.compile_dir(os.path.join(ROOT, "src", "keypoly"), quiet=1, force=True):
        print("live_objects: src/keypoly does not compile", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as outdir:
        command = [sys.executable, "-", args.workload, outdir]
        return subprocess.run(command, cwd=ROOT, input=MEASURE, text=True).returncode


if __name__ == "__main__":
    sys.exit(main())
