#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The build output goes to stderr, so the
last line of standard output is the benchmark's JSON result.  Every
argument is passed to perfbench/bench.exe; see perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def build():
    """Build bench.exe with dune, pinned to this checkout; True on success."""
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(3)
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
