#!/usr/bin/env python3
"""Build the simulator benchmark from this checkout and run it.

Usage (from the checkout root):

    python3 simbench/run.py --workload cold_compressed --seed 1 \
        --seconds 15 --trace 0

Every argument is passed on to the simbench binary (see main.cc).
The binary and the simulator libraries are built with CMake into
$CARGO_TARGET_DIR/simbench (default .bench_build/simbench); build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. A failed build exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark itself must finish well inside the 180 s run limit.
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "simbench")


def build(target="simbench"):
    """Configure (once) and build @target; returns its path or None."""
    if shutil.which("cmake") is None:
        print("simbench: cmake not found", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("simbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def main(argv):
    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--root", ROOT] + argv
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("simbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
