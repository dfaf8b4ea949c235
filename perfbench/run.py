#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the simulator libraries
plus the simbench driver) into .bench_build/perfbench; later calls only
re-check the build. All arguments go to simbench, which validates them
strictly (an unknown flag, malformed number or unknown workload prints
usage and exits 2) and prints the result as the last line of stdout.
With --trace 1 the recorded spans are written to
.bench_build/perfbench/traces/<workload>-seed<N>.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "simbench")


def build():
    """Configure (once) and build simbench; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            # A failed configure must not leave a cache that skips it
            # next time.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "simbench", "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, env=env) == 0


def trace_path(args):
    """The trace file for a --trace 1 call, or None."""
    opts = {}
    it = iter(args)
    for a in it:
        if "=" in a:
            k, v = a.split("=", 1)
        else:
            k, v = a, next(it, "")
        opts[k] = v
    if opts.get("--trace") != "1" or "--trace-out" in opts:
        return None
    name = "%s-seed%s.json" % (opts.get("--workload", "unknown"),
                               opts.get("--seed", "1"))
    return os.path.join(BUILD, "traces", name)


def main(argv):
    if not build():
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    args = list(argv)
    out = trace_path(args)
    if out:
        os.makedirs(os.path.dirname(out), exist_ok=True)
        args += ["--trace-out", out]
    return subprocess.call([BINARY] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
