#!/usr/bin/env python3
"""Self-test of the simulator benchmark, in a short mode.

Run from the repository root:

    python3 perfbench/tests/selftest.py

It builds perfbench (like run.py) and checks, on tiny dataset scales:
  * bad input (unknown flag, malformed number, unknown workload) exits 2
    with a usage message and no result line;
  * simbench runs every workload BENCHMARK.json lists;
  * --trace 0 prints exactly the end-to-end metrics of BENCHMARK.json,
    and --trace 1 exactly the per-layer metrics, each with its unit;
  * two traced runs with the same seed repeat every count exactly;
  * stream and floating counters are zero on stride_bfs and nonzero on
    a stream workload;
  * an injected protocol bug (SF_VERIFY_BUG=stale-getu) on a stream
    workload is counted as a failed simulation, not a harness crash.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

# Units of host-time metrics; every other metric must repeat exactly.
HOST_UNITS = {"s", "ns", "1/s", "%"}
TINY = ["--seconds", "0.1", "--scale", "0.01"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(args, env=None):
    """Run run.py; return (exit code, stdout, stderr)."""
    p = subprocess.run([sys.executable, os.path.join(PERFBENCH, "run.py")]
                       + args, capture_output=True, text=True, env=env,
                       cwd=ROOT, timeout=300)
    return p.returncode, p.stdout, p.stderr


def result(args, env=None):
    code, out, err = bench(args, env)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err)
        raise SystemExit("simbench %s exited %d" % (args, code))
    return json.loads(lines[-1])


def main():
    if not run.build():
        raise SystemExit("build failed")
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]

    bad = [
        ["--workload", "stride_bfs", "--bogus", "1"],
        ["--workload", "stride_bfs", "--scael=0.5"],
        ["--workload", "no_such_workload"],
        ["--workload", "stride_bfs", "--seed", "12x"],
        ["--workload", "stride_bfs", "--seed", "-3"],
        ["--workload", "stride_bfs", "--seconds", "abc"],
        ["--workload", "stride_bfs", "--trace", "2"],
        ["--workload", "stride_bfs", "--scale", "0"],
        ["--workload"],
        ["--seed", "1"],
    ]
    for args in bad:
        code, out, err = bench(args)
        check(code == 2 and "usage:" in err and not out.strip(),
              "rejects %s with exit 2 and usage" % " ".join(args))

    code, out, _ = bench(["--help"])
    listed = out.split("one of:", 1)[1].splitlines()[0].split()
    check(set(names) <= set(listed),
          "simbench runs every workload of BENCHMARK.json")

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        r = result(["--workload", "stride_bfs", "--seed", "3",
                    "--trace", trace] + TINY)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        check(got == want, "--trace %s prints every %s metric with its unit"
              % (trace, key))
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
              "--trace %s run is correct with no failures" % trace)

    a = result(["--workload", "stride_bfs", "--seed", "5", "--trace", "1"]
               + TINY)["metrics"]
    b = result(["--workload", "stride_bfs", "--seed", "5", "--trace", "1"]
               + TINY)["metrics"]
    diff = [k for k, v in a.items()
            if v["unit"] not in HOST_UNITS and v["value"] != b[k]["value"]]
    check(not diff, "same seed repeats every count (differs: %s)" % diff)

    layered = ("stream.", "flt.")
    zero = [k for k, v in a.items() if k.startswith(layered) and v["value"]]
    check(not zero, "stream/flt counts are zero on stride_bfs")
    s = result(["--workload", "mesh8_pathfinder_t2", "--trace", "1"]
               + TINY)["metrics"]
    check(s["stream.floated_fetches"]["value"] > 0 and
          s["flt.sel2.data_arrived"]["value"] > 0,
          "stream/flt counts are nonzero on a stream workload")

    env = dict(os.environ, SF_VERIFY_BUG="stale-getu")
    r = result(["--workload", "mesh8_pathfinder_t2"] + TINY, env)
    check(not r["correct"] and r["failed"] >= 1 and
          r["metrics"]["pass_ratio"]["value"] < 1,
          "injected stale-getu bug is counted as a failed simulation")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
