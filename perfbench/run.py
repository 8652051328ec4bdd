#!/usr/bin/env python3
"""Repository benchmark: build the harvest library and the benchmark program
from source, then run one workload and print its result as a JSON line.

usage: python3 perfbench/run.py --workload <name> [--seed n] [--seconds s]
                                [--trace 0|1]
       python3 perfbench/run.py --self-test

Run it from the root of a checkout. Builds go to $CARGO_TARGET_DIR when
set (relative paths are taken from the checkout root), else .bench_build/.
Build output goes to stderr; the last line of stdout is the result. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_sweep", "pool_contended", "pool_park", "daemon_plan")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def sh(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def configure(src, out, defines):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        sh(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
           + ["-D%s=%s" % kv for kv in defines])


def build(targets):
    """Build the library (through harvestd) and the benchmark targets."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no harvest sources under %s" % ROOT)
    jobs = str(os.cpu_count() or 1)
    lib = os.path.join(build_dir(), "harvest")
    configure(ROOT, lib, [("HARVEST_BUILD_TESTS", "OFF"),
                          ("HARVEST_BUILD_BENCH", "OFF"),
                          ("HARVEST_BUILD_EXAMPLES", "ON")])
    sh(["cmake", "--build", lib, "--target", "harvestd", "-j", jobs])
    bench = os.path.join(build_dir(), "perfbench")
    configure(os.path.join(ROOT, "perfbench"), bench,
              [("HARVEST_ROOT", ROOT), ("HARVEST_BUILD", lib)])
    sh(["cmake", "--build", bench, "--target"] + targets + ["-j", jobs])
    return lib, bench


def main():
    ap = argparse.ArgumentParser(
        description="harvest repository benchmark (see perfbench/README.md)",
        allow_abbrev=False)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="workload to run")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; the inputs derive from it")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics instead of end-to-end")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.self_test == (args.workload is not None):
        ap.error("give exactly one of --workload or --self-test")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        if args.self_test:
            _, bench = build(["perfbench_selftest"])
            return subprocess.run(
                [os.path.join(bench, "perfbench_selftest")]).returncode
        lib, bench = build(["perfbench"])
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [os.path.join(bench, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--harvestd", os.path.join(lib, "examples", "harvestd")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
