#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload protect|scan|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The driver and the lwm libraries are
built from source into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the first run builds, later runs only re-check.
Build output goes to stderr.  The driver's stdout passes through unchanged,
so the last line is the result JSON.  A failed build exits non-zero
without printing a result.
"""
import argparse
import fcntl
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    binary_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", binary_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", binary_dir, "-j", jobs]]
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
                return None
    return os.path.join(binary_dir, "lwm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["protect", "scan", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           # Relative, so the serve socket path stays under the AF_UNIX limit.
           "--work-dir", os.path.relpath(build_dir)]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    start = time.monotonic()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    print("perfbench: run took %.1f s" % (time.monotonic() - start), file=sys.stderr)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
