#!/usr/bin/env python3
"""Repeat workloads over several seeds and print each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--workloads protect,scan,serve]
        [--seconds S] [--trace 0|1] [--first-seed 1]

Run from the root of a checkout.  Each run goes through perfbench/run.py
with its own seed.  For every workload and metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json; it also prints the share of failed operations per run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values, shares, ok = {}, set(), True
        for i in range(args.runs):
            seed = args.first_seed + i
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, r.returncode))
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            shares.add("%d/%d" % (res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s: %d runs, correct=%s, failed/attempted per run: %s"
              % (workload, args.runs, ok, " ".join(sorted(shares))))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("  %-26s median %12.4g  q1 %12.4g  q3 %12.4g  spread %6.3f%s%s"
                  % (name, med, q1, q3, spread,
                     "" if bound is None else "  bound %.2f" % bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
