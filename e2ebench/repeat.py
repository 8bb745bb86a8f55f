#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark several times and prints
each metric's median, quartiles and spread (quartile distance over median).

    python3 e2ebench/repeat.py --workload stats-ceb-e2e --runs 10
    python3 e2ebench/repeat.py --workload serve-refresh --runs 10 \
        --out .bench_out/serve-new.json --baseline .bench_out/serve-old.json

Run i uses seed first_seed + i. With --baseline (a file written by --out on
another commit) it also prints each median's change against the baseline's,
next to the metric's bound from BENCHMARK.json. Quartiles are Python's
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run with seed %d failed (exit %d)" % (seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("run with seed %d reported incorrect output:\n%s"
                 % (seed, proc.stdout))
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    values, failed_shares = {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items()
            if not n.startswith("setup.train"))), flush=True)

    summary = {name: summarize(v) for name, v in values.items()}
    base = {}
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["metrics"]
    spec = bounds()
    print("\n%-34s %14s %14s %14s %8s %8s %9s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "vs base"))
    for name, s in summary.items():
        bound = spec.get(name, {}).get("bound")
        change = ""
        if name in base and base[name]["median"]:
            change = "%+.2f%%" % (100 * (s["median"] / base[name]["median"] - 1))
        print("%-34s %14.6g %14.6g %14.6g %7.2f%% %8s %9s" % (
            name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
            "" if bound is None else "%.0f%%" % (100 * bound), change))
    print("failed share per run: %s" % sorted(set(failed_shares)))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "metrics": summary}, f,
                      indent=1)


if __name__ == "__main__":
    main()
