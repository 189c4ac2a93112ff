#!/usr/bin/env python3
"""Steadiness check for the Camus benchmark.

Runs each workload once per seed and prints, per metric, the median, the
first and third quartiles and the spread: (Q3 - Q1) / median, quartiles
as Python's statistics.quantiles(values, n=4) gives them. Against each
end-to-end metric it prints the bound from BENCHMARK.json and whether the
spread is within it. Run from the root of the repository:

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --workloads itch-fanout --runs 5 --first-seed 101

Every run's JSON line is kept in .bench_build/steady/<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(".bench_build", "steady"), exist_ok=True)

    for w in args.workloads.split(","):
        results = []
        with open(os.path.join(".bench_build", "steady", w + ".jsonl"), "a") as log:
            for i in range(args.runs):
                seed = args.first_seed + i
                r = run_once(w, seed, args.seconds, args.trace)
                r["seed"] = seed
                log.write(json.dumps(r) + "\n")
                log.flush()
                results.append(r)
                print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                    w, seed, r["correct"], r["attempted"], r["failed"]), file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, all correct: %s, failed shares: %s" % (
            w, len(results), all(r["correct"] for r in results), shares))
        print("  %-36s %8s %14s %14s %14s %8s %6s %s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound", "ok"))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 else None
            ok = "" if bound is None else ("yes" if spread <= bound else "NO")
            print("  %-36s %8s %14.4f %14.4f %14.4f %8.3f %6s %s" % (
                name, unit, med, q1, q3, spread, "" if bound is None else bound, ok))


if __name__ == "__main__":
    main()
