#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and print each metric's spread.

    python3 qbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                             [--seconds S] [--trace]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric the table gives the median, the quartiles as
statistics.quantiles(values, n=4) computes them, and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. It also
prints each run's failed share, which must be identical across runs.

--trace also makes a traced run per seed and prints the per-layer medians
and the tracing overhead (traced end-to-end median / untraced - 1).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s\n%s" % (proc.returncode, " ".join(command),
                                                   proc.stdout))
    return json.loads(lines[-1]), lines[:-1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    for workload in args.workloads.split(","):
        values, traced, layers, shares = {}, {}, {}, []
        for seed in seeds:
            result, _ = run(workload, seed, args.seconds, False)
            shares.append("%d/%d" % (result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace:
                result, detail = run(workload, seed, args.seconds, True)
                for name, m in result["metrics"].items():
                    layers.setdefault(name, []).append((m["value"], m["unit"]))
                for line in detail:
                    match = re.match(r"traced end_to_end (\S+) = (\S+)", line)
                    if match:
                        traced.setdefault(match.group(1), []).append(float(match.group(2)))

        same_share = len({int(s.split("/")[0]) / int(s.split("/")[1]) for s in shares}) == 1
        print("%s: %d runs, seeds %d..%d, %g s each" %
              (workload, args.runs, seeds[0], seeds[-1], args.seconds))
        print("  failed/attempted per run: %s (%s)" %
              (" ".join(shares), "same share" if same_share else "SHARE DIFFERS"))
        print("  %-22s %14s %14s %14s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "spread/bound"))
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ratio = spread / bound if bound else float("nan")
            print("  %-22s %14.6g %14.6g %14.6g %8.4f %6.3g %.2f%s" %
                  (name, med, q1, q3, spread, bound, ratio,
                   "" if ratio < 1 / 3 else "  <-- above a third"))
        if args.trace:
            print("  tracing overhead (traced median / untraced median - 1):")
            for name, vals in traced.items():
                base = statistics.median(values[name])
                print("    %-22s %+.3f" % (name, statistics.median(vals) / base - 1))
            print("  per-layer medians over the traced runs:")
            for name, vals in layers.items():
                print("    %-36s %14.6g %s" %
                      (name, statistics.median(v for v, _ in vals), vals[0][1]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
