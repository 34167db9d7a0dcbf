#!/usr/bin/env python3
"""A/B comparison of two checkouts on the serving-stack benchmark.

usage: python3 servebench/compare.py BASE NEW [--pairs 10] [--seed 100]
           [--seconds S] [--workloads a,b,...] [--trace 0|1] [--out FILE]

BASE and NEW are checkout roots (the same path twice measures one build
against itself, which is how the bounds in BENCHMARK.json are set). Each
pair runs both sides on the same seed, alternating which side goes first;
pair i uses seed --seed + i. Per workload and metric it prints each side's
median and quartiles and a verdict:

  better      NEW wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than BASE's interquartile spread
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  BASE's own spread is wider than the bound, and not every NEW
              run beats every BASE run
  same        none of the above

Per-layer metrics (--trace 1) have no bound; they get better/same only.
Spreads are interquartile distances as a share of the median. --out
writes every run's result line as JSON.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("compare: " + message, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    opts = {"pairs": 10, "seed": 100, "seconds": None, "workloads": None,
            "trace": "0", "out": None}
    sides = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a.startswith("--"):
            if i + 1 >= len(argv) or a[2:] not in opts:
                fail("bad option " + a)
            opts[a[2:]] = argv[i + 1]
            i += 2
        else:
            sides.append(os.path.abspath(a))
            i += 1
    if len(sides) != 2:
        fail("give two checkout roots: BASE NEW")
    opts["pairs"] = int(opts["pairs"])
    opts["seed"] = int(opts["seed"])
    return sides, opts


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "servebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s failed on %s seed %d (exit %d)" %
             (root, workload, seed, done.returncode))
    result = json.loads(lines[-1])
    # Every figure of the run, gated or not, from its summary line.
    result["reported"] = {}
    prefix = "servebench: %s seed %d" % (workload, seed)
    for line in done.stderr.splitlines():
        if line.startswith(prefix):
            for pair in line.split(":", 2)[2].split():
                name, _, value = pair.partition("=")
                result["reported"][name] = float(value)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    (base, new), opts = parse(sys.argv[1:])
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = opts["seconds"] or spec["run_seconds"]
    workloads = (opts["workloads"].split(",") if opts["workloads"]
                 else [w["name"] for w in spec["workloads"]])
    key = "end_to_end" if opts["trace"] == "0" else "per_layer"
    metrics = {m["name"]: m for m in spec[key]}

    results = {w: {"base": [], "new": []} for w in workloads}
    for p in range(opts["pairs"]):
        seed = opts["seed"] + p
        order = [("base", base), ("new", new)]
        if p % 2 == 1:
            order.reverse()
        for w in workloads:
            for side, root in order:
                results[w][side].append(
                    run(root, w, seed, seconds, opts["trace"]))
        print("pair %d/%d done" % (p + 1, opts["pairs"]), file=sys.stderr)
    if opts["out"]:
        with open(opts["out"], "w") as f:
            json.dump(results, f)

    header = "%-15s %-26s %-33s %-33s %5s  %s" % (
        "workload", "metric", "base q1/median/q3", "new q1/median/q3",
        "wins", "verdict")
    print(header)
    for w in workloads:
        fails = {s: sum(r["failed"] for r in results[w][s]) for s in results[w]}
        for name, m in metrics.items():
            b = [r["metrics"][name]["value"] for r in results[w]["base"]]
            n = [r["metrics"][name]["value"] for r in results[w]["new"]]
            lower = m["better"] == "lower"
            wins = sum(1 for x, y in zip(b, n) if (y < x if lower else y > x))
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            new_spread = (nq3 - nq1) / nmed if nmed else 0.0
            change = ((nmed - bmed) / bmed if bmed else 0.0) * (1 if lower else -1)
            bound = m.get("bound")
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if wins >= 0.9 * len(b) and abs(nmed - bmed) > (bq3 - bq1) and change < 0:
                verdict = "better"
            elif bound is not None and change > bound:
                verdict = "worse"
            elif bound is not None and spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            print("%-15s %-26s %-33s %-33s %2d/%-2d %s (spreads %.3f / %.3f, "
                  "change %+.3f)" % (
                      w, name,
                      "%.4g/%.4g/%.4g" % (bq1, bmed, bq3),
                      "%.4g/%.4g/%.4g" % (nq1, nmed, nq3),
                      wins, len(b), verdict, spread, new_spread, change))
        tried = {s: sum(r["attempted"] for r in results[w][s]) for s in results[w]}
        print("%-15s failed/attempted: base %d/%d, new %d/%d" %
              (w, fails["base"], tried["base"], fails["new"], tried["new"]))


if __name__ == "__main__":
    main()
