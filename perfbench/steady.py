#!/usr/bin/env python3
"""Steadiness tool for the recycledb benchmark.

Run one workload N times, each with another seed, and summarise every
metric by its median and quartiles:

    python3 perfbench/steady.py run --workload tpch-off --runs 10 --out a.json

Compare two such sets against the bounds in BENCHMARK.json (a metric
regresses when B's median is worse than A's by more than its bound):

    python3 perfbench/steady.py compare a.json b.json

`run` exits 1 when a run fails or a spread (interquartile range over the
median) exceeds its bound; `compare` exits 1 on a regression.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds(bench):
    return {m["name"]: (m["better"], m.get("bound")) for m in
            bench["end_to_end"] + bench["per_layer"]}


def summarize(runs):
    """{metric: [values...]} over the runs of one set."""
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def print_summary(values, limits):
    ok = True
    print("%-40s %12s %12s %12s %8s %8s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            q1 = q2 = q3 = vals[0]
            sp = 0.0
        else:
            q1, q2, q3 = benchstats.quartiles(vals)
            sp = benchstats.spread(vals)
        bound = limits.get(name, (None, None))[1]
        flag = ""
        if bound is not None and name != "setup_s":
            if sp > bound:
                flag, ok = "  OVER BOUND", False
            elif sp > bound / 3:
                flag = "  over bound/3"
        print("%-40s %12.6g %12.6g %12.6g %8.4f %8s%s" %
              (name, q1, q2, q3, sp, "-" if bound is None else bound, flag))
    return ok


def cmd_run(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("run with seed %d failed (exit %d)" % (seed,
                                                         proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        shown = list(result["metrics"].items())[:6]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in shown)), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "runs": runs}, f, indent=1)
    if runs:
        ok = print_summary(summarize(runs), bounds(bench)) and ok
    return 0 if ok else 1


def cmd_compare(args):
    limits = bounds(load_benchmark())
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    va, vb = summarize(a["runs"]), summarize(b["runs"])
    ok = True
    print("%-40s %12s %12s %9s %8s" % ("metric", "median A", "median B",
                                       "change", "bound"))
    for name in va:
        if name not in vb:
            continue
        better, bound = limits.get(name, ("lower", None))
        ma = benchstats.quartiles(va[name])[1]
        mb = benchstats.quartiles(vb[name])[1]
        change = 0.0 if ma == 0 else (mb - ma) / abs(ma)
        worse = change if better == "lower" else -change
        verdict = ""
        if bound is not None:
            if worse > bound:
                verdict, ok = "  REGRESSION", False
            else:
                verdict = "  ok"
        print("%-40s %12.6g %12.6g %+8.2f%% %8s%s" %
              (name, ma, mb, 100 * change, "-" if bound is None else bound,
               verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run one workload N times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0,
                     help="window length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out", help="write the runs to this JSON file")
    cmp_ = sub.add_parser("compare", help="compare two sets of runs")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args()
    sys.exit(cmd_run(args) if args.cmd == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
