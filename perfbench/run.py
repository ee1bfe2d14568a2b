#!/usr/bin/env python3
"""Runs one recycledb benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) under
.bench_build/ in the checkout, runs it, and prints one line per metric
followed by a final JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (NOTES.md lists both). Exits 0 when every
statement succeeded and the recycler-bypass oracle judged no checked
result wrong, 1 otherwise; prints no result when the build or the binary
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

BENCH_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; returns its path."""
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "recycledb_bench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "recycledb_bench")


def read_spans(path):
    with open(path) as f:
        for line in f:
            yield json.loads(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="tpch-off, tpch-recycle, sky-explore or "
                             "rollup-appends (NOTES.md)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    workdir = os.path.join(ROOT, ".bench_build", "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("benchmark binary timed out")
    result_path = os.path.join(workdir, "result.json")
    if proc.returncode not in (0, 3) or not os.path.exists(result_path):
        shutil.rmtree(workdir, ignore_errors=True)
        fail("benchmark binary failed with exit code %d" % proc.returncode)
    with open(result_path) as f:
        raw = json.load(f)

    if args.trace:
        spans_path = os.path.join(ROOT, ".bench_build", "spans",
                                  args.workload + ".jsonl")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        shutil.move(raw["spans"], spans_path)
        metrics = benchstats.per_layer(raw, read_spans(spans_path))
        listed = benchstats.PER_LAYER
    else:
        metrics = benchstats.end_to_end(raw)
        listed = benchstats.END_TO_END
    shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = benchstats.failures(raw)
    oracles = [raw[k] for k in ("oracle", "traced_oracle") if k in raw]
    checked = sum(o["checked"] for o in oracles)
    inexact = sum(o["inexact"] for o in oracles)
    for o in oracles:
        for detail in o["details"]:
            print("oracle mismatch: " + detail[:300], file=sys.stderr)
    window = raw["window"]
    for err in window["errors"]:
        print("statement failed: " + err[:300], file=sys.stderr)

    n = len(window["latency_ms"])
    print("workload %s seed %d: %d statements in the window, %d latency "
          "samples (highest percentile with 10 beyond: p%s)"
          % (args.workload, args.seed, window["attempted"], n,
             benchstats.highest_supported_percentile(n)))
    if n < 1000:
        print("warning: fewer than 1000 samples; latency_p99_ms has fewer "
              "than 10 beyond it", file=sys.stderr)
    mismatches = sum(o["mismatches"] for o in oracles)
    print("oracle: %d sampled results checked against bypass: %d "
          "bit-identical, %d equal up to floating-point summation order, "
          "%d wrong" % (checked, checked - inexact - mismatches, inexact,
                        mismatches))
    print("%-40s %14.6g %s" % ("failed_frac", failed / attempted, "frac"))
    if window["append_ms"] and not args.trace:
        print("%-40s %14.6g %s" % (
            "append_p50_ms", benchstats.percentile(window["append_ms"], 50),
            "ms"))
    for name, unit, _ in listed:
        print("%-40s %14.6g %s" % (name, metrics[name], unit))

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in listed},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
