"""Arithmetic of the recycledb benchmark.

Percentiles, quartiles, span self time, and the reduction of one benchmark
result (result.json plus, for traced runs, spans.jsonl) to the metrics
BENCHMARK.json lists. Standard library only.
"""

import math
import statistics

MIB = float(1 << 20)

# (name, unit, better). BENCHMARK.json must list exactly these;
# test_benchstats.py checks it.
END_TO_END = [
    ("qps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("cpu_ms_per_query", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

OP_TYPES = ["Scan", "FunctionScan", "Select", "Project", "Aggregate",
            "HashJoin", "OrderBy", "TopN", "Limit", "UnionAll", "CachedScan",
            "unattributed"]

# Reuse modes as QueryTrace names them, keyed by the metric suffix.
REUSE_MODES = [("exact", "exact"), ("subsumption", "subsumption"),
               ("stitch", "partial-stitch"), ("cold_readmit", "cold-readmit"),
               ("delta", "delta"), ("agg_merge", "agg-merge")]

PER_LAYER = (
    [("sql.parse_us", "us", "lower"),
     ("sql.lower_us", "us", "lower"),
     ("api.validate_us", "us", "lower"),
     ("api.append_ms", "ms", "lower"),
     ("append_p50_ms", "ms", "lower"),
     ("plan.canonicalize_us", "us", "lower"),
     ("recycler.overhead_ms", "ms", "lower"),
     ("recycler.match_ms", "ms", "lower"),
     ("recycler.stall_ms", "ms", "lower"),
     ("recycler.stalls_per_query", "count", "lower"),
     ("recycler.reuse_rate", "frac", "higher")]
    + [("recycler.mode.%s_frac" % m, "frac", "higher") for m, _ in REUSE_MODES]
    + [("recycler.materializations_per_query", "count", "lower"),
       ("recycler.reuses_per_materialization", "count", "higher"),
       ("recycler.spec_abort_ratio", "frac", "lower"),
       ("recycler.evictions", "count", "lower"),
       ("recycler.graph_nodes", "count", "lower"),
       ("recycler.cached_mb", "MiB", "lower"),
       ("exec.ms", "ms", "lower")]
    + [("exec.op.%s.self_ms" % op, "ms", "lower") for op in OP_TYPES]
    + [("exec.rows_out_per_query", "count", "lower"),
       ("storage.blocks_pruned_frac", "frac", "higher"),
       ("storage.blocks_scanned_per_query", "count", "lower"),
       ("cold_tier.hits_per_query", "count", "higher"),
       ("cold_tier.slice_loads", "count", "higher"),
       ("cold_tier.spills", "count", "lower"),
       ("cold_tier.load_errors", "count", "lower"),
       ("cold_tier.stored_per_raw_byte", "ratio", "lower"),
       ("cold_tier.used_mb", "MiB", "lower"),
       ("cold_tier.pending_spills_end", "count", "lower"),
       ("delta.hit_frac", "frac", "higher"),
       ("delta.agg_merge_frac", "frac", "higher"),
       ("delta.invalidations_per_append", "count", "lower"),
       ("proc.cpu_util", "cores", "higher"),
       ("proc.minflt_per_query", "count", "lower"),
       ("proc.warmup_s", "s", "lower"),
       ("proc.warmup_cpu_util", "cores", "higher"),
       ("bench.tracing_overhead_frac", "frac", "lower")])

SPAN_LAYERS = {
    "sql.Parse": "sql.parse",
    "sql.LowerSelect": "sql.lower",
    "api.ValidatePlan": "api.validate",
    "api.ToPlan": "api.validate",
    "api.AppendTable": "api.append",
    "plan.CanonicalizePlan": "plan.canonicalize",
}


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    before the ceiling so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def highest_supported_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0, 50.0)):
    """Highest candidate percentile with at least ten samples beyond it,
    or None when even the lowest has fewer."""
    for p in candidates:
        if samples_beyond(n, p) >= 10:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return 0.0 if q2 == 0 else (q3 - q1) / abs(q2)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Maps span id -> its duration minus the part of its interval that
    its child spans cover (children clipped to the parent)."""
    children = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def per_second(window):
    """(reads completed, process CPU seconds) in each whole second of a
    timed window."""
    marks = window["cpu_marks_s"]
    reads = [0] * len(marks)
    for t in window["done_s"]:
        if int(t) < len(reads):
            reads[int(t)] += 1
    cpu = [b - a for a, b in zip([0.0] + marks[:-1], marks)]
    return reads, cpu


def end_to_end(raw):
    """End-to-end metrics of the untraced window: {name: value}.
    Throughput and CPU per query are medians over the window's seconds,
    so a burst of outside load moves them less than a window average."""
    w = raw["window"]
    reads, cpu = per_second(w)
    return {
        "qps": _median(reads),
        "latency_p50_ms": percentile(w["latency_ms"], 50),
        "latency_p99_ms": percentile(w["latency_ms"], 99),
        "cpu_ms_per_query": _median([1000.0 * c / n
                                     for c, n in zip(cpu, reads) if n]),
        "peak_rss_mb": w["peak_rss_kib"] / 1024.0,
        "setup_s": _median(raw["setup_s"]),
    }


def failures(raw):
    """(attempted, failed) over the timed windows and check phases:
    statements that errored plus checked results the oracle judged
    wrong."""
    attempted = failed = 0
    for phase in ("window", "check", "traced_window", "traced_check"):
        if phase in raw:
            attempted += raw[phase]["attempted"]
            failed += raw[phase]["failed"]
    for oracle in ("oracle", "traced_oracle"):
        if oracle in raw:
            failed += raw[oracle]["mismatches"]
    return attempted, failed


def _delta(window, key):
    return window["counters_after"][key] - window["counters_before"][key]


def _requests(spans):
    """Groups a span stream into lists of consecutive spans that share a
    request id (the benchmark writes each request's spans together)."""
    group = []
    for s in spans:
        if group and s["request"] != group[0]["request"]:
            yield group
            group = []
        group.append(s)
    if group:
        yield group


def per_layer(raw, spans):
    """Per-layer metrics of a traced run: {name: value}. `spans` is an
    iterable of span dicts in file order. Span-derived values come from
    the traced window; process metrics and append_p50_ms from the
    untraced one."""
    tw = raw["traced_window"]
    uw = raw["window"]
    layer_ns = {}    # layer -> [total self ns, calls]
    ex = {"n": 0, "overhead_ms": 0.0, "exec_ms": 0.0, "match_ms": 0.0,
          "stall_ms": 0.0, "stalls": 0, "reused": 0, "rows_out": 0,
          "blocks_scanned": 0, "blocks_pruned": 0}
    modes = {}
    ops = {}
    for group in _requests(spans):
        selfs = self_times(group)
        for s in group:
            layer = SPAN_LAYERS.get(s["name"])
            if layer is not None:
                acc = layer_ns.setdefault(layer, [0, 0])
                acc[0] += selfs[s["id"]]
                acc[1] += 1
            a = s.get("attrs")
            if a is None:
                continue
            ex["n"] += 1
            ex["overhead_ms"] += (s["end"] - s["start"]) * 1e-6 - a["exec_ms"]
            for key in ("exec_ms", "match_ms", "stall_ms", "stalls",
                        "rows_out", "blocks_scanned", "blocks_pruned"):
                ex[key] += a[key]
            ex["reused"] += a["reuses"] > 0
            modes[a["reuse_mode"]] = modes.get(a["reuse_mode"], 0) + 1
            for op, ms in a["op_self_ms"].items():
                ops[op] = ops.get(op, 0.0) + ms

    def mean_self(layer, scale):
        total, calls = layer_ns.get(layer, (0, 0))
        return _ratio(total, calls) * scale

    n = ex["n"]
    queries = _delta(tw, "queries")
    mats = _delta(tw, "materializations")
    aborts = _delta(tw, "spec_aborts")
    appends = len(tw["append_ms"])
    cold = tw["cold_after"]
    m = {
        "sql.parse_us": mean_self("sql.parse", 1e-3),
        "sql.lower_us": mean_self("sql.lower", 1e-3),
        "api.validate_us": mean_self("api.validate", 1e-3),
        "api.append_ms": mean_self("api.append", 1e-6),
        "append_p50_ms": (percentile(uw["append_ms"], 50)
                          if uw["append_ms"] else 0.0),
        "plan.canonicalize_us": mean_self("plan.canonicalize", 1e-3),
        "recycler.overhead_ms": _ratio(ex["overhead_ms"], n),
        "recycler.match_ms": _ratio(ex["match_ms"], n),
        "recycler.stall_ms": _ratio(ex["stall_ms"], n),
        "recycler.stalls_per_query": _ratio(ex["stalls"], n),
        "recycler.reuse_rate": _ratio(ex["reused"], n),
    }
    for suffix, mode in REUSE_MODES:
        m["recycler.mode.%s_frac" % suffix] = _ratio(modes.get(mode, 0), n)
    m.update({
        "recycler.materializations_per_query": _ratio(mats, queries),
        "recycler.reuses_per_materialization": _ratio(
            _delta(tw, "reuses"), mats),
        "recycler.spec_abort_ratio": _ratio(aborts, mats + aborts),
        "recycler.evictions": _delta(tw, "evictions"),
        "recycler.graph_nodes": tw["graph_after"]["num_nodes"],
        "recycler.cached_mb": tw["graph_after"]["cached_bytes"] / MIB,
        "exec.ms": _ratio(ex["exec_ms"], n),
    })
    for op in OP_TYPES:
        m["exec.op.%s.self_ms" % op] = _ratio(ops.get(op, 0.0), n)
    scanned, pruned = ex["blocks_scanned"], ex["blocks_pruned"]
    m.update({
        "exec.rows_out_per_query": _ratio(ex["rows_out"], n),
        "storage.blocks_pruned_frac": _ratio(pruned, pruned + scanned),
        "storage.blocks_scanned_per_query": _ratio(scanned, n),
        "cold_tier.hits_per_query": _ratio(_delta(tw, "cold_hits"), queries),
        "cold_tier.slice_loads": _delta(tw, "cold_slice_loads"),
        "cold_tier.spills": _delta(tw, "cold_spills"),
        "cold_tier.load_errors": _delta(tw, "cold_load_errors"),
        "cold_tier.stored_per_raw_byte": _ratio(cold["used_bytes"],
                                                cold["raw_bytes"]),
        "cold_tier.used_mb": cold["used_bytes"] / MIB,
        "cold_tier.pending_spills_end": cold["pending_spills"],
        "delta.hit_frac": _ratio(_delta(tw, "delta_hits"), queries),
        "delta.agg_merge_frac": _ratio(_delta(tw, "agg_merges"),
                                       _delta(tw, "delta_hits")),
        "delta.invalidations_per_append": _ratio(
            _delta(tw, "invalidations"), appends),
        "proc.cpu_util": uw["cpu_s"] / uw["wall_s"],
        "proc.minflt_per_query": uw["minflt"] / uw["reads"],
        "proc.warmup_s": raw["warmup"]["wall_s"],
        "proc.warmup_cpu_util": _ratio(raw["warmup"]["cpu_s"],
                                       raw["warmup"]["wall_s"]),
        "bench.tracing_overhead_frac": 1.0 - _ratio(
            tw["reads"] / tw["wall_s"], uw["reads"] / uw["wall_s"]),
    })
    return m
