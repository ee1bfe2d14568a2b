// Trace-replay smoke bench: replays the checked-in SkyServer sweep trace
// (tests/golden/skyserver_sweep.trace) against a freshly built engine
// and gates that the recycler still reproduces the recording.
//
// Two phases:
//   single   faithful single-stream replay — digests, reuse modes and
//            post-rewrite plan shapes must match the recording exactly.
//   conc4    4 concurrent copies of the statement sequence through the
//            workload driver — digests stay strict; the aggregate hit
//            rate may not fall more than RECYCLEDB_HIT_TOL (default 2)
//            percentage points below the recorded rate.
//
// Gates (exit 1 on failure): both phases' replay reports come back ok.
// JSON (RECYCLEDB_JSON_OUT): one row per phase with statement counts,
// mismatch counters and recorded/replayed hit rates.
//
// Env: RECYCLEDB_TRACE overrides the trace path (a trace captured from a
// bug report replays the same way — see docs/testing.md).
#include <cstdio>
#include <string>

#include "bench_util.h"

using namespace recycledb;
using namespace recycledb::bench;

namespace {

/// Replays `t` under `options`, prints/records one summary row and
/// returns whether the report gated ok.
bool RunPhase(const char* phase, Database* db, const trace::Trace& t,
              const trace::ReplayOptions& options, JsonResultSink* sink) {
  trace::TraceReplayer replayer(db, options);
  trace::ReplayReport report;
  Stopwatch sw;
  Status st = replayer.Replay(t, &report);
  const double ms = sw.ElapsedMs();
  if (!st.ok()) {
    std::fprintf(stderr, "%s: replay error: %s\n", phase,
                 st.ToString().c_str());
    return false;
  }
  std::printf("%-8s %5lld stmts %7.1f ms  hit%% rec=%5.1f rep=%5.1f"
              "  mism dig=%lld mode=%lld plan=%lld  %s\n",
              phase, static_cast<long long>(report.statements), ms,
              report.recorded_hit_rate, report.replayed_hit_rate,
              static_cast<long long>(report.digest_mismatches),
              static_cast<long long>(report.mode_mismatches),
              static_cast<long long>(report.plan_mismatches),
              report.ok() ? "ok" : "DIVERGED");
  if (!report.ok()) std::fprintf(stderr, "%s", report.ToString().c_str());
  sink->Add(JsonObject()
                .Set("bench", "trace_replay")
                .Set("phase", phase)
                .Set("statements", report.statements)
                .Set("errors", report.errors)
                .Set("digest_mismatches", report.digest_mismatches)
                .Set("mode_mismatches", report.mode_mismatches)
                .Set("plan_mismatches", report.plan_mismatches)
                .Set("recorded_hit_rate", report.recorded_hit_rate)
                .Set("replayed_hit_rate", report.replayed_hit_rate)
                .Set("ms", ms)
                .Set("ok", static_cast<int64_t>(report.ok() ? 1 : 0)));
  return report.ok();
}

/// Fresh engine in the deterministic configuration the trace was
/// recorded under, with the recorded photoprimary table rebuilt from the
/// trace header's objects tag.
std::unique_ptr<Database> RebuildEngine(const trace::Trace& t) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = -1;
  options.recycler.capture_plan_explain = true;
  auto db = Database::OpenOrDie(options);
  auto it = t.header.tags.find("objects");
  const int64_t objects =
      it != t.header.tags.end() ? std::atoll(it->second.c_str()) : 8000;
  // Default data seed: the header's seed drove the sweep's query
  // generation, not the catalog build.
  skyserver::Setup(objects, &db->catalog());
  return db;
}

}  // namespace

int main() {
  const std::string path = EnvStr(
      "RECYCLEDB_TRACE",
      std::string(RDB_SOURCE_DIR) + "/tests/golden/skyserver_sweep.trace");
  const double tolerance_pts =
      static_cast<double>(EnvInt("RECYCLEDB_HIT_TOL", 2));

  trace::Trace t;
  Status st = trace::ReadTraceFile(path, &t);
  RDB_CHECK_MSG(st.ok(), st.ToString().c_str());
  PrintHeader(StrFormat(
      "trace replay: %s (%lld statements, recorded hit rate %.1f%%)",
      path.c_str(), static_cast<long long>(t.NumStatements()),
      t.HitRate() * 100.0));

  JsonResultSink sink;
  bool ok = true;
  {
    auto db = RebuildEngine(t);
    trace::ReplayOptions options;  // strict single-stream defaults
    ok = RunPhase("single", db.get(), t, options, &sink) && ok;
  }
  {
    auto db = RebuildEngine(t);
    trace::ReplayOptions options;
    options.concurrency = 4;
    options.strict_modes = false;
    options.check_plan_shape = false;
    options.hit_rate_tolerance_pts = tolerance_pts;
    ok = RunPhase("conc4", db.get(), t, options, &sink) && ok;
  }

  std::string json_path = sink.WriteEnvPath();
  if (!json_path.empty()) std::printf("json: %s\n", json_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAIL: replay diverged from the recorded trace\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
