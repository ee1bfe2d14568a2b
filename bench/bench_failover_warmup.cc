// Failover warm-up bench: a primary replays the checked-in SkyServer
// sweep trace with a shared spill directory and checkpoints its cold
// tier; a standby that tailed the primary's manifest is promoted and
// replays the first N statements of the same trace. The gate is the
// warm-standby claim from the fleet tier: the standby's hit rate over
// those first N statements must be within RECYCLEDB_FAILOVER_TOL
// (default 10) percentage points of the primary's steady-state rate.
//
// Two phases:
//   primary  full-trace replay on the owning instance, then FlushCache
//            so every retained result is durable in the shared tier.
//   standby  promoted tailer, first-N replay served from the primary's
//            spills (adoption; nothing was ever cached hot here).
//
// Gates (exit 1 on failure): both replays reproduce the recorded
// digests, and the standby's warm-up hit rate clears the tolerance.
// JSON (RECYCLEDB_JSON_OUT): one row per phase plus a gate row.
//
// Env: RECYCLEDB_TRACE overrides the trace path, RECYCLEDB_WARMUP_N the
// warm-up window (default 50 statements).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace recycledb;
using namespace recycledb::bench;

namespace {

std::string MakeSpillDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl =
      std::string(base != nullptr ? base : "/tmp") + "/rdb-failover-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  RDB_CHECK_MSG(mkdtemp(buf.data()) != nullptr, "mkdtemp failed");
  return std::string(buf.data());
}

/// Fleet-configured engine over `spill_dir` with the recorded
/// photoprimary table rebuilt from the trace header's objects tag.
std::unique_ptr<Database> OpenInstance(const trace::Trace& t,
                                       const std::string& spill_dir,
                                       const std::string& instance) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = -1;
  options.recycler.spill_dir = spill_dir;
  options.recycler.cold_tier_capacity_bytes = 1ll << 30;
  options.recycler.shared_spill_dir = true;
  options.recycler.fleet_instance = instance;
  auto db = Database::OpenOrDie(options);
  auto it = t.header.tags.find("objects");
  const int64_t objects =
      it != t.header.tags.end() ? std::atoll(it->second.c_str()) : 8000;
  skyserver::Setup(objects, &db->catalog());
  return db;
}

/// Replays `t`, prints/records one summary row, stores the replayed hit
/// rate and returns whether the digests reproduced.
bool RunPhase(const char* phase, Database* db, const trace::Trace& t,
              JsonResultSink* sink, double* hit_rate) {
  trace::ReplayOptions options;
  // Reuse decisions legitimately differ across instances (the standby
  // adopts where the primary computed); only the results must match.
  options.strict_modes = false;
  options.check_plan_shape = false;
  options.hit_rate_tolerance_pts = 1000;  // gated against the primary below
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
  *hit_rate = report.replayed_hit_rate;
  std::printf("%-8s %5lld stmts %7.1f ms  hit%%=%5.1f  dig mism=%lld  %s\n",
              phase, static_cast<long long>(report.statements), ms,
              report.replayed_hit_rate,
              static_cast<long long>(report.digest_mismatches),
              report.ok() ? "ok" : "DIVERGED");
  if (!report.ok()) std::fprintf(stderr, "%s", report.ToString().c_str());
  sink->Add(JsonObject()
                .Set("bench", "failover_warmup")
                .Set("phase", phase)
                .Set("statements", report.statements)
                .Set("errors", report.errors)
                .Set("digest_mismatches", report.digest_mismatches)
                .Set("replayed_hit_rate", report.replayed_hit_rate)
                .Set("ms", ms)
                .Set("ok", static_cast<int64_t>(report.ok() ? 1 : 0)));
  return report.ok();
}

}  // namespace

int main() {
  const std::string path = EnvStr(
      "RECYCLEDB_TRACE",
      std::string(RDB_SOURCE_DIR) + "/tests/golden/skyserver_sweep.trace");
  const int64_t warmup_n = EnvInt("RECYCLEDB_WARMUP_N", 50);
  const double tolerance_pts =
      static_cast<double>(EnvInt("RECYCLEDB_FAILOVER_TOL", 10));

  trace::Trace t;
  Status st = trace::ReadTraceFile(path, &t);
  RDB_CHECK_MSG(st.ok(), st.ToString().c_str());
  PrintHeader(StrFormat(
      "failover warm-up: %s (%lld statements, warm-up window %lld)",
      path.c_str(), static_cast<long long>(t.NumStatements()),
      static_cast<long long>(warmup_n)));

  const std::string spill_dir = MakeSpillDir();
  JsonResultSink sink;
  bool ok = true;
  double primary_rate = 0;
  double standby_rate = 0;

  auto primary = OpenInstance(t, spill_dir, "primary");
  ok = RunPhase("primary", primary.get(), t, &sink, &primary_rate) && ok;
  // Demote every retained result so the standby can adopt it.
  primary->FlushCache();

  auto standby = OpenInstance(t, spill_dir, "standby");
  fleet::StandbyTailer tailer(standby.get(), {});
  RDB_CHECK_MSG(tailer.RefreshNow().ok(), "standby refresh failed");
  primary.reset();  // primary dies
  RDB_CHECK_MSG(tailer.Promote().ok(), "standby promote failed");

  trace::Trace warmup = t;
  if (static_cast<int64_t>(warmup.events.size()) > warmup_n) {
    warmup.events.resize(static_cast<size_t>(warmup_n));
  }
  ok = RunPhase("standby", standby.get(), warmup, &sink, &standby_rate) && ok;

  const bool warm = standby_rate >= primary_rate - tolerance_pts;
  std::printf("gate: standby %.1f%% vs primary %.1f%% (tol %.0f pts)  %s\n",
              standby_rate, primary_rate, tolerance_pts,
              warm ? "ok" : "COLD");
  sink.Add(JsonObject()
               .Set("bench", "failover_warmup")
               .Set("phase", "gate")
               .Set("primary_hit_rate", primary_rate)
               .Set("standby_hit_rate", standby_rate)
               .Set("tolerance_pts", tolerance_pts)
               .Set("ok", static_cast<int64_t>(warm ? 1 : 0)));
  ok = ok && warm;

  std::string json_path = sink.WriteEnvPath();
  if (!json_path.empty()) std::printf("json: %s\n", json_path.c_str());
  standby.reset();
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
  if (!ok) {
    std::fprintf(stderr, "FAIL: standby did not come up warm\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
