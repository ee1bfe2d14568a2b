// Concurrent query streams at scale (Fig. 7 companion): aggregate
// throughput, latency percentiles, and reuse rates for 1/2/4/8/16
// concurrent streams through ONE shared recycler, in all four modes.
//
// Where bench_fig7_throughput reports the paper's per-stream evaluation
// time at a fixed execution bound (12), this bench scales the execution
// bound WITH the stream count: it measures how the recycler's sharded
// locking and cross-stream reuse turn extra concurrency into aggregate
// queries/sec. Expected shape: in OFF mode throughput scales with the
// streams up to the core count (the streams share no work, only the
// engine, so each core runs its own); in SPEC/PA it rises further with
// streams because parameter collisions across streams turn into cache
// hits.
//
// Gates (exit 1): SPEC throughput must increase from 1 to 8 streams, and
// OFF throughput at g streams must reach at least half of linear scaling,
// qps(g) >= 0.5 * g * qps(1), where g is the largest swept count <=
// min(4, nproc). Before the sweep, OFF passes at g streams run untimed
// for a fixed 2 s: on a 4-vCPU VM whose vCPUs had been idle, the first
// ~1 s of multi-threaded load ran serialized (1.0x at 4 streams, for the
// engine before and after the flat hash tables alike), which measures the
// host, not the engine.
//
// Env knobs (all optional):
//   RECYCLEDB_SF            TPC-H scale factor (default 0.02)
//   RECYCLEDB_STREAMS_MAX   cap on the stream counts swept (default 16)
//   RECYCLEDB_WORKLOAD      "tpch" (default) or "sky"
//   RECYCLEDB_SKY_QUERIES   queries per SkyServer stream (default 25)
//   RECYCLEDB_JSON_OUT      path for the machine-readable JSON results
#include <algorithm>
#include <thread>

#include "bench_util.h"

using namespace recycledb;
using namespace recycledb::bench;

int main() {
  const std::string workload = EnvStr("RECYCLEDB_WORKLOAD", "tpch");
  const int64_t max_streams = EnvInt("RECYCLEDB_STREAMS_MAX", 16);
  double sf = tpch::ScaleFromEnv(0.02);
  const int sky_queries =
      static_cast<int>(EnvInt("RECYCLEDB_SKY_QUERIES", 25));

  Catalog catalog;
  if (workload == "sky") {
    skyserver::Setup(skyserver::ObjectsFromEnv(), &catalog);
  } else {
    tpch::Generate(sf, &catalog);
  }

  PrintHeader(StrFormat(
      "Concurrent streams: aggregate throughput, %s workload%s",
      workload.c_str(),
      workload == "sky" ? "" : StrFormat(" (SF=%.3f)", sf).c_str()));
  std::printf("%5s %8s %9s %9s %9s %9s %8s %7s %7s %7s\n", "mode", "streams",
              "wall(ms)", "qps", "avg(ms)", "p95(ms)", "reuse%", "reuses",
              "mats", "stalls");

  const RecyclerMode modes[] = {RecyclerMode::kOff, RecyclerMode::kHistory,
                                RecyclerMode::kSpeculation,
                                RecyclerMode::kProactive};
  JsonResultSink json;
  double spec_qps_1 = 0, spec_qps_8 = 0;
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  int off_gate_streams = 1;
  while (off_gate_streams * 2 <= std::min<int64_t>({4, cores, max_streams})) {
    off_gate_streams *= 2;
  }
  double off_qps_1 = 0, off_qps_gate = 0;

  {
    auto db = MakeDatabase(catalog, RecyclerMode::kOff);
    workload::DriverOptions options;
    options.max_concurrent = off_gate_streams;
    Stopwatch warmup;
    while (warmup.ElapsedMs() < 2000) {
      workload::WorkloadDriver driver(&db->recycler(), options);
      driver.Run(workload == "sky"
                     ? skyserver::MakeStreams(off_gate_streams, sky_queries)
                     : tpch::MakeStreams(off_gate_streams, sf));
    }
  }

  for (RecyclerMode mode : modes) {
    for (int streams : {1, 2, 4, 8, 16}) {
      if (streams > max_streams) continue;
      auto db = MakeDatabase(catalog, mode);
      workload::DriverOptions options;
      options.max_concurrent = streams;  // execution bound scales along
      workload::WorkloadDriver driver(&db->recycler(), options);
      workload::RunReport report = driver.Run(
          workload == "sky" ? skyserver::MakeStreams(streams, sky_queries)
                            : tpch::MakeStreams(streams, sf));

      double qps = report.QueriesPerSec();
      double avg_ms =
          report.TotalQueries() == 0
              ? 0.0
              : report.TotalQueryMs() /
                    static_cast<double>(report.TotalQueries());
      std::printf(
          "%5s %8d %9.1f %9.2f %9.2f %9.2f %7.1f%% %7lld %7lld %7lld\n",
          RecyclerModeName(mode), streams, report.wall_ms, qps, avg_ms,
          report.LatencyPercentileMs(95), 100.0 * report.ReuseRate(),
          static_cast<long long>(report.TotalReuses()),
          static_cast<long long>(report.TotalMaterializations()),
          static_cast<long long>(report.TotalStalls()));
      std::fflush(stdout);

      json.Add(JsonObject()
                   .Set("bench", "concurrent_streams")
                   .Set("workload", workload)
                   .Set("mode", RecyclerModeName(mode))
                   .Set("streams", streams)
                   .Set("queries", report.TotalQueries())
                   .Set("wall_ms", report.wall_ms)
                   .Set("qps", qps)
                   .Set("avg_ms", avg_ms)
                   .Set("p50_ms", report.LatencyPercentileMs(50))
                   .Set("p95_ms", report.LatencyPercentileMs(95))
                   .Set("p99_ms", report.LatencyPercentileMs(99))
                   .Set("reuse_rate", report.ReuseRate())
                   .Set("reuses", report.TotalReuses())
                   .Set("subsumption_reuses",
                        static_cast<int64_t>(
                            db->counters().subsumption_reuses.load()))
                   .Set("materializations", report.TotalMaterializations())
                   .Set("stalls", report.TotalStalls()));

      if (mode == RecyclerMode::kOff) {
        if (streams == 1) off_qps_1 = qps;
        if (streams == off_gate_streams) off_qps_gate = qps;
      }
      if (mode == RecyclerMode::kSpeculation) {
        if (streams == 1) spec_qps_1 = qps;
        if (streams == 8) spec_qps_8 = qps;
      }
    }
  }

  std::string json_path = json.WriteEnvPath();
  if (!json_path.empty()) {
    std::printf("\nJSON results written to %s\n", json_path.c_str());
  }

  bool ok = true;
  if (off_qps_1 > 0 && off_qps_gate > 0) {
    const double need = 0.5 * off_gate_streams * off_qps_1;
    const bool off_ok = off_qps_gate >= need;
    std::printf(
        "\nOFF aggregate throughput 1 -> %d streams: %.2f -> %.2f qps "
        "(%.2fx, gate >= %.2f qps) %s\n",
        off_gate_streams, off_qps_1, off_qps_gate, off_qps_gate / off_qps_1,
        need, off_ok ? "[OK: scales]" : "[FAIL: below half-linear scaling]");
    ok = ok && off_ok;
  }
  if (spec_qps_1 > 0 && spec_qps_8 > 0) {
    std::printf(
        "\nSPEC aggregate throughput 1 -> 8 streams: %.2f -> %.2f qps "
        "(%.2fx) %s\n",
        spec_qps_1, spec_qps_8, spec_qps_8 / spec_qps_1,
        spec_qps_8 > spec_qps_1 ? "[OK: increasing]" : "[FAIL: not increasing]");
    ok = ok && spec_qps_8 > spec_qps_1;
  }
  return ok ? 0 : 1;
}
