#include "workload/driver.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "api/database.h"
#include "api/validate.h"
#include "common/admission.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "plan/canonicalize.h"
#include "sql/lower.h"
#include "trace/trace_format.h"

namespace recycledb {
namespace workload {

double RunReport::AvgStreamMs() const {
  if (stream_ms.empty()) return 0;
  double sum = 0;
  for (double ms : stream_ms) sum += ms;
  return sum / static_cast<double>(stream_ms.size());
}

double RunReport::TotalQueryMs() const {
  double sum = 0;
  for (const auto& r : records) sum += r.end_ms - r.start_ms;
  return sum;
}

double RunReport::QueriesPerSec() const {
  if (wall_ms <= 0) return 0;
  return static_cast<double>(records.size()) * 1000.0 / wall_ms;
}

double RunReport::LatencyPercentileMs(double p) const {
  if (records.empty()) return 0;
  std::vector<double> lat;
  lat.reserve(records.size());
  for (const auto& r : records) lat.push_back(r.end_ms - r.start_ms);
  std::sort(lat.begin(), lat.end());
  p = std::min(100.0, std::max(0.0, p));
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(lat.size())));
  if (rank == 0) rank = 1;
  return lat[rank - 1];
}

int64_t RunReport::TotalReuses() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.num_reuses;
  return n;
}

int64_t RunReport::TotalStalls() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.num_stalls;
  return n;
}

int64_t RunReport::TotalMaterializations() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.num_materialized;
  return n;
}

int64_t RunReport::TotalColdHits() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.num_cold_hits;
  return n;
}

int64_t RunReport::TotalAdoptions() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.num_adoptions;
  return n;
}

int64_t RunReport::TotalDeltaReuses() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.num_delta_reuses;
  return n;
}

int64_t RunReport::TotalAggMerges() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.num_agg_merges;
  return n;
}

int64_t RunReport::TotalBlocksScanned() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.blocks_scanned;
  return n;
}

int64_t RunReport::TotalBlocksPruned() const {
  int64_t n = 0;
  for (const auto& r : records) n += r.trace.blocks_pruned;
  return n;
}

double RunReport::ReuseRate() const {
  if (records.empty()) return 0;
  int64_t reusing = 0;
  for (const auto& r : records) {
    if (r.trace.num_reuses > 0) ++reusing;
  }
  return static_cast<double>(reusing) / static_cast<double>(records.size());
}

WorkloadDriver::WorkloadDriver(Recycler* recycler, DriverOptions options)
    : recycler_(recycler), options_(options) {}

RunReport WorkloadDriver::Run(std::vector<StreamSpec> streams) {
  RunReport report;
  report.stream_ms.assign(streams.size(), 0.0);
  report.stream_stats.assign(streams.size(), StreamStats{});
  std::mutex report_mu;

  const int max_concurrent = std::max(1, options_.max_concurrent);
  int threads = options_.threads > 0
                    ? options_.threads
                    : std::min<int>(max_concurrent,
                                    static_cast<int>(streams.size()));
  threads = std::max(1, threads);
  AdmissionGate gate(max_concurrent);

  Stopwatch run_sw;
  {
    ThreadPool pool(threads);
    for (size_t s = 0; s < streams.size(); ++s) {
      pool.Submit([&, s] {
        const StreamSpec& spec = streams[s];
        double stream_start = run_sw.ElapsedMs();
        for (size_t q = 0; q < spec.plans.size(); ++q) {
          QueryRecord rec;
          rec.stream = static_cast<int>(s);
          rec.index = static_cast<int>(q);
          rec.label = spec.labels[q];
          gate.Acquire();
          rec.start_ms = run_sw.ElapsedMs();
          ExecResult result = recycler_->Execute(spec.plans[q], &rec.trace);
          rec.end_ms = run_sw.ElapsedMs();
          gate.Release();
          rec.result_rows = result.table->num_rows();
          if (options_.compute_digests) {
            rec.digest = trace::ResultDigest(*result.table);
          }
          std::lock_guard<std::mutex> lock(report_mu);
          report.records.push_back(std::move(rec));
        }
        std::lock_guard<std::mutex> lock(report_mu);
        report.stream_ms[s] = run_sw.ElapsedMs() - stream_start;
      });
    }
    pool.WaitIdle();
  }
  report.wall_ms = run_sw.ElapsedMs();

  for (const auto& r : report.records) {
    LabelStats& ls = report.by_label[r.label];
    ++ls.count;
    ls.total_ms += r.end_ms - r.start_ms;
    StreamStats& ss = report.stream_stats[r.stream];
    ++ss.queries;
    ss.total_ms += r.end_ms - r.start_ms;
    ss.reuses += r.trace.num_reuses;
    ss.subsumption_reuses += r.trace.num_subsumption_reuses;
    ss.partial_reuses += r.trace.num_partial_reuses;
    ss.cold_hits += r.trace.num_cold_hits;
    ss.adoptions += r.trace.num_adoptions;
    ss.delta_reuses += r.trace.num_delta_reuses;
    ss.agg_merges += r.trace.num_agg_merges;
    ss.materializations += r.trace.num_materialized;
    ss.stalls += r.trace.num_stalls;
    ss.blocks_scanned += r.trace.blocks_scanned;
    ss.blocks_pruned += r.trace.blocks_pruned;
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    report.stream_stats[s].span_ms = report.stream_ms[s];
  }
  std::sort(report.records.begin(), report.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.start_ms < b.start_ms;
            });
  return report;
}

RunReport RunStreams(Recycler* recycler, std::vector<StreamSpec> streams,
                     int max_concurrent) {
  DriverOptions options;
  options.max_concurrent = max_concurrent;
  WorkloadDriver driver(recycler, options);
  return driver.Run(std::move(streams));
}

RunReport RunStreams(Database* db, std::vector<StreamSpec> streams,
                     int max_concurrent) {
  return RunStreams(&db->recycler(), std::move(streams), max_concurrent);
}

StreamSpec MakeStatementStream(PreparedStatement* statement,
                               const std::vector<ParamMap>& bindings,
                               const std::string& label) {
  StreamSpec spec;
  for (const auto& b : bindings) {
    statement->ClearBindings();
    statement->BindAll(b);
    PlanPtr plan;
    Status st = statement->ToPlan(&plan);
    RDB_CHECK_MSG(st.ok(), st.ToString().c_str());
    spec.labels.push_back(label);
    spec.plans.push_back(std::move(plan));
  }
  return spec;
}

StreamSpec MakeSqlStream(Database* db, const std::vector<std::string>& sql,
                         const std::string& label) {
  StreamSpec spec;
  for (const std::string& text : sql) {
    PlanPtr plan;
    Status st = sql::SqlToPlan(text, db->catalog(), &plan);
    RDB_CHECK_MSG(st.ok(), st.ToString().c_str());
    RDB_CHECK_MSG(!plan->HasParams(),
                  "SQL stream statements must be parameter-free");
    st = ValidatePlan(plan, db->catalog(), nullptr);
    RDB_CHECK_MSG(st.ok(), st.ToString().c_str());
    if (db->options().canonicalize_plans) plan = CanonicalizePlan(plan);
    spec.labels.push_back(label);
    spec.plans.push_back(std::move(plan));
  }
  return spec;
}

std::string FormatTrace(const RunReport& report) {
  std::string out;
  out += "time(ms)  stream  query        dur(ms)  events\n";
  for (const auto& r : report.records) {
    std::string events;
    if (r.trace.num_reuses > 0) {
      events += StrFormat("reused:%d ", r.trace.num_reuses);
    }
    if (r.trace.num_subsumption_reuses > 0) {
      events += StrFormat("(subsumed:%d) ", r.trace.num_subsumption_reuses);
    }
    if (r.trace.num_partial_reuses > 0) {
      events += StrFormat("(stitched:%d) ", r.trace.num_partial_reuses);
    }
    if (r.trace.num_cold_hits > 0) {
      events += StrFormat("(cold:%d) ", r.trace.num_cold_hits);
    }
    if (r.trace.num_adoptions > 0) {
      events += StrFormat("(adopt:%d) ", r.trace.num_adoptions);
    }
    if (r.trace.num_delta_reuses > 0) {
      events += StrFormat("(delta:%d) ", r.trace.num_delta_reuses);
    }
    if (r.trace.num_agg_merges > 0) {
      events += StrFormat("(agg-merge:%d) ", r.trace.num_agg_merges);
    }
    if (r.trace.num_materialized > 0) {
      events += StrFormat("materialized:%d ", r.trace.num_materialized);
    }
    if (r.trace.num_spec_aborted > 0) {
      events += StrFormat("spec-aborted:%d ", r.trace.num_spec_aborted);
    }
    if (r.trace.num_stalls > 0) {
      events += StrFormat("stalled:%d(%.1fms) ", r.trace.num_stalls,
                          r.trace.stall_ms);
    }
    if (r.trace.blocks_pruned > 0) {
      events += StrFormat("pruned:%lld/%lld ",
                          static_cast<long long>(r.trace.blocks_pruned),
                          static_cast<long long>(r.trace.blocks_pruned +
                                                 r.trace.blocks_scanned));
    }
    if (r.trace.used_proactive) events += "proactive ";
    if (events.empty()) events.assign(1, '-');
    out += StrFormat("%8.1f  S%-5d  %-11s  %7.1f  %s\n", r.start_ms,
                     r.stream + 1, r.label.c_str(), r.end_ms - r.start_ms,
                     events.c_str());
  }
  return out;
}

std::string FormatSummary(const RunReport& report) {
  std::string out;
  out += StrFormat(
      "queries=%lld wall=%.1fms qps=%.2f avg=%.2fms p50=%.2fms p95=%.2fms "
      "p99=%.2fms\n",
      static_cast<long long>(report.TotalQueries()), report.wall_ms,
      report.QueriesPerSec(),
      report.TotalQueries() == 0
          ? 0.0
          : report.TotalQueryMs() / static_cast<double>(report.TotalQueries()),
      report.LatencyPercentileMs(50), report.LatencyPercentileMs(95),
      report.LatencyPercentileMs(99));
  out += StrFormat(
      "reuse_rate=%.1f%% reuses=%lld cold_hits=%lld adoptions=%lld "
      "delta_reuses=%lld agg_merges=%lld materializations=%lld stalls=%lld\n",
      100.0 * report.ReuseRate(), static_cast<long long>(report.TotalReuses()),
      static_cast<long long>(report.TotalColdHits()),
      static_cast<long long>(report.TotalAdoptions()),
      static_cast<long long>(report.TotalDeltaReuses()),
      static_cast<long long>(report.TotalAggMerges()),
      static_cast<long long>(report.TotalMaterializations()),
      static_cast<long long>(report.TotalStalls()));
  const int64_t scanned = report.TotalBlocksScanned();
  const int64_t pruned = report.TotalBlocksPruned();
  out += StrFormat(
      "blocks_scanned=%lld blocks_pruned=%lld prune_rate=%.1f%%\n",
      static_cast<long long>(scanned), static_cast<long long>(pruned),
      scanned + pruned == 0
          ? 0.0
          : 100.0 * static_cast<double>(pruned) /
                static_cast<double>(scanned + pruned));
  return out;
}

}  // namespace workload
}  // namespace recycledb
