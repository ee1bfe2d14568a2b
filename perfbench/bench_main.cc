// recycledb_bench: runs one benchmark workload against a freshly built
// engine and writes raw measurements as JSON for run.py to reduce.
//
//   recycledb_bench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --workdir <dir>
//
// Phases: set-up (repeated kSetups times, each timed), a warm-up pass on
// its own seed, then a closed-loop timed window of `seconds` with
// kClients clients, then a count-bounded check phase whose results the
// oracle compares with a recycler-bypass session on the same table
// version. With --trace 1 a second engine is set up and warmed the same
// way and runs the same window and check phase again through the traced
// path, with per-layer spans kept in memory and written to
// <workdir>/spans.jsonl at the end. Exit status: 0 when no sampled result
// was wrong, 3 otherwise, 1 on usage or set-up errors.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <unordered_set>
#include <vector>

#include "api/database.h"
#include "api/validate.h"
#include "plan/canonicalize.h"
#include "sql/lower.h"
#include "sql/parser.h"
#include "trace/trace_format.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace recycledb;
namespace fs = std::filesystem;

/// Set-ups per run; the reported set-up time is their median.
constexpr int kSetups = 5;
/// The oracle checks at most this many results per client, evenly spaced
/// over the check phase (digesting large results is not free).
constexpr int64_t kMaxSamplesPerClient = 256;
/// A traced client keeps the spans of its first kMaxTracedRequests
/// requests; later ones still run the traced path (so the overhead stays
/// measured) without keeping spans, which bounds memory and file size.
constexpr int64_t kMaxTracedRequests = 25000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double cpu_s = 0;
  int64_t minflt = 0;
  int64_t maxrss_kib = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.minflt = ru.ru_minflt;
  u.maxrss_kib = ru.ru_maxrss;
  return u;
}

// ---------------------------------------------------------------------------
// Small JSON writer (numbers, strings, arrays of numbers).
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return "\"" + out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(int64_t v) { return std::to_string(v); }

std::string NumArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Ordered key -> already-encoded JSON value.
using JsonObject = std::vector<std::pair<std::string, std::string>>;

std::string Encode(const JsonObject& obj) {
  std::string out = "{";
  for (size_t i = 0; i < obj.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonEscape(obj[i].first) + ":" + obj[i].second;
  }
  return out + "}";
}

JsonObject CountersJson(const RecyclerCounters& c) {
  return {{"queries", Num(c.queries.load())},
          {"reuses", Num(c.reuses.load())},
          {"subsumption_reuses", Num(c.subsumption_reuses.load())},
          {"partial_reuses", Num(c.partial_reuses.load())},
          {"materializations", Num(c.materializations.load())},
          {"spec_aborts", Num(c.spec_aborts.load())},
          {"stalls", Num(c.stalls.load())},
          {"evictions", Num(c.evictions.load())},
          {"invalidations", Num(c.invalidations.load())},
          {"delta_hits", Num(c.delta_hits.load())},
          {"agg_merges", Num(c.agg_merges.load())},
          {"cold_hits", Num(c.cold_hits.load())},
          {"cold_spills", Num(c.cold_spills.load())},
          {"cold_readmissions", Num(c.cold_readmissions.load())},
          {"cold_evictions", Num(c.cold_evictions.load())},
          {"cold_load_errors", Num(c.cold_load_errors.load())},
          {"cold_slice_loads", Num(c.cold_slice_loads.load())},
          {"cold_spill_raw_bytes", Num(c.cold_spill_raw_bytes.load())},
          {"cold_spill_stored_bytes", Num(c.cold_spill_stored_bytes.load())},
          {"blocks_scanned", Num(c.blocks_scanned.load())},
          {"blocks_pruned", Num(c.blocks_pruned.load())}};
}

// ---------------------------------------------------------------------------
// Spans: recorded per client in memory, written as JSONL at exit.
// ---------------------------------------------------------------------------

/// Operator slots of exec.op.<OpType>.self_ms, plus one for executed
/// nodes the recycler rewrote (their type is not visible from outside).
constexpr int kOpSlots = static_cast<int>(OpType::kCachedScan) + 2;
constexpr int kUnattributedSlot = kOpSlots - 1;

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index in the same client's span list, -1 = root
  int64_t request = 0;
  int64_t exec = -1;    // index into ClientTrace::execs, recycler.Execute only
};

/// What Recycler::Execute returned (its QueryTrace and ExecResult),
/// attached to its span.
struct ExecAttrs {
  double exec_ms = 0;
  double match_ms = 0;
  double stall_ms = 0;
  int stalls = 0;
  int reuses = 0;
  int materialized = 0;
  ReuseMode reuse_mode = ReuseMode::kNone;
  int64_t rows_out = 0;
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
  std::array<double, kOpSlots> op_self_ms{};
};

/// One client's spans, in memory until the run ends.
struct ClientTrace {
  std::vector<SpanRecord> spans;
  std::vector<ExecAttrs> execs;
};

/// RAII span: opens at construction, closes at destruction.
class Span {
 public:
  Span(ClientTrace* trace, const char* name, int64_t request, int64_t parent)
      : spans_(&trace->spans), index_(static_cast<int64_t>(spans_->size())) {
    SpanRecord rec;
    rec.name = name;
    rec.parent = parent;
    rec.request = request;
    rec.start_ns = NowNs();
    spans_->push_back(rec);
  }
  ~Span() { (*spans_)[index_].end_ns = NowNs(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t index() const { return index_; }

 private:
  std::vector<SpanRecord>* spans_;
  int64_t index_;
};

/// Per-operator-type self time of one execution: inclusive time minus the
/// inclusive time of its children, for every node of `plan` the executor
/// ran under its own pointer. Nodes the recycler replaced (cached scans
/// and the rebuilt spine above them) are not reachable from `plan` and
/// land in the unattributed slot.
void OpSelfTimes(const PlanPtr& plan, const ExecResult& exec,
                 std::array<double, kOpSlots>* slots) {
  std::unordered_set<const PlanNode*> seen;
  double attributed = 0;
  std::vector<const PlanNode*> stack = {plan.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    auto it = exec.node_runtime.find(node);
    if (it != exec.node_runtime.end()) {
      double self = it->second.inclusive_ms;
      for (const PlanPtr& child : node->children()) {
        auto c = exec.node_runtime.find(child.get());
        if (c != exec.node_runtime.end()) self -= c->second.inclusive_ms;
      }
      self = std::max(0.0, self);
      (*slots)[static_cast<int>(node->type())] += self;
      attributed += self;
    }
    for (const PlanPtr& child : node->children()) stack.push_back(child.get());
  }
  (*slots)[kUnattributedSlot] = std::max(0.0, exec.total_ms - attributed);
}

// ---------------------------------------------------------------------------
// Engine: one Database with its client sessions and prepared statements.
// ---------------------------------------------------------------------------

struct Engine {
  std::string spill_dir;
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::vector<std::unique_ptr<PreparedStatement>>> prepared;
  /// Append pacing across warm-up and window: batch k is issued once
  /// reads_done reaches (k + 1) * reads_per_append.
  std::atomic<int64_t> reads_done{0};
  std::atomic<int64_t> appends_started{0};
  std::atomic<int64_t> appends_committed{0};

  ~Engine() {
    prepared.clear();
    sessions.clear();
    db.reset();  // checkpoints the hot cache into the spill directory
    if (!spill_dir.empty()) {
      std::error_code ec;
      fs::remove_all(spill_dir, ec);
    }
  }
};

/// Progress line on stderr with seconds since start.
void Log(const std::string& msg) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "recycledb_bench [%7.2f s] %s\n",
               (NowNs() - start) * 1e-9, msg.c_str());
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "recycledb_bench: %s\n", msg.c_str());
  std::exit(1);
}

/// Opens a database, generates and registers the workload's data, and
/// connects the clients. Returns the engine and the set-up seconds (data
/// generation + Database::Open + table set-up).
std::unique_ptr<Engine> SetUp(const Workload& w, const std::string& workdir,
                              int ordinal, double* setup_s) {
  auto engine = std::make_unique<Engine>();
  DatabaseOptions options = w.options;
  if (w.spill) {
    engine->spill_dir = workdir + "/spill-" + std::to_string(ordinal);
    std::error_code ec;
    fs::remove_all(engine->spill_dir, ec);
    fs::create_directories(engine->spill_dir, ec);
    options.recycler.spill_dir = engine->spill_dir;
  }
  int64_t t0 = NowNs();
  Status st = Database::Open(options, &engine->db);
  if (!st.ok()) Die("Database::Open: " + st.ToString());
  w.setup(engine->db.get());
  *setup_s = (NowNs() - t0) * 1e-9;
  for (int c = 0; c < kClients; ++c) {
    SessionOptions so;
    so.name = "client-" + std::to_string(c);
    engine->sessions.push_back(engine->db->Connect(so));
    std::vector<std::unique_ptr<PreparedStatement>> stmts;
    for (const std::string& sql : w.templates) {
      Status pst;
      stmts.push_back(engine->sessions.back()->Prepare(sql, &pst));
      if (stmts.back() == nullptr) Die("Prepare: " + pst.ToString());
    }
    engine->prepared.push_back(std::move(stmts));
  }
  return engine;
}

// ---------------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------------

/// A statement kept for the oracle with the result it produced and the
/// range of table versions (append counts) it may have read.
struct Sample {
  Statement stmt;
  TablePtr table;
  int64_t version_lo = 0;
  int64_t version_hi = 0;
  /// ResultDigest of `table`, filled in by the oracle.
  uint64_t digest = 0;
};

struct ClientLog {
  std::vector<double> latency_ms;
  /// Completion time of each read, seconds since the phase started.
  std::vector<double> done_s;
  std::vector<double> append_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t reads = 0;
  int64_t end_ns = 0;
  std::vector<Sample> samples;
  std::vector<std::string> errors;
  ClientTrace trace;
  ClientTrace overflow;
};

/// Where request `seq` of a traced client records its spans: the client
/// log while under kMaxTracedRequests, else a scratch buffer that is
/// cleared each time.
ClientTrace* TraceFor(ClientLog* log, int64_t seq) {
  if (seq < kMaxTracedRequests) return &log->trace;
  log->overflow.spans.clear();
  log->overflow.execs.clear();
  return &log->overflow;
}

struct PhaseResult {
  double wall_s = 0;
  double cpu_s = 0;
  /// Process CPU seconds used from the start to second 1, 2, ... of a
  /// timed window.
  std::vector<double> cpu_marks_s;
  int64_t minflt = 0;
  int64_t peak_rss_kib = 0;
  std::vector<ClientLog> clients;
  JsonObject counters_before, counters_after;
  GraphStats graph_after;
  ColdTierStats cold_after;
};

/// Canonicalizes `plan` exactly as Session::RunValidatedPlan does.
PlanPtr CanonicalizeForExecution(const Database& db, const PlanPtr& plan) {
  if (!db.options().canonicalize_plans) return plan;
  PlanPtr exec_plan = CanonicalizePlan(plan);
  if (exec_plan != plan &&
      exec_plan->template_hash() != plan->template_hash()) {
    exec_plan =
        exec_plan->WithChildren(std::vector<PlanPtr>(exec_plan->children()));
    exec_plan->set_template_hash(plan->template_hash());
  }
  return exec_plan;
}

/// The untraced path: what a user of the Session API calls. `prepared`
/// holds the workload's templates prepared on `session`.
Result RunOn(Session& session,
             std::vector<std::unique_ptr<PreparedStatement>>& prepared,
             const Statement& s) {
  switch (s.kind) {
    case Statement::Kind::kPlan:
      return session.Execute(s.plan);
    case Statement::Kind::kSql:
      return session.Sql(s.sql);
    case Statement::Kind::kPrepared:
      return prepared[s.template_index]->Execute(s.params);
  }
  return Result::Error(Status::Internal("unknown statement kind"));
}

/// The traced path: the public functions Session::RunValidatedPlan calls,
/// in the same order, each inside a span of request `request`.
Result RunTraced(Engine& e, int client, const Statement& s,
                 ClientTrace* spans, int64_t request) {
  Database& db = *e.db;
  Span root(spans, "statement", request, -1);
  PlanPtr plan;
  Status st;
  switch (s.kind) {
    case Statement::Kind::kSql: {
      sql::SelectStmt ast;
      {
        Span sp(spans, "sql.Parse", request, root.index());
        st = sql::Parse(s.sql, &ast);
      }
      if (st.ok()) {
        Span sp(spans, "sql.LowerSelect", request, root.index());
        st = sql::LowerSelect(ast, s.sql, db.catalog(), &plan);
      }
      if (st.ok() && plan->HasParams()) {
        st = Status::InvalidArgument("statement has :parameter placeholders");
      }
      if (st.ok()) {
        Span sp(spans, "api.ValidatePlan", request, root.index());
        st = ValidatePlan(plan, db.catalog(), nullptr);
      }
      break;
    }
    case Statement::Kind::kPrepared: {
      Span sp(spans, "api.ToPlan", request, root.index());
      st = e.prepared[client][s.template_index]->BindAll(s.params).ToPlan(
          &plan);
      break;
    }
    case Statement::Kind::kPlan: {
      Span sp(spans, "api.ValidatePlan", request, root.index());
      plan = s.plan;
      st = ValidatePlan(plan, db.catalog(), nullptr);
      break;
    }
  }
  if (!st.ok()) return Result::Error(std::move(st));
  PlanPtr exec_plan;
  {
    Span sp(spans, "plan.CanonicalizePlan", request, root.index());
    exec_plan = CanonicalizeForExecution(db, plan);
  }
  QueryTrace trace;
  ExecResult exec;
  int64_t exec_span;
  {
    Span sp(spans, "recycler.Execute", request, root.index());
    exec = db.recycler().Execute(exec_plan, &trace);
    exec_span = sp.index();
  }
  spans->spans[exec_span].exec = static_cast<int64_t>(spans->execs.size());
  spans->execs.emplace_back();
  ExecAttrs& rec = spans->execs.back();
  rec.match_ms = trace.match_ms;
  rec.stall_ms = trace.stall_ms;
  rec.stalls = trace.num_stalls;
  rec.reuses = trace.num_reuses;
  rec.materialized = trace.num_materialized;
  rec.reuse_mode = trace.reuse_mode;
  rec.exec_ms = exec.total_ms;
  rec.rows_out = exec.table == nullptr ? 0 : exec.table->num_rows();
  rec.blocks_scanned = exec.blocks_scanned;
  rec.blocks_pruned = exec.blocks_pruned;
  OpSelfTimes(exec_plan, exec, &rec.op_self_ms);
  return Result::Of(std::move(exec), std::move(trace));
}

struct PhaseSpec {
  uint64_t seed = 0;
  /// > 0: timed window of this many seconds; else count-bounded warm-up.
  double seconds = 0;
  int statements_per_client = 0;
  bool traced = false;
  bool keep_samples = false;
};

PhaseResult RunPhase(Engine& e, const Workload& w, const PhaseSpec& spec) {
  const bool has_writer = w.reads_per_append > 0;
  const int readers = has_writer ? kClients - 1 : kClients;
  PhaseResult out;
  out.clients.resize(kClients);
  out.counters_before = CountersJson(e.db->counters());

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> readers_left{readers};
  int64_t start_ns = 0;     // both written before `go` is released
  int64_t deadline_ns = 0;

  auto reader = [&](int client) {
    ClientLog& log = out.clients[client];
    std::unique_ptr<Source> source =
        w.source(client, MixSeed(spec.seed, client));
    const int64_t sample_stride =
        std::max<int64_t>(1, spec.statements_per_client / kMaxSamplesPerClient);
    int64_t request = static_cast<int64_t>(client) << 40;
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (int64_t seq = 0;; ++seq) {
      if (spec.seconds > 0 ? NowNs() >= deadline_ns
                           : seq >= spec.statements_per_client) {
        break;
      }
      Statement s = source->Next();
      int64_t version_lo = e.appends_committed.load();
      int64_t t0 = NowNs();
      Result r =
          spec.traced
              ? RunTraced(e, client, s, TraceFor(&log, seq), request++)
              : RunOn(*e.sessions[client], e.prepared[client], s);
      int64_t t1 = NowNs();
      int64_t version_hi = e.appends_started.load();
      e.reads_done.fetch_add(1);
      ++log.attempted;
      ++log.reads;
      log.latency_ms.push_back((t1 - t0) * 1e-6);
      log.done_s.push_back((t1 - start_ns) * 1e-9);
      if (!r.ok()) {
        ++log.failed;
        if (log.errors.size() < 3) log.errors.push_back(r.status().ToString());
      } else if (spec.keep_samples && seq % sample_stride == 0) {
        log.samples.push_back(
            {std::move(s), r.table(), version_lo, version_hi});
      }
    }
    log.end_ns = NowNs();
    readers_left.fetch_sub(1);
  };

  auto writer = [&](int client) {
    ClientLog& log = out.clients[client];
    int64_t request = static_cast<int64_t>(client) << 40;
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    auto stop = [&] {
      return spec.seconds > 0 ? NowNs() >= deadline_ns
                              : readers_left.load() == 0;
    };
    while (!stop()) {
      int64_t k = e.appends_started.load();
      if (e.reads_done.load() < (k + 1) * w.reads_per_append) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      TablePtr batch = w.make_batch(k, 1);
      e.appends_started.fetch_add(1);
      int64_t t0 = NowNs();
      Status st;
      if (spec.traced) {
        Span root(&log.trace, "statement", request, -1);
        Span sp(&log.trace, "api.AppendTable", request, root.index());
        st = e.db->AppendTable(w.append_table, *batch);
      } else {
        st = e.db->AppendTable(w.append_table, *batch);
      }
      int64_t t1 = NowNs();
      ++request;
      e.appends_committed.fetch_add(1);
      ++log.attempted;
      log.append_ms.push_back((t1 - t0) * 1e-6);
      if (!st.ok()) {
        ++log.failed;
        if (log.errors.size() < 3) log.errors.push_back(st.ToString());
      }
    }
    log.end_ns = NowNs();
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    if (has_writer && c == kClients - 1) {
      threads.emplace_back(writer, c);
    } else {
      threads.emplace_back(reader, c);
    }
  }
  while (ready.load() < kClients) std::this_thread::yield();
  Usage u0 = ReadUsage();
  start_ns = NowNs();
  deadline_ns = start_ns + static_cast<int64_t>(spec.seconds * 1e9);
  go.store(true);
  // Process CPU at every whole second of a timed window, for per-second
  // medians.
  for (int k = 1; k <= static_cast<int>(spec.seconds); ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start_ns + k * 1000000000ll)));
    out.cpu_marks_s.push_back(ReadUsage().cpu_s - u0.cpu_s);
  }
  for (std::thread& t : threads) t.join();
  Usage u1 = ReadUsage();
  int64_t end_ns = start_ns;
  for (const ClientLog& log : out.clients) {
    end_ns = std::max(end_ns, log.end_ns);
  }
  out.wall_s = (end_ns - start_ns) * 1e-9;
  out.cpu_s = u1.cpu_s - u0.cpu_s;
  out.minflt = u1.minflt - u0.minflt;
  out.peak_rss_kib = u1.maxrss_kib;
  out.counters_after = CountersJson(e.db->counters());
  out.graph_after = e.db->graph_stats();
  out.cold_after = e.db->recycler().cold_tier().Stats();
  return out;
}

// ---------------------------------------------------------------------------
// Oracle: digests of sampled results against a recycler-bypass session.
// ---------------------------------------------------------------------------

std::string OracleKey(const Statement& s) {
  switch (s.kind) {
    case Statement::Kind::kPlan:
      return "plan|" + s.plan->TreeFingerprint();
    case Statement::Kind::kSql:
      return "sql|" + s.sql;
    case Statement::Kind::kPrepared: {
      std::string key = "prepared|" + std::to_string(s.template_index);
      for (const auto& [name, value] : s.params) {
        key += "|" + name + "=" + trace::EncodeDatum(value);
      }
      return key;
    }
  }
  return "";
}

struct OracleResult {
  int64_t checked = 0;
  /// Same rows as bypass but some double differs in its low bits
  /// (summation order); reported, not failed.
  int64_t inexact = 0;
  /// Wrong results: different rows or values beyond kRelTolerance.
  int64_t mismatches = 0;
  int64_t bypass_runs = 0;
  std::vector<std::string> details;
};

/// Relative tolerance separating reassociated floating-point sums from
/// wrong values.
constexpr double kRelTolerance = 1e-9;

enum class Verdict { kExact, kInexact, kWrong };

/// Order-insensitive comparison: exact when the ResultDigests agree,
/// inexact when the rows pair up with every double within kRelTolerance
/// and everything else equal, wrong otherwise.
Verdict Compare(const Table& got, uint64_t got_digest, const Table& expected,
                uint64_t expected_digest) {
  if (got_digest == expected_digest) {
    return Verdict::kExact;
  }
  if (got.num_rows() != expected.num_rows() ||
      got.num_columns() != expected.num_columns()) {
    return Verdict::kWrong;
  }
  auto sorted_rows = [](const Table& t) {
    std::vector<std::vector<Datum>> rows(t.num_rows());
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < t.num_columns(); ++c) rows[r].push_back(t.Get(r, c));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  std::vector<std::vector<Datum>> a = sorted_rows(got);
  std::vector<std::vector<Datum>> b = sorted_rows(expected);
  for (size_t r = 0; r < a.size(); ++r) {
    for (size_t c = 0; c < a[r].size(); ++c) {
      const double* x = std::get_if<double>(&a[r][c]);
      const double* y = std::get_if<double>(&b[r][c]);
      if (x != nullptr && y != nullptr) {
        double scale = std::max({std::fabs(*x), std::fabs(*y), 1.0});
        if (std::fabs(*x - *y) > kRelTolerance * scale) return Verdict::kWrong;
      } else if (a[r][c] != b[r][c]) {
        return Verdict::kWrong;
      }
    }
  }
  return Verdict::kInexact;
}

/// Runs `s` on a recycler-bypass session; nullptr (with `*error`) when
/// the bypass execution itself fails.
TablePtr RunBypass(Session& bypass,
                   std::vector<std::unique_ptr<PreparedStatement>>& prepared,
                   const Statement& s, std::string* error) {
  Result r = RunOn(bypass, prepared, s);
  if (!r.ok() || r.table() == nullptr) {
    *error = r.status().ToString();
    return nullptr;
  }
  return r.table();
}

struct BypassClient {
  std::unique_ptr<Session> session;
  std::vector<std::unique_ptr<PreparedStatement>> prepared;
};

BypassClient ConnectBypass(Database* db, const Workload& w) {
  BypassClient c;
  SessionOptions so;
  so.name = "oracle";
  so.bypass_recycler = true;
  so.collect_traces = false;
  c.session = db->Connect(so);
  for (const std::string& sql : w.templates) {
    Status st;
    c.prepared.push_back(c.session->Prepare(sql, &st));
    if (c.prepared.back() == nullptr) Die("oracle Prepare: " + st.ToString());
  }
  return c;
}

void Tally(OracleResult* out, Verdict verdict, const std::string& key,
           const std::string& what) {
  ++out->checked;
  if (verdict == Verdict::kExact) return;
  if (verdict == Verdict::kInexact) {
    ++out->inexact;
    return;
  }
  ++out->mismatches;
  if (out->details.size() < 5) out->details.push_back(what + ": " + key);
}

/// Static tables: each distinct sampled statement runs once on bypass
/// sessions of the same database, spread over kClients threads.
OracleResult CheckStatic(Engine& e, const Workload& w,
                         const std::vector<const Sample*>& samples) {
  OracleResult out;
  std::map<std::string, std::vector<const Sample*>> by_key;
  for (const Sample* s : samples) by_key[OracleKey(s->stmt)].push_back(s);
  std::vector<const std::pair<const std::string,
                              std::vector<const Sample*>>*> keys;
  for (const auto& entry : by_key) keys.push_back(&entry);
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      BypassClient bypass = ConnectBypass(e.db.get(), w);
      for (size_t i = next.fetch_add(1); i < keys.size();
           i = next.fetch_add(1)) {
        const auto& [key, group] = *keys[i];
        std::string error;
        TablePtr expected = RunBypass(*bypass.session, bypass.prepared,
                                      group.front()->stmt, &error);
        std::vector<Verdict> verdicts;
        uint64_t digest =
            expected == nullptr ? 0 : trace::ResultDigest(*expected);
        for (const Sample* s : group) {
          verdicts.push_back(expected == nullptr
                                 ? Verdict::kWrong
                                 : Compare(*s->table, s->digest, *expected,
                                           digest));
        }
        std::lock_guard<std::mutex> lock(mu);
        ++out.bypass_runs;
        for (Verdict v : verdicts) {
          Tally(&out, v, key,
                expected == nullptr ? "bypass failed (" + error + ")"
                                    : "result differs from bypass");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// Appends: a fresh bypass database replays the append sequence; at each
/// version every sample that may have read it is compared, and a sample
/// is judged by its best verdict over the versions in its range. The
/// distinct statements of one version run on kClients bypass sessions in
/// parallel.
OracleResult CheckVersioned(const Workload& w,
                            const std::vector<const Sample*>& samples) {
  OracleResult out;
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kOff;
  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  if (!st.ok()) Die("oracle Database::Open: " + st.ToString());
  w.setup(db.get());
  std::vector<BypassClient> bypass;
  for (int t = 0; t < kClients; ++t) {
    bypass.push_back(ConnectBypass(db.get(), w));
  }
  std::vector<std::string> keys;
  int64_t max_version = 0;
  for (const Sample* s : samples) {
    keys.push_back(OracleKey(s->stmt));
    max_version = std::max(max_version, s->version_hi);
  }
  int64_t min_version = max_version;
  for (const Sample* s : samples) {
    min_version = std::min(min_version, s->version_lo);
  }
  std::vector<Verdict> best(samples.size(), Verdict::kWrong);
  for (int64_t v = min_version; v <= max_version; ++v) {
    // Versions before the first sampled one arrive as one batch.
    int64_t first = v == min_version ? 0 : v - 1;
    if (v > first) {
      st = db->AppendTable(w.append_table, *w.make_batch(first, v - first));
      if (!st.ok()) Die("oracle append: " + st.ToString());
    }
    // Distinct statements needed at this version -> bypass result.
    std::map<std::string, std::pair<const Statement*, TablePtr>> expected;
    for (size_t i = 0; i < samples.size(); ++i) {
      const Sample* s = samples[i];
      if (best[i] != Verdict::kExact && s->version_lo <= v &&
          v <= s->version_hi) {
        expected.emplace(keys[i], std::make_pair(&s->stmt, nullptr));
      }
    }
    std::vector<std::pair<const Statement*, TablePtr>*> todo;
    for (auto& entry : expected) todo.push_back(&entry.second);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = next.fetch_add(1); i < todo.size();
             i = next.fetch_add(1)) {
          std::string error;
          todo[i]->second = RunBypass(*bypass[t].session, bypass[t].prepared,
                                      *todo[i]->first, &error);
          if (todo[i]->second == nullptr) Die("oracle bypass failed: " + error);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    out.bypass_runs += static_cast<int64_t>(todo.size());
    std::map<std::string, uint64_t> digests;
    for (const auto& [key, entry] : expected) {
      digests[key] = trace::ResultDigest(*entry.second);
    }
    for (size_t i = 0; i < samples.size(); ++i) {
      auto it = expected.find(keys[i]);
      if (best[i] == Verdict::kExact || samples[i]->version_lo > v ||
          v > samples[i]->version_hi || it == expected.end()) {
        continue;
      }
      best[i] = std::min(best[i],
                         Compare(*samples[i]->table, samples[i]->digest,
                                 *it->second.second, digests[keys[i]]));
    }
  }
  for (size_t i = 0; i < samples.size(); ++i) {
    Tally(&out, best[i], keys[i],
          "result matches bypass at no version in [" +
              std::to_string(samples[i]->version_lo) + ", " +
              std::to_string(samples[i]->version_hi) + "]");
  }
  return out;
}

OracleResult Check(Engine& e, const Workload& w, PhaseResult& phase) {
  // Cached results are shared, so many samples hold one table: digest
  // each table once.
  std::unordered_map<const Table*, uint64_t> digests;
  std::vector<const Sample*> samples;
  for (ClientLog& log : phase.clients) {
    for (Sample& s : log.samples) {
      auto it = digests.find(s.table.get());
      if (it == digests.end()) {
        it = digests.emplace(s.table.get(), trace::ResultDigest(*s.table))
                 .first;
      }
      s.digest = it->second;
      samples.push_back(&s);
    }
  }
  return w.reads_per_append > 0 ? CheckVersioned(w, samples)
                                : CheckStatic(e, w, samples);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string PhaseJson(const PhaseResult& p) {
  std::vector<double> latency, done, appends;
  int64_t attempted = 0, failed = 0, reads = 0;
  std::vector<std::string> errors;
  for (const ClientLog& log : p.clients) {
    latency.insert(latency.end(), log.latency_ms.begin(), log.latency_ms.end());
    done.insert(done.end(), log.done_s.begin(), log.done_s.end());
    appends.insert(appends.end(), log.append_ms.begin(), log.append_ms.end());
    attempted += log.attempted;
    failed += log.failed;
    reads += log.reads;
    errors.insert(errors.end(), log.errors.begin(), log.errors.end());
  }
  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) error_list += ",";
    error_list += JsonEscape(errors[i]);
  }
  error_list += "]";
  JsonObject graph = {{"num_nodes", Num(p.graph_after.num_nodes)},
                      {"num_cached", Num(p.graph_after.num_cached)},
                      {"cached_bytes", Num(p.graph_after.cached_bytes)},
                      {"num_cold", Num(p.graph_after.num_cold)}};
  JsonObject cold = {{"entries", Num(p.cold_after.entries)},
                     {"used_bytes", Num(p.cold_after.used_bytes)},
                     {"raw_bytes", Num(p.cold_after.raw_bytes)},
                     {"pending_spills", Num(p.cold_after.pending_spills)}};
  return Encode({{"wall_s", Num(p.wall_s)},
                 {"cpu_s", Num(p.cpu_s)},
                 {"minflt", Num(p.minflt)},
                 {"peak_rss_kib", Num(p.peak_rss_kib)},
                 {"attempted", Num(attempted)},
                 {"failed", Num(failed)},
                 {"reads", Num(reads)},
                 {"errors", error_list},
                 {"latency_ms", NumArray(latency)},
                 {"done_s", NumArray(done)},
                 {"cpu_marks_s", NumArray(p.cpu_marks_s)},
                 {"append_ms", NumArray(appends)},
                 {"counters_before", Encode(p.counters_before)},
                 {"counters_after", Encode(p.counters_after)},
                 {"graph_after", Encode(graph)},
                 {"cold_after", Encode(cold)}});
}

std::string OracleJson(const OracleResult& o) {
  std::string details = "[";
  for (size_t i = 0; i < o.details.size(); ++i) {
    if (i > 0) details += ",";
    details += JsonEscape(o.details[i]);
  }
  details += "]";
  return Encode({{"checked", Num(o.checked)},
                 {"inexact", Num(o.inexact)},
                 {"mismatches", Num(o.mismatches)},
                 {"bypass_runs", Num(o.bypass_runs)},
                 {"details", details}});
}

void WriteSpans(const std::string& path, const PhaseResult& phase) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  for (size_t c = 0; c < phase.clients.size(); ++c) {
    const ClientTrace& trace = phase.clients[c].trace;
    const std::vector<SpanRecord>& spans = trace.spans;
    // Span ids are unique across clients: client in the high bits.
    auto id = [c](int64_t index) {
      return Num(static_cast<int64_t>(c) << 40 | index);
    };
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      JsonObject obj = {
          {"name", JsonEscape(s.name)},
          {"id", id(static_cast<int64_t>(i))},
          {"parent", s.parent < 0 ? "null" : id(s.parent)},
          {"request", Num(s.request)},
          {"start", Num(s.start_ns)},
          {"end", Num(s.end_ns)}};
      if (s.exec >= 0) {
        const ExecAttrs& a = trace.execs[s.exec];
        JsonObject ops;
        for (int k = 0; k < kOpSlots; ++k) {
          if (a.op_self_ms[k] == 0) continue;
          ops.push_back({k == kUnattributedSlot
                             ? "unattributed"
                             : OpTypeName(static_cast<OpType>(k)),
                         Num(a.op_self_ms[k])});
        }
        obj.push_back(
            {"attrs",
             Encode({{"exec_ms", Num(a.exec_ms)},
                     {"match_ms", Num(a.match_ms)},
                     {"stall_ms", Num(a.stall_ms)},
                     {"stalls", Num(static_cast<int64_t>(a.stalls))},
                     {"reuses", Num(static_cast<int64_t>(a.reuses))},
                     {"materialized",
                      Num(static_cast<int64_t>(a.materialized))},
                     {"reuse_mode", JsonEscape(ReuseModeName(a.reuse_mode))},
                     {"rows_out", Num(a.rows_out)},
                     {"blocks_scanned", Num(a.blocks_scanned)},
                     {"blocks_pruned", Num(a.blocks_pruned)},
                     {"op_self_ms", Encode(ops)}})});
      }
      out << Encode(obj) << "\n";
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
      have_workdir = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_workdir || a.seconds <= 0) {
    Die("usage: recycledb_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir>");
  }
  return a;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    Die("unknown workload '" + args.workload + "'; one of:" + names);
  }
  Log("workload " + w->name + ", seed " + std::to_string(args.seed));
  std::error_code ec;
  fs::create_directories(args.workdir, ec);
  const uint64_t warm_seed = MixSeed(args.seed, 1001);
  const uint64_t window_seed = MixSeed(args.seed, 1002);
  const uint64_t check_seed = MixSeed(args.seed, 1003);

  // Set-up, repeated; the last engine is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    double s = 0;
    engine = SetUp(*w, args.workdir, i, &s);
    setup_s.push_back(s);
  }

  PhaseSpec warm;
  warm.seed = warm_seed;
  warm.statements_per_client = w->warmup_statements;
  Log("set-up done");
  PhaseResult warmup = RunPhase(*engine, *w, warm);
  Log("warm-up done");

  PhaseSpec window;
  window.seed = window_seed;
  window.seconds = args.seconds;
  PhaseResult timed = RunPhase(*engine, *w, window);
  Log("window done");

  // The oracle's sample: a count-bounded phase right after the window,
  // so retained results cost the window neither time nor memory.
  PhaseSpec check;
  check.seed = check_seed;
  check.statements_per_client = w->check_statements;
  check.keep_samples = true;
  PhaseResult checked = RunPhase(*engine, *w, check);
  Log("check phase done");
  OracleResult oracle = Check(*engine, *w, checked);
  Log("oracle done");

  JsonObject result = {
      {"workload", JsonEscape(w->name)},
      {"seed", Num(static_cast<int64_t>(args.seed))},
      {"seconds", Num(args.seconds)},
      {"clients", Num(static_cast<int64_t>(kClients))},
      {"setup_s", NumArray(setup_s)},
      {"warmup", PhaseJson(warmup)},
      {"window", PhaseJson(timed)},
      {"check", PhaseJson(checked)},
      {"oracle", OracleJson(oracle)}};
  int64_t mismatches = oracle.mismatches;

  if (args.trace) {
    // A second engine, set up and warmed the same way, runs the same
    // window with spans; timed.* above stays the untraced reference.
    engine.reset();
    double s = 0;
    engine = SetUp(*w, args.workdir, kSetups, &s);
    RunPhase(*engine, *w, warm);
    PhaseSpec traced = window;
    traced.traced = true;
    PhaseResult tw = RunPhase(*engine, *w, traced);
    PhaseSpec traced_check = check;
    traced_check.traced = true;
    PhaseResult tc = RunPhase(*engine, *w, traced_check);
    Log("traced window and check phase done");
    OracleResult traced_oracle = Check(*engine, *w, tc);
    mismatches += traced_oracle.mismatches;
    std::string spans_path = args.workdir + "/spans.jsonl";
    WriteSpans(spans_path, tw);
    result.push_back({"traced_window", PhaseJson(tw)});
    result.push_back({"traced_check", PhaseJson(tc)});
    result.push_back({"traced_oracle", OracleJson(traced_oracle)});
    result.push_back({"spans", JsonEscape(spans_path)});
  }
  engine.reset();

  std::string path = args.workdir + "/result.json";
  std::ofstream out(path);
  out << Encode(result) << "\n";
  out.close();
  if (!out) Die("cannot write " + path);
  return mismatches == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
