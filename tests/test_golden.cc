// Golden snapshot suite: records four representative workloads on a
// deterministic engine configuration and diffs the per-statement
// {reuse mode, row count, result digest, post-rewrite plan shape}
// against checked-in snapshots under tests/golden/.
//
// A golden failure means the recycler's observable behaviour changed —
// a chooser tweak, a canonicalization change, a plan-printer edit. When
// the change is intentional, regenerate with scripts/update_goldens.sh
// (RECYCLEDB_UPDATE_GOLDENS=1) and review the snapshot diff in the PR;
// when it is not, the unified diff below points at the first statement
// that diverged. See docs/testing.md.
//
// The corpora:
//   skyserver_sweep    overlapping RA-window range selects (misses,
//                      partial stitches, exact-repeat tail); also the
//                      source of tests/golden/skyserver_sweep.trace,
//                      the replay fixture bench_trace_replay gates on.
//   tpch_subset        Q1/Q6-shaped aggregates plus shipdate range
//                      selects over lineitem (exact + subsumption).
//   rollup_append      the delta-maintenance shape: grouped rollups and
//                      threshold windows across two appends (delta
//                      refreshes, aggregate merges).
//   sql_normalization  syntactic variants of one template (reordered
//                      conjuncts, folded constants, BETWEEN, NOT) that
//                      the canonicalizing rewrite must land on one
//                      cache entry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "skyserver/skyserver.h"
#include "tpch/dbgen.h"
#include "trace/recorder.h"
#include "trace/trace_format.h"
#include "workload/rollup.h"

namespace recycledb {
namespace {

using trace::Trace;
using trace::TraceEvent;
using trace::TraceHeader;
using trace::TraceRecorder;

/// Engine configuration every golden records under: speculation policy,
/// unlimited cache (no eviction nondeterminism), calibrated cost model
/// (no wall clock in decisions), plan capture for the shape snapshot.
DatabaseOptions GoldenOptions() {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = -1;
  options.recycler.capture_plan_explain = true;
  return options;
}

std::string GoldenDir() {
  return std::string(RDB_SOURCE_DIR) + "/tests/golden";
}

/// Set RECYCLEDB_UPDATE_GOLDENS=1 (scripts/update_goldens.sh) to rewrite
/// the snapshots in the source tree instead of diffing against them.
bool UpdateMode() {
  const char* env = std::getenv("RECYCLEDB_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

// ---------------------------------------------------------------------------
// Snapshot rendering and diffing
// ---------------------------------------------------------------------------

/// Renders a recorded trace as the golden text: one block per statement
/// with the reuse decision, cardinality, result digest and the indented
/// post-rewrite plan. Appends render as their own marker lines so the
/// snapshot pins where the data changed.
std::string RenderGolden(const Trace& t) {
  std::ostringstream out;
  out << "# recycledb golden snapshot v1\n";
  out << "# workload: " << t.header.workload << " seed: " << t.header.seed
      << " mode: " << t.header.mode << "\n";
  int64_t index = 0;
  for (const TraceEvent& e : t.events) {
    if (e.kind == TraceEvent::Kind::kAppend) {
      out << "--- append " << e.append.table << " +" << e.append.rows
          << " rows at " << e.append.start_row << "\n";
      continue;
    }
    const trace::StatementEvent& s = e.statement;
    out << "[" << index++ << "] mode=" << ReuseModeName(s.reuse_mode)
        << " rows=" << s.rows
        << StrFormat(" digest=%016llx",
                     static_cast<unsigned long long>(s.digest))
        << "\n";
    out << "  sql: " << s.sql << "\n";
    std::istringstream plan(s.plan_explain);
    for (std::string line; std::getline(plan, line);) {
      out << "  | " << line << "\n";
    }
  }
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Minimal unified diff (full-context LCS; goldens are small). Empty
/// result means the sides are identical.
std::string UnifiedDiff(const std::string& expected,
                        const std::string& actual) {
  if (expected == actual) return "";
  std::vector<std::string> a = SplitLines(expected);
  std::vector<std::string> b = SplitLines(actual);
  const size_t n = a.size(), m = b.size();
  // lcs[i][j]: LCS length of a[i..] vs b[j..].
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1
                               : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::ostringstream out;
  out << "--- golden (checked in)\n+++ actual (this build)\n";
  size_t i = 0, j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && a[i] == b[j]) {
      out << " " << a[i] << "\n";
      ++i, ++j;
    } else if (j < m && (i == n || lcs[i][j + 1] >= lcs[i + 1][j])) {
      out << "+" << b[j] << "\n";
      ++j;
    } else {
      out << "-" << a[i] << "\n";
      ++i;
    }
  }
  return out.str();
}

/// Reads a whole file; empty optional-style: ok=false when unreadable.
bool ReadFileText(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Diffs `t` against tests/golden/<name>.golden, or rewrites the
/// snapshot when RECYCLEDB_UPDATE_GOLDENS is set.
void CheckGolden(const std::string& name, const Trace& t) {
  const std::string rendered = RenderGolden(t);
  const std::string path = GoldenDir() + "/" + name + ".golden";
  if (UpdateMode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    return;
  }
  std::string golden;
  ASSERT_TRUE(ReadFileText(path, &golden))
      << path << " missing — run scripts/update_goldens.sh to generate it";
  const std::string diff = UnifiedDiff(golden, rendered);
  EXPECT_TRUE(diff.empty())
      << name << " diverged from its checked-in snapshot.\n"
      << "If the behaviour change is intentional, regenerate with\n"
      << "scripts/update_goldens.sh and commit the new snapshot.\n\n"
      << diff;
}

// ---------------------------------------------------------------------------
// Corpus builders (each records on a fresh engine and returns the trace)
// ---------------------------------------------------------------------------

/// SkyServer region sweep: 12 drifting RA windows then a 6-query
/// exact-repeat tail. Neighbouring windows overlap, so the steady state
/// is partial stitching; the tail pins exact reuse.
Trace RecordSweep(const DatabaseOptions& options) {
  auto db = Database::OpenOrDie(options);
  const int64_t objects = 8000;
  skyserver::Setup(objects, &db->catalog());

  TraceHeader header;
  header.seed = 20130415;
  header.workload = "skyserver_sweep";
  header.mode = RecyclerModeName(options.recycler.mode);
  header.tags["objects"] = std::to_string(objects);
  TraceRecorder recorder(header);
  auto session = db->Connect();
  session->set_recorder(&recorder);

  Rng rng(header.seed);
  std::vector<std::string> sweep = skyserver::GenerateRegionSweepSql(12, &rng);
  for (const std::string& sql : sweep) {
    Result r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  for (int i = 0; i < 6; ++i) {
    Result r = session->Sql(sweep[i]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  return recorder.Snapshot();
}

/// TPC-H subset over lineitem: Q1/Q6-shaped aggregates with DATE
/// literals plus shipdate range selects; repeats hit exactly and the
/// narrower range select derives by subsumption from the wider one.
Trace RecordTpchSubset(const DatabaseOptions& options) {
  auto db = Database::OpenOrDie(options);
  tpch::Generate(0.01, &db->catalog());

  TraceHeader header;
  header.seed = 19920401;  // the dbgen default seed the data came from
  header.workload = "tpch_subset";
  header.mode = RecyclerModeName(options.recycler.mode);
  TraceRecorder recorder(header);
  auto session = db->Connect();
  session->set_recorder(&recorder);

  const std::string q1 =
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,"
      " SUM(l_extendedprice) AS sum_base, COUNT(l_quantity) AS n"
      " FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'"
      " GROUP BY l_returnflag, l_linestatus"
      " ORDER BY l_returnflag ASC, l_linestatus ASC";
  auto q6 = [](const char* lo, const char* hi) {
    return StrFormat(
        "SELECT SUM(l_extendedprice) AS revenue,"
        " COUNT(l_extendedprice) AS n FROM lineitem"
        " WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s'"
        " AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24.0",
        lo, hi);
  };
  const std::vector<std::string> statements = {
      q1,
      q6("1994-01-01", "1995-01-01"),
      q6("1995-01-01", "1996-01-01"),
      // Wide shipdate slice; a refinement sharing its conjuncts plus a
      // residual derives from it by subsumption; a strictly contained
      // shipdate window is served by the stitch path instead.
      "SELECT * FROM lineitem WHERE l_shipdate >= DATE '1995-01-01'"
      " AND l_shipdate < DATE '1997-01-01'",
      "SELECT * FROM lineitem WHERE l_shipdate >= DATE '1995-01-01'"
      " AND l_shipdate < DATE '1997-01-01' AND l_quantity < 10.0",
      "SELECT * FROM lineitem WHERE l_shipdate >= DATE '1995-06-01'"
      " AND l_shipdate < DATE '1996-01-01'",
      q1,                          // exact repeat
      q6("1994-01-01", "1995-01-01"),  // exact repeat
  };
  for (const std::string& sql : statements) {
    Result r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  return recorder.Snapshot();
}

/// Rollup-append: three rounds of the fixed rollup statement set with an
/// append between rounds — the delta-maintenance shape (materialize,
/// exact, delta refresh, aggregate merge).
Trace RecordRollup(const DatabaseOptions& options) {
  auto db = Database::OpenOrDie(options);
  rollup::RollupOptions ropt;
  ropt.initial_rows = 4096;
  EXPECT_TRUE(rollup::Setup(db.get(), ropt).ok());

  TraceHeader header;
  header.seed = ropt.seed;
  header.workload = "rollup_append";
  header.mode = RecyclerModeName(options.recycler.mode);
  TraceRecorder recorder(header);
  auto session = db->Connect();
  session->set_recorder(&recorder);

  const std::vector<std::string> statements = rollup::RollupSql(ropt);
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : statements) {
      Result r = session->Sql(sql);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    if (round == 2) break;
    const int64_t rows = db->catalog().GetTable("events")->num_rows();
    EXPECT_TRUE(
        db->AppendTable("events", *rollup::MakeBatch(512, rows, ropt)).ok());
    recorder.RecordAppend("events", 512, rows);
  }
  return recorder.Snapshot();
}

/// SQL normalization: syntactic variants of a seed query (reordered
/// conjuncts, folded constant arithmetic, NOT forms, BETWEEN, SELECT *)
/// that the canonicalizing rewrite pass must collapse onto the seed's
/// cache entry — every variant after the first snapshots as exact.
Trace RecordNormalization(const DatabaseOptions& options) {
  auto db = Database::OpenOrDie(options);
  {
    Schema schema({{"city", TypeId::kString},
                   {"year", TypeId::kInt32},
                   {"sales", TypeId::kDouble}});
    static const char* kCities[] = {"Edinburgh", "Amsterdam", "Brisbane"};
    TablePtr t = MakeTable(schema);
    Rng rng(7);
    for (int64_t i = 0; i < 20000; ++i) {
      t->AppendRow({std::string(kCities[rng.Uniform(0, 2)]),
                    static_cast<int32_t>(rng.Uniform(2005, 2012)),
                    static_cast<double>(rng.Uniform(0, 5000))});
    }
    EXPECT_TRUE(db->CreateTable("sales", std::move(t)).ok());
  }

  TraceHeader header;
  header.seed = 7;
  header.workload = "sql_normalization";
  header.mode = RecyclerModeName(options.recycler.mode);
  TraceRecorder recorder(header);
  auto session = db->Connect();
  session->set_recorder(&recorder);

  const std::vector<std::string> statements = {
      // Seed spelling, then noisy variants of the same query.
      "SELECT city, year, sales FROM sales"
      " WHERE year >= 2008 AND sales < 2500.0",
      "SELECT * FROM sales WHERE year >= 2008 AND sales < 2500.0",
      "SELECT city, year, sales FROM sales"
      " WHERE sales < 2499.0+1.0 AND year >= 2000+8",
      "SELECT city, year, sales FROM sales"
      " WHERE NOT year < 2002+6 AND sales < 2500.0*1.0",
      // Second template: ordered aggregate, folded-constant variants.
      "SELECT city, SUM(sales) AS total FROM sales WHERE year >= 2010"
      " GROUP BY city ORDER BY total DESC",
      "SELECT city, SUM(sales) AS total FROM sales WHERE 2000+10 <= year"
      " GROUP BY city ORDER BY total DESC",
      "SELECT city, SUM(sales) AS total FROM sales WHERE year >= 4020/2"
      " GROUP BY city ORDER BY total DESC",
      // Third template: BETWEEN vs explicit bounds under ORDER + LIMIT.
      "SELECT city, sales FROM sales"
      " WHERE sales >= 1500.0 AND sales <= 3500.0"
      " ORDER BY sales ASC, city ASC LIMIT 100",
      "SELECT city, sales FROM sales"
      " WHERE sales BETWEEN 1000.0+500.0 AND 3500.0"
      " ORDER BY sales ASC, city ASC LIMIT 100",
      "SELECT city, sales FROM sales"
      " WHERE NOT sales < 1000.0+500.0 AND sales <= 3500.0"
      " ORDER BY sales ASC, city ASC LIMIT 100",
  };
  for (const std::string& sql : statements) {
    Result r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  return recorder.Snapshot();
}

int CountMode(const Trace& t, ReuseMode mode) {
  int n = 0;
  for (const TraceEvent& e : t.events) {
    if (e.kind == TraceEvent::Kind::kStatement &&
        e.statement.reuse_mode == mode) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// The four corpora vs their snapshots
// ---------------------------------------------------------------------------

TEST(GoldenTest, SkyserverSweep) {
  Trace t = RecordSweep(GoldenOptions());
  // The corpus must exercise the modes the snapshot exists to pin.
  EXPECT_GT(CountMode(t, ReuseMode::kPartialStitch), 0);
  EXPECT_GT(CountMode(t, ReuseMode::kExact), 0);
  if (UpdateMode()) {
    // Also refresh the replay fixture bench_trace_replay gates on.
    Status st = trace::WriteTraceFile(GoldenDir() + "/skyserver_sweep.trace",
                                      t);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  CheckGolden("skyserver_sweep", t);
}

TEST(GoldenTest, TpchSubset) {
  Trace t = RecordTpchSubset(GoldenOptions());
  EXPECT_GT(CountMode(t, ReuseMode::kExact), 0);
  EXPECT_GT(CountMode(t, ReuseMode::kSubsumption), 0);
  CheckGolden("tpch_subset", t);
}

TEST(GoldenTest, RollupAppend) {
  Trace t = RecordRollup(GoldenOptions());
  EXPECT_GT(CountMode(t, ReuseMode::kDelta) +
                CountMode(t, ReuseMode::kAggMerge),
            0);
  CheckGolden("rollup_append", t);
}

TEST(GoldenTest, SqlNormalization) {
  Trace t = RecordNormalization(GoldenOptions());
  EXPECT_GT(CountMode(t, ReuseMode::kExact), 0);
  CheckGolden("sql_normalization", t);
}

// ---------------------------------------------------------------------------
// The harness must catch a chooser mutation with a readable diff
// ---------------------------------------------------------------------------

TEST(GoldenTest, ChooserMutationProducesReadableDiff) {
  std::string golden;
  if (!ReadFileText(GoldenDir() + "/skyserver_sweep.golden", &golden)) {
    GTEST_SKIP() << "skyserver_sweep.golden not generated yet";
  }
  // Deliberately mutate the chooser: disable partial stitching. The
  // sweep's steady-state stitches must come back as misses, and the
  // snapshot diff must say so in reuse-mode terms.
  DatabaseOptions mutated = GoldenOptions();
  mutated.recycler.enable_partial_reuse = false;
  Trace t = RecordSweep(mutated);
  EXPECT_EQ(CountMode(t, ReuseMode::kPartialStitch), 0);

  const std::string diff = UnifiedDiff(golden, RenderGolden(t));
  ASSERT_FALSE(diff.empty())
      << "disabling partial reuse must change the snapshot";
  // The removed side of the diff names the lost stitch decisions
  // readably: "-[i] mode=partial-stitch ...".
  EXPECT_NE(diff.find("mode=partial-stitch"), std::string::npos) << diff;
  EXPECT_NE(diff.find("-["), std::string::npos) << diff;
}

}  // namespace
}  // namespace recycledb
