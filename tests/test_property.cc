// Property-based tests: random plan workloads against the recycler.
//
// Properties checked across randomized workloads (parameterized by seed):
//  P1. Transparency: every mode returns exactly the OFF results, with
//      arbitrary interleaving and repetition.
//  P2. Graph idempotence: re-preparing a seen plan adds no nodes.
//  P3. h is never negative; epochs never exceed the global epoch.
//  P4. The cache never exceeds its capacity.
//  P5. Cached state is consistent: mat_state == kCached iff the node
//      holds a table, and cached bytes add up.
//  P6. Differential SQL fuzz: random SQL over a random append schedule
//      returns bit-identical rows recycler-on vs bypass, and the
//      recorded trace replays on a fresh engine with identical reuse
//      modes and digests.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "recycler/recycler.h"
#include "test_util.h"
#include "trace/recorder.h"
#include "trace/replayer.h"
#include "trace/trace_format.h"

namespace recycledb {
namespace {

/// Generates random but always-valid plans over the fixed test table
/// t(a:int32, b:int32, v:double, s:string, d:date).
class RandomPlanGenerator {
 public:
  explicit RandomPlanGenerator(uint64_t seed) : rng_(seed) {}

  PlanPtr Next() {
    PlanPtr plan = PlanNode::Scan("t", {"a", "b", "v", "s", "d"});
    if (rng_.Uniform(0, 3) > 0) plan = AddSelect(plan);
    switch (rng_.Uniform(0, 3)) {
      case 0:
        plan = AddAggregate(plan);
        break;
      case 1:
        plan = AddProject(plan);
        break;
      case 2:
        plan = AddAggregate(plan);
        if (rng_.Uniform(0, 1) == 0) plan = AddTopN(plan);
        break;
      default:
        break;  // bare (filtered) scan
    }
    return plan;
  }

 private:
  ExprPtr RandomPredicate() {
    // Small constant domains so plans repeat across the workload.
    ExprPtr c1 = Expr::Compare(
        static_cast<CompareOp>(rng_.Uniform(0, 5)), Expr::Column("a"),
        Expr::Literal(rng_.Uniform(0, 4) * 10));
    if (rng_.Uniform(0, 1) == 0) return c1;
    return Expr::And(c1, Expr::Lt(Expr::Column("b"),
                                  Expr::Literal(rng_.Uniform(1, 4) * 100)));
  }

  PlanPtr AddSelect(PlanPtr in) {
    return PlanNode::Select(std::move(in), RandomPredicate());
  }

  PlanPtr AddProject(PlanPtr in) {
    return PlanNode::Project(
        std::move(in),
        {{Expr::Column("a"), "pa"},
         {Expr::Arith(ArithOp::kMul, Expr::Column("v"),
                      Expr::Literal(static_cast<double>(rng_.Uniform(1, 3)))),
          "pv"}});
  }

  PlanPtr AddAggregate(PlanPtr in) {
    std::vector<std::string> groups;
    if (rng_.Uniform(0, 3) > 0) {
      groups.push_back(rng_.Uniform(0, 1) == 0 ? "a" : "b");
    }
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kSum, Expr::Column("v"), "sv"});
    if (rng_.Uniform(0, 1) == 0) {
      aggs.push_back({AggFunc::kCount, Expr::Literal(int64_t{1}), "cnt"});
    }
    if (rng_.Uniform(0, 2) == 0) {
      aggs.push_back({AggFunc::kMax, Expr::Column("v"), "mx"});
    }
    return PlanNode::Aggregate(std::move(in), std::move(groups),
                               std::move(aggs));
  }

  PlanPtr AddTopN(PlanPtr in) {
    return PlanNode::TopN(std::move(in), {{"sv", false}},
                          rng_.Uniform(1, 20));
  }

  Rng rng_;
};

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    Schema s({{"a", TypeId::kInt32},
              {"b", TypeId::kInt32},
              {"v", TypeId::kDouble},
              {"s", TypeId::kString},
              {"d", TypeId::kDate}});
    TablePtr t = MakeTable(s);
    Rng rng(271828);
    for (int i = 0; i < 30000; ++i) {
      t->AppendRow({static_cast<int32_t>(rng.Uniform(0, 60)),
                    static_cast<int32_t>(rng.Uniform(0, 500)),
                    static_cast<double>(rng.Uniform(0, 100000)) / 7.0,
                    "w" + std::to_string(rng.Uniform(0, 30)),
                    MakeDate(1994, 1, 1) +
                        static_cast<int32_t>(rng.Uniform(0, 1500))});
    }
    ASSERT_TRUE(catalog_->RegisterTable("t", t).ok());
  }

  static void CheckInvariants(Recycler& rec) {
    std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
    int64_t epoch = rec.graph().epoch();
    int64_t cached_total = 0;
    for (const auto& n : rec.graph().nodes()) {
      EXPECT_GE(n->h, 0.0) << "P3: negative h on node " << n->param_fp;
      EXPECT_LE(n->h_epoch, epoch) << "P3: epoch from the future";
      bool cached = n->mat_state.load() == MatState::kCached;
      EXPECT_EQ(cached, n->cached != nullptr)
          << "P5: state/table mismatch on " << n->param_fp;
      if (cached) cached_total += n->cached_bytes;
    }
    EXPECT_EQ(cached_total, rec.cache().used_bytes()) << "P5: byte drift";
    if (!rec.cache().unlimited()) {
      EXPECT_LE(rec.cache().used_bytes(), rec.cache().capacity_bytes())
          << "P4: cache over capacity";
    }
  }

  static Catalog* catalog_;
};
Catalog* PropertyTest::catalog_ = nullptr;

TEST_P(PropertyTest, TransparencyAcrossModes) {
  const int seed = GetParam();
  for (RecyclerMode mode : {RecyclerMode::kHistory, RecyclerMode::kSpeculation,
                            RecyclerMode::kProactive}) {
    RecyclerConfig off_cfg;
    off_cfg.mode = RecyclerMode::kOff;
    Recycler off(catalog_, off_cfg);
    RecyclerConfig on_cfg;
    on_cfg.mode = mode;
    on_cfg.cache_bytes = 8 << 20;  // small enough to force evictions
    Recycler on(catalog_, on_cfg);

    // Two generators with the same seed produce the same workload; reuse
    // opportunities come from the small constant domains.
    RandomPlanGenerator gen_a(seed);
    RandomPlanGenerator gen_b(seed);
    for (int q = 0; q < 40; ++q) {
      PlanPtr plan_off = gen_a.Next();
      PlanPtr plan_on = gen_b.Next();
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(q) + " mode " +
                   std::string(RecyclerModeName(mode)));
      ExecResult r_off = off.Execute(plan_off);
      ExecResult r_on = on.Execute(plan_on);
      if (plan_off->type() == OpType::kTopN) {
        // Ties at the cut are resolved arbitrarily: compare sort keys.
        EXPECT_EQ(recycledb::testing::ColumnMultiset(*r_off.table, {"sv"}),
                  recycledb::testing::ColumnMultiset(*r_on.table, {"sv"}));
      } else {
        EXPECT_EQ(recycledb::testing::RowMultiset(*r_off.table),
                  recycledb::testing::RowMultiset(*r_on.table));
      }
      CheckInvariants(on);
    }
  }
}

TEST_P(PropertyTest, GraphIdempotenceUnderRepetition) {
  const int seed = GetParam();
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 0;  // matching only
  Recycler rec(catalog_, cfg);
  RandomPlanGenerator gen(seed);
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 20; ++i) plans.push_back(gen.Next());
  for (const auto& p : plans) rec.Prepare(p->CloneShallow());
  int64_t nodes = rec.graph().Stats().num_nodes;
  // Re-preparing the same plans must not grow the graph (P2).
  for (const auto& p : plans) rec.Prepare(p->CloneShallow());
  EXPECT_EQ(rec.graph().Stats().num_nodes, nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 7, 23, 51, 97, 131, 211, 307));

// ---------------------------------------------------------------------------
// P6: differential SQL fuzz over a random append schedule
// ---------------------------------------------------------------------------

/// Deterministic per-row content for the fuzz table: the row at global
/// index `i` is the same whether it landed in the initial load or in a
/// later append batch, so replay can regenerate any recorded batch.
void AppendFuzzRows(Table* t, int64_t start_row, int64_t rows) {
  for (int64_t i = start_row; i < start_row + rows; ++i) {
    Rng rng(0x5fbu ^ static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull);
    // v is a multiple of 1/8: sums stay exactly representable, so
    // aggregate results are order-independent and the bit-identity
    // check compares content, not summation order (delta merges and
    // subsumption legitimately re-associate floating-point sums).
    t->AppendRow({static_cast<int32_t>(rng.Uniform(0, 60)),
                  static_cast<int32_t>(rng.Uniform(0, 500)),
                  static_cast<double>(rng.Uniform(0, 100000)) / 8.0});
  }
}

TablePtr MakeFuzzBatch(int64_t rows, int64_t start_row) {
  TablePtr batch = MakeTable(Schema({{"a", TypeId::kInt32},
                                     {"b", TypeId::kInt32},
                                     {"v", TypeId::kDouble}}));
  AppendFuzzRows(batch.get(), start_row, rows);
  return batch;
}

/// Random SQL over fuzz(a, b, v) with small constant domains, so the
/// workload repeats spellings (exact), refines them (subsumption),
/// slides ranges (stitch) and re-aggregates across appends (delta /
/// agg-merge). No ORDER BY: rows compare as multisets.
std::string RandomFuzzSql(Rng* rng) {
  char buf[160];
  switch (rng->Uniform(0, 3)) {
    case 0: {
      int lo = static_cast<int>(rng->Uniform(0, 4)) * 10;
      std::snprintf(buf, sizeof(buf),
                    "SELECT * FROM fuzz WHERE a >= %d AND a < %d", lo,
                    lo + 20);
      break;
    }
    case 1: {
      int cut = static_cast<int>(rng->Uniform(1, 4)) * 100;
      std::snprintf(buf, sizeof(buf),
                    "SELECT a, SUM(v) AS sv, COUNT(v) AS n FROM fuzz"
                    " WHERE b < %d GROUP BY a",
                    cut);
      break;
    }
    case 2: {
      int lo = static_cast<int>(rng->Uniform(0, 2)) * 15;
      std::snprintf(buf, sizeof(buf),
                    "SELECT b, MIN(v) AS lo, MAX(v) AS hi FROM fuzz"
                    " WHERE a >= %d GROUP BY b",
                    lo);
      break;
    }
    default: {
      int t = static_cast<int>(rng->Uniform(0, 5));
      std::snprintf(buf, sizeof(buf),
                    "SELECT * FROM fuzz WHERE v >= %d000.0", 2 + t * 2);
      break;
    }
  }
  return buf;
}

/// Bit-exact row multiset: doubles at %.17g (round-trip precision), so a
/// ULP of divergence between the arms fails the comparison.
std::multiset<std::string> BitRowMultiset(const Table& t) {
  std::multiset<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < t.num_columns(); ++c) {
      const Datum& d = t.Get(r, c);
      if (d.index() == 4) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(d));
        key += buf;
      } else {
        key += DatumToString(d);
      }
      key += "|";
    }
    rows.insert(std::move(key));
  }
  return rows;
}

class SqlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlFuzzTest, DifferentialAgainstBypassAndReplay) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  constexpr int64_t kInitialRows = 4096;
  constexpr int kQueries = 60;

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = -1;
  options.recycler.capture_plan_explain = true;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("fuzz", MakeFuzzBatch(kInitialRows, 0)).ok());

  trace::TraceHeader header;
  header.seed = seed;
  header.workload = "sql_fuzz";
  header.mode = RecyclerModeName(RecyclerMode::kSpeculation);
  trace::TraceRecorder recorder(header);
  auto recycled = db->Connect();
  recycled->set_recorder(&recorder);
  SessionOptions bypass_opts;
  bypass_opts.bypass_recycler = true;
  auto bypass = db->Connect(bypass_opts);

  // Random schedule: mostly queries, occasionally an append. Both arms
  // run against the same engine state at every step.
  Rng rng(seed);
  int64_t next_row = kInitialRows;
  int hits = 0;
  for (int q = 0; q < kQueries; ++q) {
    if (rng.Uniform(0, 7) == 0) {
      const int64_t batch = 128 + 64 * static_cast<int64_t>(rng.Uniform(0, 3));
      ASSERT_TRUE(
          db->AppendTable("fuzz", *MakeFuzzBatch(batch, next_row)).ok());
      recorder.RecordAppend("fuzz", batch, next_row);
      next_row += batch;
    }
    const std::string sql = RandomFuzzSql(&rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                 std::to_string(q) + ": " + sql);
    Result on = recycled->Sql(sql);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    Result off = bypass->Sql(sql);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    EXPECT_EQ(BitRowMultiset(*on.table()), BitRowMultiset(*off.table()))
        << "P6: recycled arm diverged from the bypass baseline";
    if (on.recycled()) ++hits;
  }
  EXPECT_GT(hits, 0) << "fuzz workload never hit the cache; the "
                        "differential property was vacuous";

  // Replay the recorded trace on a fresh engine: identical history must
  // reproduce identical reuse decisions and digests.
  trace::Trace recorded = recorder.Snapshot();
  auto fresh = Database::OpenOrDie(options);
  ASSERT_TRUE(
      fresh->CreateTable("fuzz", MakeFuzzBatch(kInitialRows, 0)).ok());
  trace::ReplayOptions ropts;
  ropts.append_provider = [](const trace::AppendEvent& a) {
    return MakeFuzzBatch(a.rows, a.start_row);
  };
  trace::TraceReplayer replayer(fresh.get(), ropts);
  trace::ReplayReport report;
  Status st = replayer.Replay(recorded, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.mode_mismatches, 0) << report.ToString();
  EXPECT_EQ(report.digest_mismatches, 0) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest,
                         ::testing::Values(3, 17, 59, 101));

}  // namespace
}  // namespace recycledb
