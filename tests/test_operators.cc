// Unit tests for src/exec operators: scan, filter, project, limit, union,
// sort, top-N, hash aggregate, hash join (all kinds), progress meters, and
// the hash tables' match order, key semantics and cross-thread scratch.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <thread>

#include "exec/executor.h"
#include "exec/operators.h"
#include "recycledb/recycledb.h"
#include "test_util.h"

namespace recycledb {
namespace {

class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // orders-like table: key, group, value.
    Schema s({{"k", TypeId::kInt32},
              {"g", TypeId::kString},
              {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 5000; ++i) {
      t->AppendRow({int32_t{i}, std::string(i % 3 == 0 ? "a" : "b"),
                    static_cast<double>(i % 100)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());

    Schema dim({{"dk", TypeId::kInt32}, {"name", TypeId::kString}});
    TablePtr d = MakeTable(dim);
    // Only even keys < 100 appear in the dimension.
    for (int i = 0; i < 100; i += 2) {
      d->AppendRow({int32_t{i}, std::string("dim") + std::to_string(i)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("dim", d).ok());
  }

  TablePtr Run(PlanPtr plan) {
    plan->Bind(catalog_);
    Executor exec(&catalog_);
    return exec.Run(plan).table;
  }

  Catalog catalog_;
};

TEST_F(OperatorTest, ScanAllRowsInBatches) {
  TablePtr r = Run(PlanNode::Scan("t", {"k"}));
  EXPECT_EQ(r->num_rows(), 5000);
  EXPECT_EQ(std::get<int32_t>(r->Get(4999, 0)), 4999);
}

TEST_F(OperatorTest, FilterSelectivity) {
  TablePtr r = Run(PlanNode::Select(
      PlanNode::Scan("t", {"k", "g"}),
      Expr::Eq(Expr::Column("g"), Expr::Literal(std::string("a")))));
  EXPECT_EQ(r->num_rows(), 1667);  // ceil(5000/3)
}

TEST_F(OperatorTest, FilterNoMatches) {
  TablePtr r = Run(PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{0}))));
  EXPECT_EQ(r->num_rows(), 0);
}

TEST_F(OperatorTest, ProjectComputesExpressions) {
  TablePtr r = Run(PlanNode::Project(
      PlanNode::Scan("t", {"k", "v"}),
      {{Expr::Arith(ArithOp::kAdd, Expr::Column("v"), Expr::Literal(1.0)),
        "v1"}}));
  EXPECT_EQ(r->num_rows(), 5000);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(5, 0)), 6.0);
}

TEST_F(OperatorTest, LimitStopsEarly) {
  TablePtr r = Run(PlanNode::Limit(PlanNode::Scan("t", {"k"}), 10));
  EXPECT_EQ(r->num_rows(), 10);
  // Limit smaller than one batch and larger than the table both work.
  EXPECT_EQ(Run(PlanNode::Limit(PlanNode::Scan("t", {"k"}), 100000))
                ->num_rows(),
            5000);
}

TEST_F(OperatorTest, UnionAllConcatenates) {
  TablePtr r = Run(PlanNode::UnionAll(
      {PlanNode::Scan("t", {"k"}), PlanNode::Scan("t", {"k"})}));
  EXPECT_EQ(r->num_rows(), 10000);
}

TEST_F(OperatorTest, OrderBySortsAscDesc) {
  TablePtr r = Run(PlanNode::OrderBy(
      PlanNode::Scan("t", {"v", "k"}),
      {{"v", false}, {"k", true}}));
  ASSERT_EQ(r->num_rows(), 5000);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 0)), 99.0);
  // Within equal v, k ascends.
  EXPECT_LT(std::get<int32_t>(r->Get(0, 1)), std::get<int32_t>(r->Get(1, 1)));
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(4999, 0)), 0.0);
}

TEST_F(OperatorTest, TopNMatchesFullSortPrefix) {
  PlanPtr sorted = PlanNode::OrderBy(PlanNode::Scan("t", {"v", "k"}),
                                     {{"v", true}, {"k", true}});
  PlanPtr top = PlanNode::TopN(PlanNode::Scan("t", {"v", "k"}),
                               {{"v", true}, {"k", true}}, 37);
  TablePtr rs = Run(sorted);
  TablePtr rt = Run(top);
  ASSERT_EQ(rt->num_rows(), 37);
  for (int64_t i = 0; i < 37; ++i) {
    EXPECT_EQ(recycledb::testing::RowKey(*rs, i),
              recycledb::testing::RowKey(*rt, i));
  }
}

TEST_F(OperatorTest, TopNLargerThanInput) {
  TablePtr r = Run(PlanNode::TopN(
      PlanNode::Select(PlanNode::Scan("t", {"k"}),
                       Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{5}))),
      {{"k", false}}, 100));
  EXPECT_EQ(r->num_rows(), 5);
  EXPECT_EQ(std::get<int32_t>(r->Get(0, 0)), 4);
}

TEST_F(OperatorTest, HashAggGlobal) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("t", {"v"}), {},
      {{AggFunc::kSum, Expr::Column("v"), "s"},
       {AggFunc::kCount, Expr::Literal(int64_t{1}), "c"},
       {AggFunc::kMin, Expr::Column("v"), "mn"},
       {AggFunc::kMax, Expr::Column("v"), "mx"},
       {AggFunc::kAvg, Expr::Column("v"), "av"}}));
  ASSERT_EQ(r->num_rows(), 1);
  // 5000 rows of i%100: 50 full cycles of 0..99 -> sum = 50*4950.
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 0)), 50 * 4950.0);
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 1)), 5000);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 2)), 0.0);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 3)), 99.0);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 4)), 49.5);
}

TEST_F(OperatorTest, HashAggGlobalOnEmptyInputEmitsOneRow) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Select(PlanNode::Scan("t", {"v"}),
                       Expr::Lt(Expr::Column("v"), Expr::Literal(-1.0))),
      {}, {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}}));
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 0)), 0);
}

TEST_F(OperatorTest, HashAggGrouped) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("t", {"g", "v"}), {"g"},
      {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}}));
  ASSERT_EQ(r->num_rows(), 2);
  int64_t total = 0;
  for (int64_t i = 0; i < 2; ++i) total += std::get<int64_t>(r->Get(i, 1));
  EXPECT_EQ(total, 5000);
}

TEST_F(OperatorTest, HashAggIntegerSumStaysIntegral) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("t", {"k"}), {},
      {{AggFunc::kSum, Expr::Column("k"), "s"}}));
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 0)),
            4999ll * 5000 / 2);
}

TEST_F(OperatorTest, HashJoinInner) {
  TablePtr r = Run(PlanNode::HashJoin(
      PlanNode::Scan("t", {"k", "v"}), PlanNode::Scan("dim", {"dk", "name"}),
      JoinKind::kInner, {"k"}, {"dk"}));
  EXPECT_EQ(r->num_rows(), 50);  // even keys < 100
  EXPECT_EQ(r->schema().Names(),
            (std::vector<std::string>{"k", "v", "dk", "name"}));
}

TEST_F(OperatorTest, HashJoinSemiAnti) {
  PlanPtr probe = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{100})));
  TablePtr semi = Run(PlanNode::HashJoin(probe, PlanNode::Scan("dim", {"dk"}),
                                         JoinKind::kSemi, {"k"}, {"dk"}));
  EXPECT_EQ(semi->num_rows(), 50);
  TablePtr anti = Run(PlanNode::HashJoin(probe, PlanNode::Scan("dim", {"dk"}),
                                         JoinKind::kAnti, {"k"}, {"dk"}));
  EXPECT_EQ(anti->num_rows(), 50);  // odd keys < 100
}

TEST_F(OperatorTest, HashJoinLeftOuterPadsMisses) {
  PlanPtr probe = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{4})));
  TablePtr r = Run(PlanNode::HashJoin(probe,
                                      PlanNode::Scan("dim", {"dk", "name"}),
                                      JoinKind::kLeftOuter, {"k"}, {"dk"}));
  ASSERT_EQ(r->num_rows(), 4);
  // Odd keys have no dim match: padded with defaults (0 / "").
  auto rows = recycledb::testing::RowMultiset(*r);
  EXPECT_TRUE(rows.count("1|0|''|") == 1) << r->ToString();
}

TEST_F(OperatorTest, HashJoinDuplicateBuildKeysMultiply) {
  Schema s({{"bk", TypeId::kInt32}});
  TablePtr dup = MakeTable(s);
  dup->AppendRow({int32_t{2}});
  dup->AppendRow({int32_t{2}});
  ASSERT_TRUE(catalog_.RegisterTable("dup", dup).ok());
  PlanPtr probe = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Eq(Expr::Column("k"), Expr::Literal(int64_t{2})));
  TablePtr r = Run(PlanNode::HashJoin(probe, PlanNode::Scan("dup", {"bk"}),
                                      JoinKind::kInner, {"k"}, {"bk"}));
  EXPECT_EQ(r->num_rows(), 2);
}

TEST_F(OperatorTest, MultiKeyJoin) {
  // Join t with itself on (k, g): every row matches exactly itself.
  PlanPtr left = PlanNode::Scan("t", {"k", "g"});
  PlanPtr right = PlanNode::Project(
      PlanNode::Scan("t", {"k", "g"}),
      {{Expr::Column("k"), "k2"}, {Expr::Column("g"), "g2"}});
  TablePtr r = Run(PlanNode::HashJoin(left, right, JoinKind::kInner,
                                      {"k", "g"}, {"k2", "g2"}));
  EXPECT_EQ(r->num_rows(), 5000);
}

TEST_F(OperatorTest, OperatorStatsCollected) {
  PlanPtr plan = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{10})));
  plan->Bind(catalog_);
  Executor exec(&catalog_);
  ExecResult r = exec.Run(plan);
  ASSERT_EQ(r.node_runtime.size(), 2u);
  const NodeRuntime& sel_rt = r.node_runtime.at(plan.get());
  EXPECT_EQ(sel_rt.rows_out, 10);
  // k is appended in ascending order, so the zone maps prune every block
  // past the first for `k < 10`: the scan reads exactly one 1024-row
  // block of the five.
  const NodeRuntime& scan_rt = r.node_runtime.at(plan->child().get());
  EXPECT_EQ(scan_rt.rows_out, 1024);
  EXPECT_EQ(r.blocks_scanned, 1);
  EXPECT_EQ(r.blocks_pruned, 4);
  // Inclusive timing: the parent's time includes the child's.
  EXPECT_GE(sel_rt.inclusive_ms, 0.0);
}

TEST_F(OperatorTest, ScanProgressAdvances) {
  TablePtr t = catalog_.GetTable("t");
  ScanOp scan(Schema({{"k", TypeId::kInt32}}), t, {0});
  scan.Open();
  EXPECT_DOUBLE_EQ(scan.Progress(), 0.0);
  Batch b;
  ASSERT_TRUE(scan.Next(&b));
  EXPECT_GT(scan.Progress(), 0.0);
  EXPECT_LT(scan.Progress(), 1.0);
  while (scan.Next(&b)) {
  }
  EXPECT_DOUBLE_EQ(scan.Progress(), 1.0);
}


// ---------------------------------------------------------------------------
// Hash-table semantics: match order, growth, key equality, MIN/MAX
// ---------------------------------------------------------------------------

// Build side with duplicate keys: bk cycles through 0..6, id is the row.
// Probe side: pk over 0..9 (7..9 never match), pid is the row.
class HashTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TablePtr build = MakeTable(
        Schema({{"bk", TypeId::kInt64}, {"id", TypeId::kInt32}}));
    for (int i = 0; i < 3000; ++i) {
      build->AppendRow({int64_t{(i * 5) % 7}, int32_t{i}});
    }
    ASSERT_TRUE(catalog_.RegisterTable("build", build).ok());
    TablePtr unique = MakeTable(
        Schema({{"bk", TypeId::kInt64}, {"id", TypeId::kInt32}}));
    for (int i = 0; i < 7; ++i) unique->AppendRow({int64_t{i}, int32_t{i}});
    ASSERT_TRUE(catalog_.RegisterTable("unique", unique).ok());
    TablePtr probe = MakeTable(
        Schema({{"pk", TypeId::kInt64}, {"pid", TypeId::kInt32}}));
    for (int i = 0; i < 50; ++i) {
      probe->AppendRow({int64_t{(i * 3) % 10}, int32_t{i}});
    }
    ASSERT_TRUE(catalog_.RegisterTable("probe", probe).ok());
  }

  TablePtr Run(PlanPtr plan) {
    plan->Bind(catalog_);
    Executor exec(&catalog_);
    return exec.Run(plan).table;
  }

  TablePtr Join(const std::string& build, JoinKind kind) {
    return Run(PlanNode::HashJoin(PlanNode::Scan("probe", {"pk", "pid"}),
                                  PlanNode::Scan(build, {"bk", "id"}), kind,
                                  {"pk"}, {"bk"}));
  }

  // Nested-loop reference: probe rows in order, each probe row's matches
  // newest build row first; `pad` adds (pid, -1) for a probe row without
  // a match, `first_only` keeps a probe row once if it has any match.
  std::vector<std::pair<int32_t, int32_t>> Reference(
      const std::string& build, bool pad, bool first_only,
      bool misses_only = false) {
    TablePtr b = catalog_.GetTable(build);
    TablePtr p = catalog_.GetTable("probe");
    std::vector<std::pair<int32_t, int32_t>> out;
    for (int64_t r = 0; r < p->num_rows(); ++r) {
      const auto pk = std::get<int64_t>(p->Get(r, 0));
      const auto pid = std::get<int32_t>(p->Get(r, 1));
      bool matched = false;
      for (int64_t br = b->num_rows() - 1; br >= 0; --br) {
        if (std::get<int64_t>(b->Get(br, 0)) != pk) continue;
        matched = true;
        if (first_only) break;
        if (!misses_only) out.push_back({pid, std::get<int32_t>(b->Get(br, 1))});
      }
      if (first_only && matched && !misses_only) out.push_back({pid, -1});
      if (!matched && (pad || misses_only)) out.push_back({pid, -1});
    }
    return out;
  }

  // (pid, id) pairs of a join result; id is -1 when the join emits no
  // build columns, and the pad value 0 is reported as -1 for pads.
  static std::vector<std::pair<int32_t, int32_t>> Pairs(const Table& t,
                                                        bool padded) {
    std::vector<std::pair<int32_t, int32_t>> out;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      const auto pid = std::get<int32_t>(t.Get(r, 1));
      int32_t id = -1;
      if (t.num_columns() == 4) {
        id = std::get<int32_t>(t.Get(r, 3));
        if (padded && std::get<int64_t>(t.Get(r, 0)) >= 7) {
          EXPECT_EQ(std::get<int64_t>(t.Get(r, 2)), 0);  // pad row
          EXPECT_EQ(id, 0);
          id = -1;
        }
      }
      out.push_back({pid, id});
    }
    return out;
  }

  Catalog catalog_;
};

TEST_F(HashTableTest, DuplicateBuildKeysMatchNewestBuildRowFirst) {
  // Every kind emits in probe order, each probe row's matches newest
  // build row first (the order the node-based multimap produced).
  EXPECT_EQ(Pairs(*Join("build", JoinKind::kInner), false),
            Reference("build", false, false));
  EXPECT_EQ(Pairs(*Join("build", JoinKind::kLeftOuter), true),
            Reference("build", true, false));
  EXPECT_EQ(Pairs(*Join("build", JoinKind::kSemi), false),
            Reference("build", false, true));
  EXPECT_EQ(Pairs(*Join("build", JoinKind::kAnti), false),
            Reference("build", false, true, true));
  EXPECT_EQ(Pairs(*Join("unique", JoinKind::kSingle), false),
            Reference("unique", false, false));
  // Spot-check the head of the inner join: probe pk 0 meets build rows
  // with bk 0, i.e. ids 2996, 2989, ... descending by 7.
  TablePtr inner = Join("build", JoinKind::kInner);
  ASSERT_GT(inner->num_rows(), 2);
  EXPECT_EQ(std::get<int32_t>(inner->Get(0, 3)), 2996);
  EXPECT_EQ(std::get<int32_t>(inner->Get(1, 3)), 2989);
}

TEST_F(HashTableTest, GroupGrowthKeepsFirstSeenOrder) {
  // 110000 distinct (string, int64) keys in a scrambled first-seen
  // order, each seen about twice: the table doubles many times.
  constexpr int kRows = 200000;
  constexpr int kKeys = 110000;
  TablePtr t = MakeTable(Schema({{"s", TypeId::kString},
                                 {"x", TypeId::kInt64},
                                 {"v", TypeId::kDouble}}));
  struct Ref {
    int64_t first = 0;
    int64_t count = 0;
    double sum = 0;
  };
  std::map<std::pair<std::string, int64_t>, Ref> ref;
  for (int i = 0; i < kRows; ++i) {
    const int64_t id = (int64_t{i} * 7919) % kKeys;
    std::string s = "s" + std::to_string(id % 1000);
    const int64_t x = id / 1000;
    const double v = 0.25 * (i % 13);
    auto [it, inserted] = ref.try_emplace({s, x});
    if (inserted) it->second.first = i;
    ++it->second.count;
    it->second.sum += v;
    t->AppendRow({std::move(s), x, v});
  }
  ASSERT_TRUE(catalog_.RegisterTable("wide", t).ok());
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("wide", {"s", "x", "v"}), {"s", "x"},
      {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"},
       {AggFunc::kSum, Expr::Column("v"), "sv"}}));
  ASSERT_EQ(r->num_rows(), kKeys);
  std::vector<std::pair<int64_t, std::pair<std::string, int64_t>>> order;
  for (const auto& [key, v] : ref) order.push_back({v.first, key});
  std::sort(order.begin(), order.end());
  for (int64_t g = 0; g < r->num_rows(); ++g) {
    const auto& key = order[g].second;
    const Ref& want = ref.at(key);
    ASSERT_EQ(std::get<std::string>(r->Get(g, 0)), key.first) << g;
    ASSERT_EQ(std::get<int64_t>(r->Get(g, 1)), key.second) << g;
    ASSERT_EQ(std::get<int64_t>(r->Get(g, 2)), want.count) << g;
    ASSERT_EQ(std::get<double>(r->Get(g, 3)), want.sum) << g;  // same order
  }
}

TEST_F(HashTableTest, SignedZeroAndNaNKeysHashByBitsCompareByEquality) {
  // Keys hash by bit pattern and match by ==: 0.0 and -0.0 land in
  // different groups and never join; NaN never equals itself, so every
  // NaN row is its own group and never joins.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TablePtr t = MakeTable(Schema({{"d", TypeId::kDouble}}));
  for (double d : {0.0, -0.0, nan, nan, 0.0, -0.0}) t->AppendRow({d});
  ASSERT_TRUE(catalog_.RegisterTable("dbl", t).ok());
  TablePtr groups = Run(PlanNode::Aggregate(
      PlanNode::Scan("dbl", {"d"}), {"d"},
      {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}}));
  ASSERT_EQ(groups->num_rows(), 4);
  const double g0 = std::get<double>(groups->Get(0, 0));
  const double g1 = std::get<double>(groups->Get(1, 0));
  EXPECT_TRUE(g0 == 0.0 && !std::signbit(g0));
  EXPECT_TRUE(g1 == 0.0 && std::signbit(g1));
  EXPECT_TRUE(std::isnan(std::get<double>(groups->Get(2, 0))));
  EXPECT_TRUE(std::isnan(std::get<double>(groups->Get(3, 0))));
  EXPECT_EQ(std::get<int64_t>(groups->Get(0, 1)), 2);
  EXPECT_EQ(std::get<int64_t>(groups->Get(1, 1)), 2);
  EXPECT_EQ(std::get<int64_t>(groups->Get(2, 1)), 1);
  EXPECT_EQ(std::get<int64_t>(groups->Get(3, 1)), 1);

  TablePtr b = MakeTable(Schema({{"e", TypeId::kDouble}}));
  for (double d : {-0.0, nan, 0.0}) b->AppendRow({d});
  ASSERT_TRUE(catalog_.RegisterTable("dbl_build", b).ok());
  TablePtr joined = Run(PlanNode::HashJoin(
      PlanNode::Scan("dbl", {"d"}), PlanNode::Scan("dbl_build", {"e"}),
      JoinKind::kInner, {"d"}, {"e"}));
  // Four zero rows each meet exactly their own sign.
  ASSERT_EQ(joined->num_rows(), 4);
  for (int64_t r = 0; r < joined->num_rows(); ++r) {
    const double d = std::get<double>(joined->Get(r, 0));
    const double e = std::get<double>(joined->Get(r, 1));
    EXPECT_EQ(std::signbit(d), std::signbit(e));
  }
  TablePtr anti = Run(PlanNode::HashJoin(
      PlanNode::Scan("dbl", {"d"}), PlanNode::Scan("dbl_build", {"e"}),
      JoinKind::kAnti, {"d"}, {"e"}));
  EXPECT_EQ(anti->num_rows(), 2);  // the two NaN rows
}

TEST_F(HashTableTest, Int64MinMaxBeyond2To53CompareAsDoubles) {
  // MIN/MAX order values as DatumCompare does, through double: above
  // 2^53 neighbouring int64 values tie, and a tie keeps the first seen.
  const int64_t p53 = int64_t{1} << 53;
  const int64_t p62 = int64_t{1} << 62;
  TablePtr t = MakeTable(Schema({{"g", TypeId::kInt32},
                                 {"x", TypeId::kInt64}}));
  const std::vector<std::pair<int32_t, int64_t>> rows = {
      {0, p53 + 1}, {0, p53}, {0, p53 + 2},
      {1, p62 + 3}, {1, p62}, {1, p62 + 1},
      {2, -p62 - 1}, {2, -p62}, {2, 7}};
  for (const auto& [g, x] : rows) t->AppendRow({g, x});
  ASSERT_TRUE(catalog_.RegisterTable("big", t).ok());
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("big", {"g", "x"}), {"g"},
      {{AggFunc::kMin, Expr::Column("x"), "mn"},
       {AggFunc::kMax, Expr::Column("x"), "mx"}}));
  ASSERT_EQ(r->num_rows(), 3);
  // Group 0: p53+1 and p53 tie as doubles; p53+2 is strictly larger.
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 1)), p53 + 1);
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 2)), p53 + 2);
  // Group 1: all three round to 2^62, so the first seen wins both.
  EXPECT_EQ(std::get<int64_t>(r->Get(1, 1)), p62 + 3);
  EXPECT_EQ(std::get<int64_t>(r->Get(1, 2)), p62 + 3);
  EXPECT_EQ(std::get<int64_t>(r->Get(2, 1)), -p62 - 1);
  EXPECT_EQ(std::get<int64_t>(r->Get(2, 2)), 7);
  // The global aggregate takes the same path from its implicit group.
  TablePtr global = Run(PlanNode::Aggregate(
      PlanNode::Scan("big", {"x"}), {},
      {{AggFunc::kMin, Expr::Column("x"), "mn"},
       {AggFunc::kMax, Expr::Column("x"), "mx"}}));
  EXPECT_EQ(std::get<int64_t>(global->Get(0, 0)), -p62 - 1);
  EXPECT_EQ(std::get<int64_t>(global->Get(0, 1)), p62 + 3);
}

// ---------------------------------------------------------------------------
// Scratch reuse across threads
// ---------------------------------------------------------------------------

// Join + grouped aggregate over the operator fixture's tables.
PlanPtr JoinAggPlan(ExprPtr bound) {
  return PlanNode::Aggregate(
      PlanNode::HashJoin(
          PlanNode::Select(PlanNode::Scan("t", {"k", "g", "v"}),
                           Expr::Lt(Expr::Column("k"), std::move(bound))),
          PlanNode::Scan("dim", {"dk", "name"}), JoinKind::kInner, {"k"},
          {"dk"}),
      {"g", "name"},
      {{AggFunc::kSum, Expr::Column("v"), "sv"},
       {AggFunc::kCount, Expr::Literal(int64_t{1}), "c"},
       {AggFunc::kMax, Expr::Column("name"), "mx"}});
}

TEST_F(OperatorTest, ScratchBorrowedOnOneThreadReleasedOnAnother) {
  PlanPtr plan = JoinAggPlan(Expr::Literal(int64_t{80}));
  plan->Bind(catalog_);
  Executor exec(&catalog_);
  const auto want = recycledb::testing::RowMultiset(*exec.Run(plan).table);
  // Each round builds its operator tree here, drains it on one thread
  // and destroys it (releasing its scratch) on another.
  for (int round = 0; round < 4; ++round) {
    std::vector<std::future<std::pair<OperatorPtr, TablePtr>>> drained;
    for (int w = 0; w < 4; ++w) {
      OperatorPtr op = exec.BuildOperator(plan, nullptr, nullptr);
      drained.push_back(std::async(
          std::launch::async, [op = std::move(op)]() mutable {
            op->Open();
            TablePtr out = MakeTable(op->output_schema());
            Batch b;
            while (op->Next(&b)) out->AppendBatch(b);
            op->Close();
            return std::make_pair(std::move(op), out);
          }));
    }
    std::vector<std::thread> releasers;
    for (auto& f : drained) {
      auto [op, out] = f.get();
      EXPECT_EQ(recycledb::testing::RowMultiset(*out), want);
      releasers.emplace_back([op = std::move(op)]() mutable { op.reset(); });
    }
    for (auto& t : releasers) t.join();
  }
}

TEST(ScratchReuse, PreparedStatementSubmitFuturesMatchSerialResults) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kOff;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  TablePtr t = MakeTable(Schema({{"k", TypeId::kInt32},
                                 {"g", TypeId::kString},
                                 {"v", TypeId::kDouble}}));
  for (int i = 0; i < 5000; ++i) {
    t->AppendRow({int32_t{i}, std::string(i % 3 == 0 ? "a" : "b"),
                  static_cast<double>(i % 100)});
  }
  ASSERT_TRUE(db->CreateTable("t", t).ok());
  TablePtr d = MakeTable(Schema({{"dk", TypeId::kInt32},
                                 {"name", TypeId::kString}}));
  for (int i = 0; i < 100; i += 2) {
    d->AppendRow({int32_t{i}, std::string("dim") + std::to_string(i)});
  }
  ASSERT_TRUE(db->CreateTable("dim", d).ok());
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(
      Query::FromPlan(JoinAggPlan(Expr::Param("bound"))), &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();
  std::vector<std::multiset<std::string>> want;
  for (int64_t b = 10; b <= 100; b += 10) {
    Result r = stmt->Execute({{"bound", b}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    want.push_back(recycledb::testing::RowMultiset(*r.table()));
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<Result>> futures;
    for (int64_t b = 10; b <= 100; b += 10) {
      futures.push_back(stmt->Bind("bound", b).Submit());
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      Result r = futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(recycledb::testing::RowMultiset(*r.table()), want[i]);
    }
  }
}

}  // namespace
}  // namespace recycledb
