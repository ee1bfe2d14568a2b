// Tests for proactive strategies (§IV-B): top-N caching, cube caching
// with selections (incl. the pull-up case), cube caching with binning,
// and the gating logic in PA mode.
#include <gtest/gtest.h>

#include "recycler/proactive.h"
#include "recycler/recycler.h"
#include "test_util.h"

namespace recycledb {
namespace {

class ProactiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"grp", TypeId::kString},
              {"cat", TypeId::kInt32},   // low-cardinality (8 values)
              {"val", TypeId::kDouble},
              {"when_d", TypeId::kDate}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 20000; ++i) {
      int32_t day = MakeDate(1994, 1, 1) + i % 1400;  // ~ 4 years of dates
      t->AppendRow({std::string(i % 2 == 0 ? "A" : "B"), int32_t{i % 8},
                    static_cast<double>(i % 211), day});
    }
    ASSERT_TRUE(catalog_.RegisterTable("f", t).ok());
  }

  /// Aggregate(grp; sum, count, avg) over Select(pred) over Scan.
  PlanPtr AggOverSelect(ExprPtr pred) {
    return PlanNode::Aggregate(
        PlanNode::Select(PlanNode::Scan("f", {"grp", "cat", "val", "when_d"}),
                         std::move(pred)),
        {"grp"},
        {{AggFunc::kSum, Expr::Column("val"), "sv"},
         {AggFunc::kCount, Expr::Literal(int64_t{1}), "cnt"},
         {AggFunc::kAvg, Expr::Column("val"), "av"}});
  }

  std::multiset<std::string> RunOff(const PlanPtr& plan) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kOff;
    Recycler off(&catalog_, cfg);
    return recycledb::testing::RowMultiset(*off.Execute(plan).table);
  }

  Catalog catalog_;
};

TEST_F(ProactiveTest, TopNRewriteShape) {
  PlanPtr plan = PlanNode::TopN(PlanNode::Scan("f", {"val"}),
                                {{"val", false}}, 25);
  PlanPtr rewritten = RewriteTopNProactive(plan, 10000);
  ASSERT_NE(rewritten, plan);
  EXPECT_EQ(rewritten->type(), OpType::kLimit);
  EXPECT_EQ(rewritten->limit(), 25);
  EXPECT_EQ(rewritten->child()->type(), OpType::kTopN);
  EXPECT_EQ(rewritten->child()->limit(), 10000);
  // Already-large top-Ns are untouched.
  PlanPtr big = PlanNode::TopN(PlanNode::Scan("f", {"val"}),
                               {{"val", false}}, 10000);
  EXPECT_EQ(RewriteTopNProactive(big, 10000), big);
}

TEST_F(ProactiveTest, TopNRewritePreservesSemantics) {
  PlanPtr plan = PlanNode::TopN(PlanNode::Scan("f", {"val", "cat"}),
                                {{"val", false}, {"cat", true}}, 25);
  PlanPtr rewritten = RewriteTopNProactive(plan, 10000);
  rewritten->Bind(catalog_);
  EXPECT_EQ(RunOff(rewritten), RunOff(plan->CloneShallow()));
}

TEST_F(ProactiveTest, CubeWithSelectionsRewrite) {
  // cat has 8 distinct values -> qualifies under the threshold.
  PlanPtr plan = AggOverSelect(
      Expr::Eq(Expr::Column("cat"), Expr::Literal(int64_t{3})));
  plan->Bind(catalog_);
  auto cube = TryCubeRewrite(plan, catalog_, kCubeDistinctThreshold);
  ASSERT_TRUE(cube.has_value());
  ASSERT_NE(cube->gate, nullptr);
  EXPECT_EQ(cube->gate->type(), OpType::kAggregate);
  // The gate groups by grp AND cat (extended group by).
  EXPECT_EQ(cube->gate->group_by().size(), 2u);
  cube->plan->Bind(catalog_);
  EXPECT_EQ(RunOff(cube->plan), RunOff(AggOverSelect(Expr::Eq(
                                    Expr::Column("cat"),
                                    Expr::Literal(int64_t{3})))));
}

TEST_F(ProactiveTest, CubeThresholdBlocksHighCardinality) {
  // val has ~211 distinct values; threshold 64 rejects.
  PlanPtr plan = AggOverSelect(
      Expr::Eq(Expr::Column("val"), Expr::Literal(5.0)));
  plan->Bind(catalog_);
  EXPECT_FALSE(
      TryCubeRewrite(plan, catalog_, kCubeDistinctThreshold).has_value());
  // A generous threshold allows it.
  EXPECT_TRUE(TryCubeRewrite(plan, catalog_, 1000).has_value());
}

TEST_F(ProactiveTest, CubePullUpWhenPredicateOnGroupColumns) {
  // Selection on grp (a grouping column): selection commutes with the
  // aggregation -> Select over the unfiltered aggregate.
  PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Select(PlanNode::Scan("f", {"grp", "val"}),
                       Expr::Eq(Expr::Column("grp"),
                                Expr::Literal(std::string("A")))),
      {"grp"}, {{AggFunc::kSum, Expr::Column("val"), "sv"}});
  plan->Bind(catalog_);
  auto cube = TryCubeRewrite(plan, catalog_, kCubeDistinctThreshold);
  ASSERT_TRUE(cube.has_value());
  EXPECT_EQ(cube->plan->type(), OpType::kSelect);
  EXPECT_EQ(cube->plan->child(), cube->gate);
  cube->plan->Bind(catalog_);
  EXPECT_EQ(RunOff(cube->plan), RunOff(plan->CloneShallow()));
}

TEST_F(ProactiveTest, CubeWithBinningRewrite) {
  int32_t cutoff = MakeDate(1996, 3, 17);
  PlanPtr plan = AggOverSelect(Expr::Le(Expr::Column("when_d"),
                                        Expr::Literal(cutoff)));
  plan->Bind(catalog_);
  auto cube = TryCubeRewrite(plan, catalog_, kCubeDistinctThreshold);
  ASSERT_TRUE(cube.has_value());
  // The gate is the year-binned cube.
  EXPECT_EQ(cube->gate->type(), OpType::kAggregate);
  bool has_year_group = false;
  for (const auto& g : cube->gate->group_by()) {
    if (g.find("_year") != std::string::npos) has_year_group = true;
  }
  EXPECT_TRUE(has_year_group);
  cube->plan->Bind(catalog_);
  EXPECT_EQ(RunOff(cube->plan),
            RunOff(AggOverSelect(
                Expr::Le(Expr::Column("when_d"), Expr::Literal(cutoff)))));
}

TEST_F(ProactiveTest, BinningHandlesStrictLessThan) {
  int32_t cutoff = MakeDate(1997, 1, 1);
  PlanPtr plan = AggOverSelect(Expr::Lt(Expr::Column("when_d"),
                                        Expr::Literal(cutoff)));
  plan->Bind(catalog_);
  auto cube = TryCubeRewrite(plan, catalog_, kCubeDistinctThreshold);
  ASSERT_TRUE(cube.has_value());
  cube->plan->Bind(catalog_);
  EXPECT_EQ(RunOff(cube->plan),
            RunOff(AggOverSelect(
                Expr::Lt(Expr::Column("when_d"), Expr::Literal(cutoff)))));
}

TEST_F(ProactiveTest, RewriteFindsNestedPattern) {
  // The Aggregate-over-Select sits under an OrderBy: the rewriter splices.
  PlanPtr inner = AggOverSelect(
      Expr::Eq(Expr::Column("cat"), Expr::Literal(int64_t{2})));
  PlanPtr plan = PlanNode::OrderBy(inner, {{"grp", true}});
  plan->Bind(catalog_);
  auto cube = TryCubeRewrite(plan, catalog_, kCubeDistinctThreshold);
  ASSERT_TRUE(cube.has_value());
  EXPECT_EQ(cube->plan->type(), OpType::kOrderBy);
}

TEST_F(ProactiveTest, PaGatingFirstOriginalThenProactive) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kProactive;
  Recycler rec(&catalog_, cfg);
  auto q = [&](int64_t cat) {
    return AggOverSelect(Expr::Eq(Expr::Column("cat"), Expr::Literal(cat)));
  };
  // First invocation: the gate aggregate is unknown -> original plan runs
  // (but the proactive variant is inserted and scored).
  QueryTrace t1;
  rec.Execute(q(1), &t1);
  EXPECT_FALSE(t1.used_proactive);
  // Second invocation (different parameter, same pattern): the gate has
  // history -> the proactive plan executes and caches the cube.
  QueryTrace t2;
  rec.Execute(q(2), &t2);
  EXPECT_TRUE(t2.used_proactive);
  // Third invocation: answered from the cached cube.
  QueryTrace t3;
  ExecResult r3 = rec.Execute(q(3), &t3);
  EXPECT_TRUE(t3.used_proactive);
  EXPECT_GE(t3.num_reuses, 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r3.table), RunOff(q(3)));
}

TEST_F(ProactiveTest, PaModeMatchesOffResultsOnMixedWorkload) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kProactive;
  Recycler rec(&catalog_, cfg);
  for (int round = 0; round < 3; ++round) {
    for (int64_t cat = 0; cat < 4; ++cat) {
      PlanPtr q = AggOverSelect(
          Expr::Eq(Expr::Column("cat"), Expr::Literal(cat)));
      PlanPtr q2 = AggOverSelect(
          Expr::Eq(Expr::Column("cat"), Expr::Literal(cat)));
      ExecResult r = rec.Execute(q);
      EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), RunOff(q2))
          << "round " << round << " cat " << cat;
    }
  }
}

}  // namespace
}  // namespace recycledb
