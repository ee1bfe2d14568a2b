// Concurrent-recycler stress tests: N threads executing overlapping plans
// (reuse + stall + eviction under contention), invalidation and flush
// racing in-flight scans, and the stall-timeout path. These are the tests
// the CI ThreadSanitizer job runs; they extend the shared-ownership
// lifetime guarantees of tests/test_views.cc to genuinely concurrent
// streams.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "recycler/recycler.h"
#include "test_util.h"
#include "trace/trace_format.h"
#include "workload/driver.h"

namespace recycledb {
namespace {

/// Reference configuration with recycling off (for expected results).
RecyclerConfig OffConfig() {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kOff;
  return cfg;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 20000; ++i) {
      t->AppendRow({int32_t{i % 100}, static_cast<double>(i % 977)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  /// Aggregate over a selection; distinct thresholds give overlapping
  /// plans that share the scan + selection prefix in the graph.
  PlanPtr AggPlan(int64_t threshold) {
    return PlanNode::Aggregate(
        PlanNode::Select(
            PlanNode::Scan("t", {"k", "v"}),
            Expr::Gt(Expr::Column("k"), Expr::Literal(threshold))),
        {"k"}, {{AggFunc::kSum, Expr::Column("v"), "sv"}});
  }

  /// Verifies the graph settles into a consistent quiescent state: no
  /// node in flight, and cached bookkeeping consistent with the cache.
  void ExpectQuiescentConsistency(Recycler& rec) {
    std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
    int64_t cached_nodes = 0;
    for (const auto& n : rec.graph().nodes()) {
      EXPECT_NE(n->mat_state.load(), MatState::kInFlight) << n->param_fp;
      if (n->mat_state.load() == MatState::kCached) ++cached_nodes;
    }
    EXPECT_EQ(cached_nodes, rec.cache().num_entries());
    if (rec.config().cache_bytes >= 0) {
      EXPECT_LE(rec.cache().used_bytes(), rec.config().cache_bytes);
    }
  }

  Catalog catalog_;
};

TEST_F(ConcurrencyTest, MultiStreamOverlappingPlansUnderContention) {
  // 8 threads x 6 rounds over 4 overlapping plans through one recycler:
  // exercises concurrent matching (shared lock), insertion races (OCC
  // revalidation), store-claim CAS races, reuse, and stalls — the
  // ThreadSanitizer workhorse for the Prepare/OnComplete path.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);

  std::vector<std::multiset<std::string>> expected;
  for (int p = 0; p < 4; ++p) {
    Recycler ref(&catalog_, OffConfig());
    expected.push_back(
        recycledb::testing::RowMultiset(*ref.Execute(AggPlan(p)).table));
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 6; ++round) {
        int p = (i + round) % 4;
        ExecResult r = rec.Execute(AggPlan(p));
        if (recycledb::testing::RowMultiset(*r.table) != expected[p]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(rec.counters().queries.load(), kThreads * 6);
  EXPECT_GT(rec.counters().reuses.load(), 0);
  ExpectQuiescentConsistency(rec);
}

TEST_F(ConcurrencyTest, TinyCacheEvictionChurnStaysConsistent) {
  // A cache far smaller than the working set forces continuous
  // admit/evict churn while other streams reuse and stall: races between
  // OfferResult, eviction, and snapshotting readers all funnel through
  // the cache mutex + mat shards.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.cache_bytes = 8 << 10;  // a couple of aggregate results at most
  Recycler rec(&catalog_, cfg);

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 8; ++round) {
        ExecResult r = rec.Execute(AggPlan((i * 3 + round) % 6));
        if (r.table == nullptr || r.table->num_rows() == 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ExpectQuiescentConsistency(rec);
}

TEST_F(ConcurrencyTest, InvalidateAndFlushRaceInFlightScans) {
  // Extends test_views.cc's lifetime rules across threads: queries that
  // snapshotted a cached result keep valid (zero-copy) data while
  // InvalidateTable / FlushCache concurrently drop the graph's reference.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);

  Recycler ref(&catalog_, OffConfig());
  auto expected =
      recycledb::testing::RowMultiset(*ref.Execute(AggPlan(10)).table);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        ExecResult r = rec.Execute(AggPlan(10));
        if (recycledb::testing::RowMultiset(*r.table) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread sweeper([&] {
    int i = 0;
    while (!stop.load()) {
      if (++i % 2 == 0) {
        rec.InvalidateTable("t");
      } else {
        rec.FlushCache();
      }
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true);
  sweeper.join();
  EXPECT_EQ(mismatches.load(), 0);
  ExpectQuiescentConsistency(rec);
}

TEST_F(ConcurrencyTest, RacingInsertsStayConsistent) {
  // Each round releases every thread at once on the same fresh plan, so
  // they build its nodes outside the exclusive lock concurrently and the
  // later ones revalidate against the first one's published nodes. The
  // graph must hold each node once and every stream must see the bypass
  // result. (Whether a round really overlaps depends on scheduling, so
  // the test does not require a lost race; LostRaceTest forces one.)
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<uint64_t> expected;
  {
    Recycler off(&catalog_, OffConfig());
    for (int r = 0; r < kRounds; ++r) {
      expected.push_back(trace::ResultDigest(*off.Execute(AggPlan(r)).table));
    }
  }
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  std::atomic<int> arrived{0};
  std::vector<char> ok(kThreads * kRounds, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        arrived.fetch_add(1);
        while (arrived.load() < (r + 1) * kThreads) std::this_thread::yield();
        ExecResult res = rec.Execute(AggPlan(r));
        ok[r * kThreads + i] = trace::ResultDigest(*res.table) == expected[r];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int j = 0; j < kThreads * kRounds; ++j) {
    EXPECT_TRUE(ok[j]) << "round " << j / kThreads << " thread "
                       << j % kThreads;
  }
  std::set<std::string> identities;
  {
    std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
    for (const auto& n : rec.graph().nodes()) {
      std::string id = n->param_fp;
      for (const RGNode* c : n->children) id += "@" + std::to_string(c->id);
      EXPECT_TRUE(identities.insert(id).second) << "duplicate node: " << id;
    }
  }
  const int64_t nodes = 1 + 2 * kRounds;  // scan + select/agg per round
  EXPECT_EQ(rec.graph().num_nodes(), nodes);
  EXPECT_EQ(rec.graph().Stats().num_nodes, nodes);
  ExpectQuiescentConsistency(rec);
}

/// Forces a lost insert race deterministically: a statement builds its
/// nodes, then (before it publishes them) a competing statement publishes
/// the same scan/select/aggregate under another alias.
class LostRaceTest : public ConcurrencyTest {
 protected:
  PlanPtr Agg(const std::string& alias) {
    return PlanNode::Aggregate(
        PlanNode::Select(PlanNode::Scan("t", {"k", "v"}),
                         Expr::Gt(Expr::Column("k"), Expr::Literal(10))),
        {"k"}, {{AggFunc::kSum, Expr::Column("v"), alias}});
  }

  void RunLosingTwice(const PlanPtr& query, int64_t expect_nodes) {
    Recycler off(&catalog_, OffConfig());
    const uint64_t expected = trace::ResultDigest(*off.Execute(query).table);
    bool raced = false;
    rec_.SetBeforePublishHook([&] {
      raced = true;
      rec_.Execute(Agg("total"));
    });
    EXPECT_EQ(trace::ResultDigest(*rec_.Execute(query).table), expected);
    EXPECT_TRUE(raced);
    EXPECT_EQ(rec_.graph().num_nodes(), expect_nodes);
    // The graph the race left behind serves the statement again.
    EXPECT_EQ(trace::ResultDigest(*rec_.Execute(query).table), expected);
    EXPECT_EQ(rec_.graph().num_nodes(), expect_nodes);
  }

  /// The graph's only node of `type`.
  RGNode* Only(OpType type) {
    RGNode* found = nullptr;
    for (const auto& n : rec_.graph().nodes()) {
      if (n->type != type) continue;
      EXPECT_EQ(found, nullptr) << "duplicate " << OpTypeName(type);
      found = n.get();
    }
    return found;
  }

  Recycler rec_{&catalog_, RecyclerConfig{}};
};

TEST_F(LostRaceTest, ParentIsRebuiltOverTheWinner) {
  PlanPtr query = PlanNode::Project(
      Agg("sv"), {{Expr::Column("k"), "k"}, {Expr::Column("sv"), "x"}});
  RunLosingTwice(query, /*scan, select, agg, project*/ 4);
  std::shared_lock<std::shared_mutex> lock(rec_.graph().mutex());
  RGNode* agg = Only(OpType::kAggregate);
  RGNode* project = Only(OpType::kProject);
  ASSERT_NE(agg, nullptr);
  ASSERT_NE(project, nullptr);
  // The projection hangs off the competitor's aggregate and names its
  // output by the competitor's graph name.
  EXPECT_EQ(project->children, std::vector<RGNode*>{agg});
  EXPECT_TRUE(Contains(agg->output_names[1], "total#")) << agg->output_names[1];
  EXPECT_TRUE(Contains(project->param_fp, agg->output_names[1]))
      << project->param_fp;
}

TEST_F(LostRaceTest, TwinResolvesToTheWinner) {
  // Both join sides hold the same aggregate subtree, built once (the right
  // one is the left one's twin); the competitor publishes it first.
  PlanPtr right = PlanNode::Project(
      Agg("sv"), {{Expr::Column("k"), "k2"}, {Expr::Column("sv"), "sv2"}});
  PlanPtr query =
      PlanNode::HashJoin(Agg("sv"), right, JoinKind::kInner, {"k"}, {"k2"});
  RunLosingTwice(query, /*scan, select, agg, project, join*/ 5);
  std::shared_lock<std::shared_mutex> lock(rec_.graph().mutex());
  RGNode* agg = Only(OpType::kAggregate);
  RGNode* project = Only(OpType::kProject);
  RGNode* join = Only(OpType::kHashJoin);
  ASSERT_NE(agg, nullptr);
  ASSERT_NE(project, nullptr);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(project->children, std::vector<RGNode*>{agg});
  EXPECT_TRUE(Contains(project->param_fp, agg->output_names[1]))
      << project->param_fp;
  EXPECT_EQ(join->children, (std::vector<RGNode*>{agg, project}));
}

TEST_F(ConcurrencyTest, StallTimeoutFallsBackToExecution) {
  // Deterministic stall coverage: pin a node in kInFlight with no
  // materializer behind it; the next query must stall, hit the timeout,
  // and fall back to executing the subtree itself with a correct result.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.stall_timeout_ms = 50;
  Recycler rec(&catalog_, cfg);

  ExecResult first = rec.Execute(AggPlan(10));
  auto expected = recycledb::testing::RowMultiset(*first.table);

  RGNode* agg = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
    for (const auto& n : rec.graph().nodes()) {
      if (n->type == OpType::kAggregate) agg = n.get();
    }
  }
  ASSERT_NE(agg, nullptr);
  // Simulate an abandoned materializer (e.g. a crashed stream).
  rec.FlushCache();
  agg->mat_state.store(MatState::kInFlight);

  Stopwatch sw;
  QueryTrace trace;
  ExecResult r = rec.Execute(AggPlan(10), &trace);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), expected);
  EXPECT_GE(trace.num_stalls, 1);
  EXPECT_GE(trace.stall_ms, 45.0);  // waited out the timeout
  EXPECT_LT(sw.ElapsedMs(), 10000.0);
  agg->mat_state.store(MatState::kNone);
}

TEST_F(ConcurrencyTest, ColdStartHerdReusesOrStallsAndAgrees) {
  // A herd of threads issuing the identical expensive plan from cold:
  // one claims the speculative store, the rest either stall on the
  // in-flight materialization or reuse the finished result. Repeat with
  // fresh recyclers so the interleaving varies.
  Recycler ref(&catalog_, OffConfig());
  auto expected =
      recycledb::testing::RowMultiset(*ref.Execute(AggPlan(7)).table);

  int64_t reuse_or_stall = 0;
  for (int round = 0; round < 4; ++round) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kSpeculation;
    Recycler rec(&catalog_, cfg);
    constexpr int kThreads = 6;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        ExecResult r = rec.Execute(AggPlan(7));
        if (recycledb::testing::RowMultiset(*r.table) != expected) {
          mismatches.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
    reuse_or_stall +=
        rec.counters().reuses.load() + rec.counters().stalls.load();
    ExpectQuiescentConsistency(rec);
  }
  // Across 4 rounds x 6 threads, sharing must have happened somewhere.
  EXPECT_GT(reuse_or_stall, 0);
}

TEST_F(ConcurrencyTest, WorkloadDriverBoundsConcurrentExecution) {
  // End-to-end through the WorkloadDriver: more stream tasks than
  // execution slots, so the admission gate (not the thread count) is the
  // binding constraint. Also validates the per-stream aggregates.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);

  constexpr int kStreams = 6;
  std::vector<workload::StreamSpec> streams;
  for (int s = 0; s < kStreams; ++s) {
    workload::StreamSpec spec;
    for (int q = 0; q < 4; ++q) {
      spec.labels.push_back("agg" + std::to_string(q % 3));
      spec.plans.push_back(AggPlan(q % 3));
    }
    streams.push_back(std::move(spec));
  }

  workload::DriverOptions options;
  options.max_concurrent = 2;
  options.threads = kStreams;  // oversubscribed: the gate must bound
  workload::WorkloadDriver driver(&rec, options);
  workload::RunReport report = driver.Run(std::move(streams));

  EXPECT_EQ(report.TotalQueries(), kStreams * 4);
  ASSERT_EQ(report.stream_stats.size(), static_cast<size_t>(kStreams));
  for (const auto& ss : report.stream_stats) {
    EXPECT_EQ(ss.queries, 4);
    EXPECT_GT(ss.span_ms, 0.0);
  }
  EXPECT_GT(report.QueriesPerSec(), 0.0);
  EXPECT_GT(report.TotalReuses(), 0);
  EXPECT_GE(report.LatencyPercentileMs(99),
            report.LatencyPercentileMs(50));
  ExpectQuiescentConsistency(rec);
}

}  // namespace
}  // namespace recycledb
