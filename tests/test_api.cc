// Tests for the public embeddable API: Database/Session facade, fluent
// Query builder, parameterized PreparedStatements (rebinding reuse,
// template stats, session isolation) and recoverable validation errors.
#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "recycledb/recycledb.h"

namespace recycledb {
namespace {

TablePtr MakeSalesTable(int rows = 20000) {
  Schema schema({{"city", TypeId::kString},
                 {"year", TypeId::kInt32},
                 {"sales", TypeId::kDouble}});
  TablePtr t = MakeTable(schema);
  const char* cities[] = {"Edinburgh", "Amsterdam", "Brisbane"};
  Rng rng(7);
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({std::string(cities[rng.Uniform(0, 2)]),
                  static_cast<int32_t>(rng.Uniform(2005, 2012)),
                  static_cast<double>(rng.Uniform(10, 5000))});
  }
  return t;
}

std::unique_ptr<Database> OpenSalesDb(
    RecyclerMode mode = RecyclerMode::kSpeculation) {
  DatabaseOptions options;
  options.recycler.mode = mode;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  EXPECT_TRUE(db->CreateTable("sales", MakeSalesTable()).ok());
  return db;
}

Query SalesSince(Database& db, ExprPtr cutoff) {
  return db.Scan("sales", {"city", "year", "sales"})
      .Filter(Expr::Ge(Expr::Column("year"), std::move(cutoff)))
      .Aggregate({"city"}, {{AggFunc::kSum, Expr::Column("sales"), "total"}})
      .OrderBy({{"total", false}});
}

// ---------------------------------------------------------------------------
// Configuration validation (Database::Open)
// ---------------------------------------------------------------------------

TEST(ConfigValidation, RejectsNonPositiveStallTimeout) {
  RecyclerConfig cfg;
  cfg.stall_timeout_ms = 0;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg.stall_timeout_ms = -5;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, RejectsNonsensicalCacheBytes) {
  RecyclerConfig cfg;
  cfg.cache_bytes = 17;  // bytes-vs-megabytes mistake: holds nothing
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg.cache_bytes = 0;  // explicitly disabled: valid
  EXPECT_TRUE(ValidateRecyclerConfig(cfg).ok());
  cfg.cache_bytes = -1;  // unlimited: valid
  EXPECT_TRUE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, RejectsBadAgingAlphaAndLimits) {
  RecyclerConfig cfg;
  cfg.aging_alpha = 0.0;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg.aging_alpha = 1.5;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg = RecyclerConfig();
  cfg.speculation_buffer_cap = -1;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, RejectsBadColdTierOptions) {
  RecyclerConfig cfg;
  cfg.spill_dir = "/tmp/rdb-spill-validate";
  cfg.cold_tier_capacity_bytes = 0;
  Status st = ValidateRecyclerConfig(cfg);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cold_tier_capacity_bytes"), std::string::npos);
  cfg.cold_tier_capacity_bytes = -4096;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());

  // Capacity only matters once a spill_dir enables the tier.
  cfg = RecyclerConfig();
  cfg.cold_tier_capacity_bytes = 0;
  EXPECT_TRUE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, OpenRejectsUnwritableSpillDir) {
  DatabaseOptions options;
  // /proc is not writable even for root; directory creation must fail
  // with an actionable message rather than degrading silently.
  options.recycler.spill_dir = "/proc/rdb-no-such-spill-dir";
  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("spill_dir"), std::string::npos);
  EXPECT_EQ(db, nullptr);
}

TEST(ConfigValidation, OpenReturnsStatusAndLeavesOutUntouched) {
  DatabaseOptions options;
  options.recycler.stall_timeout_ms = -1;
  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(db, nullptr);

  options = DatabaseOptions();
  options.max_concurrent = 0;
  EXPECT_FALSE(Database::Open(options, &db).ok());

  options = DatabaseOptions();
  EXPECT_TRUE(Database::Open(options, &db).ok());
  ASSERT_NE(db, nullptr);
}

// ---------------------------------------------------------------------------
// Fluent builder & Explain
// ---------------------------------------------------------------------------

TEST(QueryBuilder, BuildsExpectedPlanShape) {
  auto db = OpenSalesDb();
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  ASSERT_NE(q.plan(), nullptr);
  EXPECT_EQ(q.plan()->type(), OpType::kOrderBy);
  EXPECT_EQ(q.plan()->child()->type(), OpType::kAggregate);
  EXPECT_EQ(q.plan()->child()->child()->type(), OpType::kSelect);
  EXPECT_EQ(q.plan()->child()->child()->child()->type(), OpType::kScan);
  EXPECT_FALSE(q.HasParams());
}

TEST(QueryBuilder, ExplainShowsOperatorsAndParams) {
  auto db = OpenSalesDb();
  Query q = SalesSince(*db, Expr::Param("since"));
  std::string explain = q.Explain();
  EXPECT_NE(explain.find("OrderBy total desc"), std::string::npos);
  EXPECT_NE(explain.find("Aggregate group=[city]"), std::string::npos);
  EXPECT_NE(explain.find("$since"), std::string::npos);
  EXPECT_NE(explain.find("Scan sales [city, year, sales]"),
            std::string::npos);
  EXPECT_TRUE(q.HasParams());
  EXPECT_EQ(q.Params(), std::set<std::string>{"since"});
}

TEST(QueryBuilder, TemplateFingerprintIsBindingIndependent) {
  auto db = OpenSalesDb();
  Query a = SalesSince(*db, Expr::Param("since"));
  Query b = SalesSince(*db, Expr::Param("since"));
  Query c = SalesSince(*db, Expr::Literal(int64_t{2008}));
  EXPECT_EQ(a.TemplateFingerprint(), b.TemplateFingerprint());
  EXPECT_NE(a.TemplateFingerprint(), c.TemplateFingerprint());
}

// ---------------------------------------------------------------------------
// Execution through the facade
// ---------------------------------------------------------------------------

TEST(Facade, ExecuteAdHocQueryAndBatchIteration) {
  auto db = OpenSalesDb();
  Result r = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.num_rows(), 3);
  EXPECT_EQ(r.schema().Names(),
            (std::vector<std::string>{"city", "total"}));

  // Batch iteration covers all rows via zero-copy views.
  int64_t rows = 0;
  for (Batch batch : r.Batches()) {
    rows += batch.num_rows;
    ASSERT_EQ(batch.columns.size(), 2u);
  }
  EXPECT_EQ(rows, r.num_rows());
}

TEST(Facade, RepeatedQueryIsRecycledWithResultStats) {
  auto db = OpenSalesDb();
  Result first = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.recycled());
  Result second = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.recycled());
  EXPECT_GT(second.reuses(), 0);
}

TEST(Facade, ReplaceTableInvalidatesCachedResults) {
  auto db = OpenSalesDb();
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  ASSERT_TRUE(db->Execute(q).ok());
  ASSERT_TRUE(db->Execute(q).recycled());
  // Replacing the table must evict dependents: next run recomputes.
  ASSERT_TRUE(db->ReplaceTable("sales", MakeSalesTable(1000)).ok());
  Result after = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.recycled());
}

// ---------------------------------------------------------------------------
// Prepared statements: rebinding reuse & template stats
// ---------------------------------------------------------------------------

TEST(PreparedStatements, RebindingSameConstantsHitsTheCache) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();
  EXPECT_EQ(stmt->parameters(), std::set<std::string>{"since"});

  Result a1 = stmt->Execute({{"since", int64_t{2008}}});
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_FALSE(a1.recycled());
  EXPECT_EQ(a1.template_prior_runs(), 0);

  Result b1 = stmt->Execute({{"since", int64_t{2010}}});
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(b1.template_prior_runs(), 1);

  // Fresh bindings repeating earlier constants: answered from the cache,
  // visible in the Result stats (the acceptance criterion).
  Result a2 = stmt->Execute({{"since", int64_t{2008}}});
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(a2.recycled());
  Result b2 = stmt->Execute({{"since", int64_t{2010}}});
  ASSERT_TRUE(b2.ok());
  EXPECT_TRUE(b2.recycled());

  TemplateStats ts = stmt->stats();
  EXPECT_EQ(ts.executions, 4);
  EXPECT_GE(ts.reuses, 2);
  EXPECT_GE(ts.materializations, 1);
  EXPECT_EQ(db->StatsForTemplate(stmt->template_hash()).executions, 4);

  // Results agree with an ad-hoc run of the same constants.
  Result adhoc = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(adhoc.ok());
  EXPECT_EQ(adhoc.table()->ToString(100), a2.table()->ToString(100));
}

TEST(PreparedStatements, RebindingGetsSubsumptionHits) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  // Seed the cache with the broad selection.
  ASSERT_TRUE(
      session
          ->Execute(db->Scan("sales", {"city", "year", "sales"})
                        .Filter(Expr::Gt(Expr::Column("sales"),
                                         Expr::Literal(4900.0))))
          .ok());
  // Template refines the broad conjunct with a parameterized equality:
  // every binding is answerable from the cached superset (tuple
  // subsumption), never from an exact match.
  Status st;
  auto stmt = session->Prepare(
      db->Scan("sales", {"city", "year", "sales"})
          .Filter(Expr::And(
              Expr::Gt(Expr::Column("sales"), Expr::Literal(4900.0)),
              Expr::Eq(Expr::Column("year"), Expr::Param("y")))),
      &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();
  int subsumed = 0;
  for (int64_t y : {2006, 2008, 2010}) {
    Result r = stmt->Execute({{"y", y}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    subsumed += r.subsumption_reuses() > 0 ? 1 : 0;
  }
  EXPECT_GT(subsumed, 0);
  EXPECT_GT(stmt->stats().subsumption_reuses, 0);
}

TEST(PreparedStatements, FunctionScanTemplateRebinds) {
  DatabaseOptions options;
  auto db = Database::OpenOrDie(options);
  skyserver::Setup(20000, &db->catalog());
  auto session = db->Connect({});
  Status st;
  auto cone = session->Prepare(skyserver::ConeSearchTemplate(), &st);
  ASSERT_NE(cone, nullptr) << st.ToString();

  ParamMap dominant = {{"ra", 195.0}, {"dec", 2.5}, {"radius", 0.5}};
  Result cold = cone->Execute(dominant);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.recycled());
  Result warm = cone->Execute(dominant);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.recycled());
  EXPECT_EQ(warm.num_rows(), cold.num_rows());

  // A different cone is a different instance of the same template.
  Result other = cone->Execute({{"ra", 10.0}, {"dec", 0.0}, {"radius", 0.5}});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cone->stats().executions, 3);
}

TEST(PreparedStatements, StatementStreamsThroughTheDriver) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();

  // Two streams drawing from the same small binding domain: cross-stream
  // parameter collisions become cache hits (the paper's §V setting).
  std::vector<ParamMap> bindings;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    bindings.push_back({{"since", int64_t{2006 + (int)rng.Uniform(0, 2)}}});
  }
  std::vector<workload::StreamSpec> streams;
  streams.push_back(workload::MakeStatementStream(stmt.get(), bindings, "S"));
  streams.push_back(workload::MakeStatementStream(stmt.get(), bindings, "S"));
  workload::RunReport report = workload::RunStreams(db.get(), streams, 4);
  EXPECT_EQ(report.TotalQueries(), 20);
  EXPECT_GT(report.TotalReuses(), 0);
  // Every driver execution carries the template identity.
  EXPECT_EQ(db->StatsForTemplate(stmt->template_hash()).executions, 20);
}

// ---------------------------------------------------------------------------
// Session isolation & overrides
// ---------------------------------------------------------------------------

TEST(Sessions, TracesAndStatsAreIsolatedPerSession) {
  auto db = OpenSalesDb();
  auto alice = db->Connect([] {
    SessionOptions o;
    o.name = "alice";
    return o;
  }());
  auto bob = db->Connect([] {
    SessionOptions o;
    o.name = "bob";
    return o;
  }());

  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  ASSERT_TRUE(alice->Execute(q).ok());
  ASSERT_TRUE(alice->Execute(q).ok());
  ASSERT_TRUE(bob->Execute(q).ok());

  EXPECT_EQ(alice->stats().queries, 2);
  EXPECT_EQ(bob->stats().queries, 1);
  EXPECT_EQ(alice->traces().size(), 2u);
  EXPECT_EQ(bob->traces().size(), 1u);
  // Bob's single run reused what Alice materialized (shared engine),
  // and his session saw the reuse while Alice's stats are untouched.
  EXPECT_GT(bob->stats().reuses, 0);
  EXPECT_EQ(bob->stats().materializations, 0);
  EXPECT_GT(alice->stats().materializations, 0);
  // The engine-wide counters aggregate across sessions.
  EXPECT_EQ(db->counters().queries.load(), 3);
}

TEST(Sessions, TraceCollectionCanBeDisabled) {
  auto db = OpenSalesDb();
  SessionOptions o;
  o.collect_traces = false;
  auto session = db->Connect(o);
  ASSERT_TRUE(
      session->Execute(SalesSince(*db, Expr::Literal(int64_t{2008}))).ok());
  EXPECT_EQ(session->traces().size(), 0u);
  EXPECT_EQ(session->stats().queries, 1);
}

TEST(Sessions, BypassRecyclerOverride) {
  auto db = OpenSalesDb();
  SessionOptions o;
  o.bypass_recycler = true;
  auto raw = db->Connect(o);
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  Result r1 = raw->Execute(q);
  Result r2 = raw->Execute(q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // No recycling for this session: nothing reused, engine untouched.
  EXPECT_FALSE(r2.recycled());
  EXPECT_EQ(db->counters().queries.load(), 0);
  EXPECT_EQ(r1.table()->ToString(10), r2.table()->ToString(10));
}

// ---------------------------------------------------------------------------
// Async submission
// ---------------------------------------------------------------------------

TEST(AsyncSubmit, FuturesResolveAndShareTheCache) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  std::vector<std::future<Result>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        session->Submit(SalesSince(*db, Expr::Literal(int64_t{2008}))));
  }
  int reused = 0;
  for (auto& f : futures) {
    Result r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.num_rows(), 3);
    reused += r.recycled() ? 1 : 0;
  }
  EXPECT_GT(reused, 0);
  EXPECT_EQ(session->stats().queries, 8);
}

TEST(AsyncSubmit, StatementSubmitRoutesThroughGate) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  auto f1 = stmt->Bind("since", int64_t{2008}).Submit();
  auto f2 = stmt->Bind("since", int64_t{2008}).Submit();
  Result r1 = f1.get();
  Result r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(stmt->stats().executions, 2);
}

// ---------------------------------------------------------------------------
// Errors: unbound parameters, type mismatches, invalid queries
// ---------------------------------------------------------------------------

TEST(Errors, ExecutingParameterizedQueryWithoutPrepareFails) {
  auto db = OpenSalesDb();
  Result r = db->Execute(SalesSince(*db, Expr::Param("since")));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("$since"), std::string::npos);
}

TEST(Errors, UnboundParameterFailsWithExplain) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  Result r = stmt->Execute();  // nothing bound
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unbound parameters: $since"),
            std::string::npos);
  // The message embeds the statement Explain (tree + bindings).
  EXPECT_NE(r.status().message().find("Scan sales"), std::string::npos);
  EXPECT_NE(r.status().message().find("$since=<unbound>"),
            std::string::npos);
}

TEST(Errors, TypeMismatchedBindingFails) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  Result r = stmt->Execute({{"since", std::string("not-a-year")}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("cannot compare"), std::string::npos);
  // Rebinding correctly afterwards works (the statement is not poisoned).
  Result ok = stmt->Execute({{"since", int64_t{2008}}});
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(Errors, UnknownParameterNameIsReported) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  Result r = stmt->Bind("sinc", int64_t{2008}).Execute();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown parameter: $sinc"),
            std::string::npos);
  stmt->ClearBindings();
  EXPECT_TRUE(stmt->Execute({{"since", int64_t{2008}}}).ok());
}

TEST(Errors, StructuralTemplateErrorsSurfaceAtPrepare) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(
      db->Scan("no_such_table", {"x"}).Filter(Expr::Param("p")), &st);
  EXPECT_EQ(stmt, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("no_such_table"), std::string::npos);
}

TEST(Errors, UnknownColumnFailsWithoutAborting) {
  auto db = OpenSalesDb();
  Result r = db->Execute(
      db->Scan("sales", {"city"})
          .Filter(Expr::Gt(Expr::Column("nope"), Expr::Literal(1.0))));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown column: nope"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("Filter"), std::string::npos);
}

TEST(Errors, ScanOfUnknownColumnFails) {
  auto db = OpenSalesDb();
  Result r = db->Execute(db->Scan("sales", {"city", "bogus"}));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("sales.bogus"), std::string::npos);
}

TEST(Errors, FunctionScanArgTypeMismatchFails) {
  DatabaseOptions options;
  auto db = Database::OpenOrDie(options);
  skyserver::Setup(5000, &db->catalog());
  auto session = db->Connect({});
  Status st;
  auto cone = session->Prepare(skyserver::ConeSearchTemplate(), &st);
  ASSERT_NE(cone, nullptr) << st.ToString();
  // Binding a string where fGetNearbyObjEq declares a double must come
  // back as Status, not abort inside the table function.
  Result r = cone->Execute(
      {{"ra", std::string("195")}, {"dec", 2.5}, {"radius", 0.5}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("expected DOUBLE"), std::string::npos);
  // Integer-for-double is an acceptable numeric coercion.
  Result ok = cone->Execute(
      {{"ra", int64_t{195}}, {"dec", 2.5}, {"radius", 0.5}});
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(Errors, ErrorResultAccessorsAreSafe) {
  auto db = OpenSalesDb();
  Result r = db->Execute(db->Scan("sales", {"bogus"}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.table(), nullptr);
  EXPECT_EQ(r.num_rows(), 0);
  EXPECT_EQ(r.schema().num_fields(), 0);
  int batches = 0;
  for (Batch b : r.Batches()) batches += b.num_rows > 0;
  EXPECT_EQ(batches, 0);
  EXPECT_EQ(r.ToString(), r.status().ToString());
}

TEST(AsyncSubmit, SameQuerySubmittedConcurrentlyIsSafe) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  // One Query object, many concurrent submissions: the facade must not
  // race on binding the shared plan nodes (each submission deep-clones).
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  std::vector<std::future<Result>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(session->Submit(q));
  for (auto& f : futures) {
    Result r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.num_rows(), 3);
  }
}

TEST(AsyncSubmit, SessionDestructionDrainsInFlightWork) {
  auto db = OpenSalesDb();
  std::future<Result> f;
  {
    auto session = db->Connect({});
    f = session->Submit(SalesSince(*db, Expr::Literal(int64_t{2008})));
    // Session destroyed here with the submission possibly still running;
    // the destructor must wait it out (no use-after-free).
  }
  Result r = f.get();
  EXPECT_TRUE(r.ok());
}

TEST(Sessions, TraceRingKeepsTheMostRecent) {
  auto db = OpenSalesDb();
  SessionOptions o;
  o.max_traces = 3;
  auto session = db->Connect(o);
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(session->Execute(q).ok());
  std::vector<QueryTrace> traces = session->traces();
  ASSERT_EQ(traces.size(), 3u);
  // Oldest-first, and strictly the latest three query ids.
  EXPECT_LT(traces[0].query_id, traces[1].query_id);
  EXPECT_LT(traces[1].query_id, traces[2].query_id);
  EXPECT_EQ(session->stats().queries, 5);
}

TEST(Errors, ComparingStringColumnToNumberFails) {
  auto db = OpenSalesDb();
  Result r = db->Execute(
      db->Scan("sales", {"city", "sales"})
          .Filter(Expr::Eq(Expr::Column("city"), Expr::Literal(int64_t{1}))));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Errors, JoinKeyTypeMismatchFails) {
  auto db = OpenSalesDb();
  Schema s({{"y64", TypeId::kInt64}, {"w", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  t->AppendRow({int64_t{2008}, 1.0});
  ASSERT_TRUE(db->CreateTable("aux", t).ok());
  // year is INT32, y64 is INT64: the join comparator requires identical
  // key types, so this must fail validation instead of aborting later.
  Result r = db->Execute(
      db->Scan("sales", {"city", "year"})
          .Join(db->Scan("aux", {"y64", "w"}), JoinKind::kInner, {"year"},
                {"y64"}));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("join key type mismatch"),
            std::string::npos);
}

/// One rule of the shared type checker and a query that breaks it. The
/// query is built over `in` (sales columns city/year/sales), so the
/// prepared variant, whose `in` carries a parameter, puts the offending
/// operator on the re-validated parameterized spine.
struct CheckerCase {
  const char* rule;      // expected message fragment
  const char* op;        // expected operator in the embedded Explain
  std::function<Query(Database&, const Query& in)> build;
};

TEST(Errors, CheckerRulesRejectWithoutAborting) {
  auto item = [](ExprPtr e, const char* name) {
    return ProjItem{std::move(e), name};
  };
  auto bin = [](ExprPtr v, ExprPtr width) {
    return Expr::Func("bin", {std::move(v), std::move(width)});
  };
  const std::vector<CheckerCase> cases = {
      {"bin width must be a positive number", "Project",
       [&](Database&, const Query& in) {
         return in.Project({item(
             bin(Expr::Column("sales"), Expr::Literal(int64_t{0})), "b")});
       }},
      {"bin width must be a positive number", "Project",
       [&](Database&, const Query& in) {
         return in.Project({item(
             bin(Expr::Column("sales"), Expr::Literal(int64_t{-5})), "b")});
       }},
      {"bin width must be a literal", "Project",
       [&](Database&, const Query& in) {
         return in.Project(
             {item(bin(Expr::Column("sales"), Expr::Column("year")), "b")});
       }},
      {"year argument must be a date", "Project",
       [&](Database&, const Query& in) {
         return in.Project(
             {item(Expr::Func("year", {Expr::Column("city")}), "y")});
       }},
      {"CASE condition is not boolean", "Project",
       [&](Database&, const Query& in) {
         return in.Project({item(Expr::Case(Expr::Column("sales"),
                                            Expr::Literal(int64_t{1}),
                                            Expr::Literal(int64_t{2})),
                                 "c")});
       }},
      {"IN list value type mismatch", "Filter",
       [&](Database&, const Query& in) {
         return in.Filter(Expr::In(Expr::Column("city"),
                                   {Datum(int64_t{1}), Datum(int64_t{2})}));
       }},
      {"union children arity mismatch", "UnionAll",
       [&](Database&, const Query& in) {
         return in.Project({item(Expr::Column("city"), "c")})
             .Union(in.Project({item(Expr::Column("city"), "c"),
                                item(Expr::Column("year"), "y")}));
       }},
      {"union children type mismatch", "UnionAll",
       [&](Database&, const Query& in) {
         return in.Project({item(Expr::Column("city"), "c")})
             .Union(in.Project({item(Expr::Column("year"), "c")}));
       }},
      {"top-N limit must be positive", "TopN",
       [&](Database&, const Query& in) {
         return in.TopN({{"sales", false}}, 0);
       }},
      {"top-N limit must be positive", "TopN",
       [&](Database&, const Query& in) {
         return in.TopN({{"sales", false}}, -3);
       }},
      {"duplicate join output column: year", "HashJoin",
       [&](Database& db, const Query& in) {
         return in.Join(db.Scan("sales", {"year"}), JoinKind::kInner,
                        {"year"}, {"year"});
       }},
      {"scan selects no columns", "Scan sales",
       [&](Database& db, const Query& in) {
         return in.Join(db.Scan("sales", {}), JoinKind::kSemi, {"year"},
                        {"year"});
       }},
  };

  auto db = OpenSalesDb();
  auto session = db->Connect({});
  const std::vector<std::string> cols = {"city", "year", "sales"};
  auto expect_rejected = [](const Status& st, const CheckerCase& c) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(c.rule), std::string::npos) << st.ToString();
    EXPECT_NE(st.message().find(c.op), std::string::npos) << st.ToString();
  };
  for (const CheckerCase& c : cases) {
    SCOPED_TRACE(c.rule);
    // Ad hoc: Session::Execute validates the whole plan.
    Result r = session->Execute(c.build(*db, db->Scan("sales", cols)));
    EXPECT_FALSE(r.ok());
    expect_rejected(r.status(), c);

    // Prepared: the error surfaces at Prepare when the offending node is
    // parameter-free, else when Execute re-validates the bound spine.
    Query in = db->Scan("sales", cols)
                   .Filter(Expr::Ge(Expr::Column("year"), Expr::Param("y")));
    Status st;
    auto stmt = session->Prepare(c.build(*db, in), &st);
    if (stmt == nullptr) {
      expect_rejected(st, c);
      continue;
    }
    Result pr = stmt->Execute({{"y", int64_t{2008}}});
    EXPECT_FALSE(pr.ok());
    expect_rejected(pr.status(), c);
  }
  // The session is not poisoned by any of the rejections.
  EXPECT_TRUE(session->Execute(db->Scan("sales", cols)).ok());
}

TEST(Sessions, ConcurrentPrepareOfOneSharedQueryIsSafe) {
  auto db = OpenSalesDb();
  // One Query template shared by two client threads, each with its own
  // session: Prepare must not mutate the shared plan (it deep-clones).
  Query q = SalesSince(*db, Expr::Param("since"));
  auto worker = [&db, &q](int64_t since) {
    auto session = db->Connect({});
    Status st;
    auto stmt = session->Prepare(q, &st);
    ASSERT_NE(stmt, nullptr) << st.ToString();
    Result r = stmt->Execute({{"since", since}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.num_rows(), 3);
  };
  std::thread t1(worker, int64_t{2008});
  std::thread t2(worker, int64_t{2010});
  t1.join();
  t2.join();
}

}  // namespace
}  // namespace recycledb
