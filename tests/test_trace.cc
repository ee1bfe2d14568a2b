// Trace subsystem tests: record/replay round trips, format robustness
// and Explain determinism.
//
// Contracts checked here:
//  - The datum codec and the JSONL trace grammar round-trip exactly.
//  - Malformed trace input — truncated, corrupt, garbage, version-skewed
//    — always yields a recoverable Status, never an abort (mirroring the
//    cold tier's spill-file rejection tests).
//  - A recorded workload replayed on a fresh Database reproduces result
//    digests AND reuse modes bit for bit single-stream, and result
//    digests (with an aggregate hit-rate gate) at 4x concurrency.
//  - Replay detects deliberate divergence: a chooser change surfaces as
//    mode mismatches, changed base data as digest mismatches.
//  - Explain output is byte-deterministic across engine instances,
//    including stitched UnionAll plans.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "skyserver/skyserver.h"
#include "test_util.h"
#include "trace/recorder.h"
#include "trace/replayer.h"
#include "trace/trace_format.h"
#include "workload/rollup.h"

namespace recycledb {
namespace {

using trace::AppendEvent;
using trace::DecodeDatum;
using trace::EncodeDatum;
using trace::ParseTrace;
using trace::ReplayOptions;
using trace::ReplayReport;
using trace::SerializeTrace;
using trace::StatementEvent;
using trace::Trace;
using trace::TraceEvent;
using trace::TraceHeader;
using trace::TraceRecorder;
using trace::TraceReplayer;

/// Deterministic engine configuration for record/replay tests: unlimited
/// cache (no eviction), calibrated cost model (no wall-clock in
/// decisions) and plan-shape capture for the strict diffs.
DatabaseOptions TraceOptions() {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = -1;
  options.recycler.capture_plan_explain = true;
  return options;
}

// ---------------------------------------------------------------------------
// Datum codec
// ---------------------------------------------------------------------------

TEST(TraceFormatTest, ReuseModeNamesRoundTrip) {
  for (ReuseMode m :
       {ReuseMode::kNone, ReuseMode::kExact, ReuseMode::kColdReadmit,
        ReuseMode::kSubsumption, ReuseMode::kPartialStitch, ReuseMode::kDelta,
        ReuseMode::kAggMerge}) {
    ReuseMode parsed;
    ASSERT_TRUE(ParseReuseMode(ReuseModeName(m), &parsed))
        << ReuseModeName(m);
    EXPECT_EQ(parsed, m);
  }
  ReuseMode parsed;
  EXPECT_FALSE(ParseReuseMode("warp-drive", &parsed));
  EXPECT_FALSE(ParseReuseMode("", &parsed));
}

TEST(TraceFormatTest, DatumCodecRoundTripsExactly) {
  std::vector<Datum> values = {
      std::monostate{},
      true,
      false,
      int32_t{0},
      int32_t{-2147483647},
      int64_t{1234567890123456789},
      int64_t{-42},
      0.0,
      -0.5,
      0.1,                      // not exactly representable in decimal
      1.0 / 3.0,                //
      1e300,                    //
      std::string(""),
      std::string("plain"),
      std::string("tag:colon"),           // ':' inside the payload
      std::string("line\nbreak\t\"q\\"),  // escaping round trip
  };
  for (const Datum& d : values) {
    Datum back;
    const std::string encoded = EncodeDatum(d);
    ASSERT_TRUE(DecodeDatum(encoded, &back).ok()) << encoded;
    EXPECT_EQ(back.index(), d.index()) << encoded;
    EXPECT_TRUE(back == d) << encoded;  // doubles: %a round trip is exact
  }
}

TEST(TraceFormatTest, DatumCodecRejectsMalformed) {
  Datum d;
  for (const char* bad :
       {"", "nope", "i32:", "i32:abc", "i32:12x", "i32:99999999999",
        "i64:", "i64:1e5", "f:", "f:zz", "b:", "b:2", "q:1"}) {
    EXPECT_FALSE(DecodeDatum(bad, &d).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Serialize / parse round trip
// ---------------------------------------------------------------------------

Trace SampleTrace() {
  Trace t;
  t.header.seed = 991;
  t.header.clock_ms = 1234;
  t.header.workload = "sample \"workload\"";
  t.header.mode = "SPEC";
  t.header.tags = {{"objects", "20000"}, {"note", "line\nbreak"}};

  TraceEvent s1;
  s1.kind = TraceEvent::Kind::kStatement;
  s1.statement.sql = "SELECT a FROM t WHERE a >= :lo AND s = 'x\"y'";
  s1.statement.params = {{"lo", int32_t{7}}};
  s1.statement.plan_fingerprint = 0xdeadbeefcafef00dULL;
  s1.statement.template_hash = 42;
  s1.statement.reuse_mode = ReuseMode::kPartialStitch;
  s1.statement.rows = 11;
  s1.statement.digest = 18446744073709551615ULL;  // u64 max: no precision loss
  s1.statement.plan_explain = "UnionAll\n  Scan t\n  Scan t\n";
  t.events.push_back(s1);

  TraceEvent a1;
  a1.kind = TraceEvent::Kind::kAppend;
  a1.append = {"events", 512, 4096};
  t.events.push_back(a1);

  TraceEvent s2;
  s2.kind = TraceEvent::Kind::kStatement;
  s2.statement.sql = "SELECT 1 control\x01char";
  s2.statement.reuse_mode = ReuseMode::kNone;
  t.events.push_back(s2);
  return t;
}

TEST(TraceFormatTest, SerializeParseRoundTrip) {
  Trace t = SampleTrace();
  Trace back;
  ASSERT_TRUE(ParseTrace(SerializeTrace(t), &back).ok());

  EXPECT_EQ(back.header.version, trace::kTraceFormatVersion);
  EXPECT_EQ(back.header.seed, t.header.seed);
  EXPECT_EQ(back.header.clock_ms, t.header.clock_ms);
  EXPECT_EQ(back.header.workload, t.header.workload);
  EXPECT_EQ(back.header.mode, t.header.mode);
  EXPECT_EQ(back.header.tags, t.header.tags);

  ASSERT_EQ(back.events.size(), t.events.size());
  EXPECT_EQ(back.NumStatements(), 2);
  EXPECT_EQ(back.NumAppends(), 1);

  const StatementEvent& s1 = back.events[0].statement;
  EXPECT_EQ(s1.sql, t.events[0].statement.sql);
  EXPECT_TRUE(s1.params == t.events[0].statement.params);
  EXPECT_EQ(s1.plan_fingerprint, t.events[0].statement.plan_fingerprint);
  EXPECT_EQ(s1.template_hash, t.events[0].statement.template_hash);
  EXPECT_EQ(s1.reuse_mode, ReuseMode::kPartialStitch);
  EXPECT_EQ(s1.rows, 11);
  EXPECT_EQ(s1.digest, t.events[0].statement.digest);
  EXPECT_EQ(s1.plan_explain, t.events[0].statement.plan_explain);

  const AppendEvent& a1 = back.events[1].append;
  EXPECT_EQ(a1.table, "events");
  EXPECT_EQ(a1.rows, 512);
  EXPECT_EQ(a1.start_row, 4096);

  EXPECT_EQ(back.events[2].statement.sql, t.events[2].statement.sql);

  // Serialization is deterministic: a round-tripped trace re-serializes
  // byte-identically (golden traces rely on this).
  EXPECT_EQ(SerializeTrace(back), SerializeTrace(t));
}

// ---------------------------------------------------------------------------
// Robustness: corrupt input must fail soft (satellite: mirror the cold
// tier's spill-file rejection)
// ---------------------------------------------------------------------------

TEST(TraceFormatTest, RejectsGarbageInput) {
  Trace out;
  EXPECT_FALSE(ParseTrace("", &out).ok()) << "empty: no header";
  EXPECT_FALSE(ParseTrace("hello world\n", &out).ok());
  EXPECT_FALSE(ParseTrace("{\"kind\":\"header\"", &out).ok())
      << "unterminated object";
  EXPECT_FALSE(ParseTrace("{\"kind\":42}\n", &out).ok())
      << "non-string value";
  EXPECT_FALSE(ParseTrace(std::string("\x00\x01\xff\xfe{]", 6), &out).ok())
      << "binary garbage";
  // Valid JSON, wrong grammar: nested object inside an object.
  EXPECT_FALSE(
      ParseTrace("{\"kind\":\"header\",\"tags\":{\"a\":{\"b\":\"c\"}}}\n",
                 &out)
          .ok());
}

TEST(TraceFormatTest, RejectsStructuralErrors) {
  const std::string header =
      "{\"kind\":\"header\",\"version\":\"1\",\"seed\":\"0\","
      "\"clock_ms\":\"0\",\"workload\":\"w\",\"mode\":\"SPEC\","
      "\"tags\":{}}\n";
  const std::string statement =
      "{\"kind\":\"statement\",\"sql\":\"SELECT 1\",\"plan_fp\":\"1\","
      "\"template\":\"0\",\"mode\":\"none\",\"rows\":\"0\","
      "\"digest\":\"0\"}\n";

  Trace out;
  // The well-formed baseline parses.
  ASSERT_TRUE(ParseTrace(header + statement, &out).ok());

  EXPECT_FALSE(ParseTrace(statement + header, &out).ok())
      << "event before header";
  EXPECT_FALSE(ParseTrace(header + header, &out).ok()) << "duplicate header";
  Status st = ParseTrace(statement, &out);
  EXPECT_FALSE(st.ok()) << "missing header";

  std::string unknown_kind = header +
                             "{\"kind\":\"checkpoint\",\"sql\":\"x\"}\n";
  EXPECT_FALSE(ParseTrace(unknown_kind, &out).ok());

  std::string bad_mode = statement;
  const size_t at = bad_mode.find("none");
  bad_mode.replace(at, 4, "telepathy");
  EXPECT_FALSE(ParseTrace(header + bad_mode, &out).ok()) << "unknown mode";

  std::string missing_digest = statement;
  const size_t dg = missing_digest.find(",\"digest\":\"0\"");
  missing_digest.erase(dg, std::string(",\"digest\":\"0\"").size());
  EXPECT_FALSE(ParseTrace(header + missing_digest, &out).ok());

  std::string bad_params =
      header +
      "{\"kind\":\"statement\",\"sql\":\"SELECT 1\","
      "\"params\":{\"p\":\"i32:oops\"},\"plan_fp\":\"1\",\"template\":\"0\","
      "\"mode\":\"none\",\"rows\":\"0\",\"digest\":\"0\"}\n";
  EXPECT_FALSE(ParseTrace(bad_params, &out).ok()) << "undecodable param";
}

TEST(TraceFormatTest, RejectsVersionSkew) {
  auto with_version = [](const std::string& v) {
    return "{\"kind\":\"header\",\"version\":\"" + v +
           "\",\"seed\":\"0\",\"clock_ms\":\"0\",\"workload\":\"w\","
           "\"mode\":\"SPEC\",\"tags\":{}}\n";
  };
  Trace out;
  ASSERT_TRUE(ParseTrace(with_version("1"), &out).ok());
  Status st = ParseTrace(with_version("2"), &out);
  EXPECT_FALSE(st.ok()) << "forward version skew must be rejected";
  EXPECT_NE(st.message().find("version"), std::string::npos);
  EXPECT_FALSE(ParseTrace(with_version("0"), &out).ok());
  EXPECT_FALSE(ParseTrace(with_version("-3"), &out).ok());
  EXPECT_FALSE(ParseTrace(with_version("banana"), &out).ok());
}

TEST(TraceFormatTest, TruncationAlwaysFailsSoft) {
  const std::string full = SerializeTrace(SampleTrace());
  Trace complete;
  ASSERT_TRUE(ParseTrace(full, &complete).ok());
  // Every prefix must either parse as a (shorter) valid trace — a cut at
  // a line boundary — or come back as a Status; nothing may abort.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Trace out;
    Status st = ParseTrace(full.substr(0, cut), &out);
    if (st.ok()) {
      EXPECT_LE(out.events.size(), complete.events.size()) << "cut " << cut;
    }
  }
}

TEST(TraceFormatTest, ReadTraceFileMissingIsNotFound) {
  Trace out;
  Status st = trace::ReadTraceFile("/nonexistent/trace.jsonl", &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, CapturesSqlAndPreparedStatements) {
  auto db = Database::OpenOrDie(TraceOptions());
  rollup::RollupOptions ropt;
  ropt.initial_rows = 2048;
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());

  TraceHeader header;
  header.seed = ropt.seed;
  header.workload = "recorder_unit";
  header.mode = RecyclerModeName(RecyclerMode::kSpeculation);
  TraceRecorder recorder(header);

  auto session = db->Connect();
  session->set_recorder(&recorder);

  const std::string q = "SELECT ts, sensor, value FROM events"
                        " WHERE value >= 900.0";
  ASSERT_TRUE(session->Sql(q).ok());
  ASSERT_TRUE(session->Sql(q).ok());  // exact repeat: a hit
  ASSERT_FALSE(session->Sql("SELEKT broken").ok());  // skipped, not recorded

  Status prep_status;
  auto stmt = session->Prepare(
      std::string_view("SELECT ts, sensor, value FROM events"
                       " WHERE value >= :lo AND value < :hi"),
      &prep_status);
  ASSERT_NE(stmt, nullptr) << prep_status.ToString();
  ParamMap bindings = {{"lo", 100.0}, {"hi", 400.0}};
  ASSERT_TRUE(stmt->Execute(bindings).ok());

  Trace t = recorder.Snapshot();
  EXPECT_EQ(t.header.workload, "recorder_unit");
  ASSERT_EQ(t.NumStatements(), 3);
  ASSERT_EQ(t.NumAppends(), 0);

  const StatementEvent& first = t.events[0].statement;
  EXPECT_EQ(first.sql, q);
  EXPECT_EQ(first.reuse_mode, ReuseMode::kNone);
  EXPECT_GT(first.rows, 0);
  EXPECT_NE(first.digest, 0u);
  EXPECT_NE(first.plan_fingerprint, 0u);
  EXPECT_FALSE(first.plan_explain.empty());

  const StatementEvent& second = t.events[1].statement;
  EXPECT_EQ(second.reuse_mode, ReuseMode::kExact);
  EXPECT_EQ(second.digest, first.digest);
  EXPECT_EQ(second.rows, first.rows);

  const StatementEvent& third = t.events[2].statement;
  EXPECT_NE(third.sql.find(":lo"), std::string::npos)
      << "template text, not the bound instance";
  EXPECT_TRUE(third.params == bindings);
  EXPECT_NE(third.template_hash, 0u);

  recorder.Clear();
  EXPECT_EQ(recorder.Snapshot().NumStatements(), 0);
  EXPECT_EQ(recorder.Snapshot().header.workload, "recorder_unit");

  // Detach: further statements are not recorded.
  session->set_recorder(&recorder);
  session->set_recorder(nullptr);
  ASSERT_TRUE(session->Sql(q).ok());
  EXPECT_EQ(recorder.Snapshot().NumStatements(), 0);
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Records the rollup append workload: 3 rounds of the fixed statement
/// set with an append between rounds (the delta-maintenance shape, so
/// the trace contains materializations, exact hits, delta refreshes and
/// aggregate merges).
Trace RecordRollupTrace(const rollup::RollupOptions& ropt) {
  auto db = Database::OpenOrDie(TraceOptions());
  EXPECT_TRUE(rollup::Setup(db.get(), ropt).ok());

  TraceHeader header;
  header.seed = ropt.seed;
  header.workload = "rollup_append";
  header.mode = RecyclerModeName(RecyclerMode::kSpeculation);
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

ReplayOptions RollupReplayOptions(const rollup::RollupOptions& ropt) {
  ReplayOptions options;
  options.append_provider = [ropt](const AppendEvent& a) {
    return rollup::MakeBatch(a.rows, a.start_row, ropt);
  };
  return options;
}

TEST(TraceReplayTest, SingleStreamReproducesDigestsAndModes) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = 4096;
  Trace recorded = RecordRollupTrace(ropt);
  ASSERT_EQ(recorded.NumStatements(), 18);  // 6 statements x 3 rounds
  ASSERT_EQ(recorded.NumAppends(), 2);

  // The corpus must exercise the interesting modes, or this test proves
  // nothing about mode reproduction.
  int64_t delta_like = 0, hits = 0;
  for (const TraceEvent& e : recorded.events) {
    if (e.kind != TraceEvent::Kind::kStatement) continue;
    if (e.statement.reuse_mode == ReuseMode::kDelta ||
        e.statement.reuse_mode == ReuseMode::kAggMerge) {
      ++delta_like;
    }
    if (e.statement.reuse_mode != ReuseMode::kNone) ++hits;
  }
  EXPECT_GT(delta_like, 0) << "append rounds should produce delta reuse";
  EXPECT_GT(hits, 0);

  // Round-trip through the serialized text, then replay on a fresh
  // engine: the parsed trace must carry everything replay needs.
  Trace parsed;
  ASSERT_TRUE(ParseTrace(SerializeTrace(recorded), &parsed).ok());

  auto db = Database::OpenOrDie(TraceOptions());
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  TraceReplayer replayer(db.get(), RollupReplayOptions(ropt));
  ReplayReport report;
  Status st = replayer.Replay(parsed, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.statements, 18);
  EXPECT_EQ(report.appends, 2);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.digest_mismatches, 0);
  EXPECT_EQ(report.mode_mismatches, 0);
  EXPECT_EQ(report.plan_mismatches, 0);
  EXPECT_DOUBLE_EQ(report.recorded_hit_rate, report.replayed_hit_rate);
}

TEST(TraceReplayTest, DetectsChooserDivergenceAsModeMismatch) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = 4096;
  Trace recorded = RecordRollupTrace(ropt);

  // Replay with delta maintenance disabled: appends now hard-invalidate,
  // so recorded delta hits come back as misses/materializations. Results
  // must STILL be bit-identical (transparency) — only modes diverge.
  DatabaseOptions options = TraceOptions();
  options.recycler.enable_delta_maintenance = false;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  ReplayOptions ropts = RollupReplayOptions(ropt);
  ropts.check_plan_shape = false;  // different chooser, different plans
  TraceReplayer replayer(db.get(), ropts);
  ReplayReport report;
  Status st = replayer.Replay(recorded, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.mode_mismatches, 0);
  EXPECT_EQ(report.digest_mismatches, 0)
      << "disabling a reuse path must never change results:\n"
      << report.ToString();
  // The report names the divergence readably.
  const std::string text = report.ToString();
  EXPECT_NE(text.find("DIVERGED"), std::string::npos);
  EXPECT_NE(text.find("reuse_mode"), std::string::npos);
}

TEST(TraceReplayTest, DetectsChangedBaseDataAsDigestMismatch) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = 4096;
  Trace recorded = RecordRollupTrace(ropt);

  // Same row counts, different generator seed: append row-count checks
  // pass but the data differs, so digests must flag it.
  rollup::RollupOptions drifted = ropt;
  drifted.seed = ropt.seed + 1;
  auto db = Database::OpenOrDie(TraceOptions());
  ASSERT_TRUE(rollup::Setup(db.get(), drifted).ok());
  ReplayOptions ropts = RollupReplayOptions(drifted);
  ropts.strict_modes = false;
  ropts.check_plan_shape = false;
  TraceReplayer replayer(db.get(), ropts);
  ReplayReport report;
  Status st = replayer.Replay(recorded, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.digest_mismatches, 0);
}

TEST(TraceReplayTest, AppendDriftFailsWithStatusNotAbort) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = 4096;
  Trace recorded = RecordRollupTrace(ropt);

  // Fresh engine whose events table starts at a different size: the
  // first append's start_row cross-check must fail loudly.
  rollup::RollupOptions small = ropt;
  small.initial_rows = 1024;
  auto db = Database::OpenOrDie(TraceOptions());
  ASSERT_TRUE(rollup::Setup(db.get(), small).ok());
  TraceReplayer replayer(db.get(), RollupReplayOptions(small));
  ReplayReport report;
  Status st = replayer.Replay(recorded, &report);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("drift"), std::string::npos);
}

TEST(TraceReplayTest, RequiresProviderAndSingleStreamForAppends) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = 2048;
  Trace recorded = RecordRollupTrace(ropt);

  auto db = Database::OpenOrDie(TraceOptions());
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  {
    TraceReplayer replayer(db.get(), ReplayOptions{});  // no provider
    ReplayReport report;
    EXPECT_FALSE(replayer.Replay(recorded, &report).ok());
  }
  {
    ReplayOptions ropts = RollupReplayOptions(ropt);
    ropts.concurrency = 4;
    TraceReplayer replayer(db.get(), ropts);
    ReplayReport report;
    EXPECT_FALSE(replayer.Replay(recorded, &report).ok());
  }
}

TEST(TraceReplayTest, RejectsPlanBuiltStatements) {
  Trace t;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kStatement;  // sql left empty
  t.events.push_back(e);
  auto db = Database::OpenOrDie(TraceOptions());
  TraceReplayer replayer(db.get());
  ReplayReport report;
  EXPECT_FALSE(replayer.Replay(t, &report).ok());
}

/// Records the SkyServer region sweep as SQL (no appends): misses,
/// partial stitches and an exact-repeat tail.
Trace RecordSweepTrace(int64_t objects) {
  auto db = Database::OpenOrDie(TraceOptions());
  skyserver::Setup(objects, &db->catalog());

  TraceHeader header;
  header.seed = 20130415;
  header.workload = "skyserver_sweep";
  header.mode = RecyclerModeName(RecyclerMode::kSpeculation);
  header.tags["objects"] = std::to_string(objects);
  TraceRecorder recorder(header);
  auto session = db->Connect();
  session->set_recorder(&recorder);

  Rng rng(header.seed);
  std::vector<std::string> sweep =
      skyserver::GenerateRegionSweepSql(12, &rng);
  for (const std::string& sql : sweep) {
    Result r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  for (int i = 0; i < 6; ++i) {  // exact-repeat tail
    Result r = session->Sql(sweep[i]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  return recorder.Snapshot();
}

TEST(TraceReplayTest, ConcurrentReplayKeepsDigestsStrict) {
  Trace recorded = RecordSweepTrace(8000);
  ASSERT_EQ(recorded.NumStatements(), 18);
  EXPECT_GT(recorded.HitRate(), 0.0);

  auto db = Database::OpenOrDie(TraceOptions());
  skyserver::Setup(8000, &db->catalog());
  ReplayOptions ropts;
  ropts.concurrency = 4;
  ropts.strict_modes = false;  // modes are schedule-dependent at N > 1
  ropts.check_plan_shape = false;
  TraceReplayer replayer(db.get(), ropts);
  ReplayReport report;
  Status st = replayer.Replay(recorded, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.statements, 4 * 18);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.digest_mismatches, 0) << report.ToString();
  // Shared warm cache: the aggregate hit rate can only improve on the
  // recording, so the one-sided tolerance gate holds.
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(report.replayed_hit_rate + 2.0, report.recorded_hit_rate);
}

TEST(TraceReplayTest, SingleStreamSweepStrictIncludingPlanShape) {
  Trace recorded = RecordSweepTrace(8000);
  // A sweep statement must have recorded a stitched UnionAll shape, or
  // the strict plan diff below is vacuous.
  bool saw_union = false;
  for (const TraceEvent& e : recorded.events) {
    if (e.kind == TraceEvent::Kind::kStatement &&
        e.statement.plan_explain.find("UnionAll") != std::string::npos) {
      saw_union = true;
    }
  }
  EXPECT_TRUE(saw_union);

  auto db = Database::OpenOrDie(TraceOptions());
  skyserver::Setup(8000, &db->catalog());
  TraceReplayer replayer(db.get());  // strict defaults, plan shape on
  ReplayReport report;
  Status st = replayer.Replay(recorded, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.plan_mismatches, 0);
  EXPECT_EQ(report.mode_mismatches, 0);
  EXPECT_EQ(report.digest_mismatches, 0);
}

// ---------------------------------------------------------------------------
// Explain determinism (two fresh engines, identical text)
// ---------------------------------------------------------------------------

/// Runs the sweep on a fresh engine and returns every post-rewrite
/// Explain text in execution order.
std::vector<std::string> SweepExplains() {
  auto db = Database::OpenOrDie(TraceOptions());
  skyserver::Setup(8000, &db->catalog());
  auto session = db->Connect();
  Rng rng(20130415);
  std::vector<std::string> explains;
  for (const std::string& sql : skyserver::GenerateRegionSweepSql(12, &rng)) {
    Result r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    explains.push_back(r.trace().plan_explain);
  }
  return explains;
}

TEST(ExplainDeterminismTest, FreshEnginesProduceIdenticalExplains) {
  std::vector<std::string> a = SweepExplains();
  std::vector<std::string> b = SweepExplains();
  ASSERT_EQ(a.size(), b.size());
  bool saw_union = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "query " << i
                          << ": Explain text differs across engine "
                             "instances";
    if (a[i].find("UnionAll") != std::string::npos) saw_union = true;
  }
  // The sweep must produce stitched plans, or branch ordering — the
  // historical nondeterminism risk — was never exercised.
  EXPECT_TRUE(saw_union);
}

}  // namespace
}  // namespace recycledb
