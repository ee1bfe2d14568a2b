// Tests for the single-core speed pack: incremental zone-map
// maintenance, pruned-vs-unpruned bit-equality across all column types,
// the column codecs (round trips, encoded-range selection, corruption
// handling), the compressed spill format (and rejection of older format
// versions), the
// calibrated cost model's determinism, and a concurrent pruned-query
// stress against a compressing cold tier.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <shared_mutex>
#include <thread>

#include "common/hash.h"
#include "common/string_util.h"
#include "exec/cost_model.h"
#include "recycledb/recycledb.h"
#include "recycler/recycler.h"
#include "storage/compression.h"
#include "storage/spill_file.h"
#include "test_util.h"
#include "trace/trace_format.h"

namespace recycledb {
namespace {

namespace fs = std::filesystem;
using recycledb::testing::RowMultiset;

/// mkdtemp wrapper honoring $TMPDIR (CI points it at the runner's
/// scratch space); removed recursively on destruction.
class TempSpillDir {
 public:
  TempSpillDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base && *base ? base : "/tmp");
    tmpl += "/rdb-speed-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* d = mkdtemp(buf.data());
    RDB_CHECK(d != nullptr);
    path_ = d;
  }
  ~TempSpillDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

RangeBound Bound(Datum v, bool inclusive) {
  RangeBound b;
  b.unbounded = false;
  b.value = std::move(v);
  b.inclusive = inclusive;
  return b;
}

ColumnInterval Between(Datum lo, bool lo_inc, Datum hi, bool hi_inc) {
  ColumnInterval r;
  r.lo = Bound(std::move(lo), lo_inc);
  r.hi = Bound(std::move(hi), hi_inc);
  return r;
}

ColumnInterval AtLeast(Datum lo) {
  ColumnInterval r;
  r.lo = Bound(std::move(lo), true);
  return r;
}

ColumnInterval Below(Datum hi) {
  ColumnInterval r;
  r.hi = Bound(std::move(hi), false);
  return r;
}

template <typename T>
ColumnPtr TypedColumn(TypeId type, std::vector<T> values) {
  ColumnPtr c = MakeColumn(type);
  c->Data<T>() = std::move(values);
  return c;
}

/// Bit-level equality (doubles compared by representation, so NaN and
/// -0.0 survive the comparison).
bool ColumnsBitEqual(const ColumnVector& a, const ColumnVector& b) {
  if (a.type() != b.type() || a.size() != b.size()) return false;
  const size_t n = static_cast<size_t>(a.size());
  switch (a.type()) {
    case TypeId::kBool:
      return std::memcmp(a.Raw<uint8_t>(), b.Raw<uint8_t>(), n) == 0;
    case TypeId::kInt32:
    case TypeId::kDate:
      return std::memcmp(a.Raw<int32_t>(), b.Raw<int32_t>(),
                         n * sizeof(int32_t)) == 0;
    case TypeId::kInt64:
      return std::memcmp(a.Raw<int64_t>(), b.Raw<int64_t>(),
                         n * sizeof(int64_t)) == 0;
    case TypeId::kDouble:
      return std::memcmp(a.Raw<double>(), b.Raw<double>(),
                         n * sizeof(double)) == 0;
    case TypeId::kString: {
      const std::string* x = a.Raw<std::string>();
      const std::string* y = b.Raw<std::string>();
      for (size_t i = 0; i < n; ++i) {
        if (x[i] != y[i]) return false;
      }
      return true;
    }
  }
  return false;
}

/// Reference range check with the same semantics SelectRangeEncoded
/// promises (independent open/closed ends, unbounded = +-inf).
bool InRangeRef(const Datum& v, const ColumnInterval& r) {
  if (!r.lo.unbounded) {
    int c = DatumCompare(v, r.lo.value);
    if (c < 0 || (c == 0 && !r.lo.inclusive)) return false;
  }
  if (!r.hi.unbounded) {
    int c = DatumCompare(v, r.hi.value);
    if (c > 0 || (c == 0 && !r.hi.inclusive)) return false;
  }
  return true;
}

std::vector<int32_t> ReferenceSelect(const ColumnVector& col,
                                     const ColumnInterval& range) {
  std::vector<int32_t> sel;
  for (int64_t i = 0; i < col.size(); ++i) {
    if (InRangeRef(col.GetDatum(i), range)) {
      sel.push_back(static_cast<int32_t>(i));
    }
  }
  return sel;
}

// ---------------------------------------------------------------------------
// Zone-map maintenance
// ---------------------------------------------------------------------------

TEST(ZoneMap, IncrementalMaintenanceUnderAppendRow) {
  Schema s({{"k", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 3000; ++i) t->AppendRow({static_cast<int32_t>(i)});

  const ZoneMap& zm = t->zone_map(0);
  EXPECT_EQ(zm.type(), TypeId::kInt32);
  EXPECT_EQ(zm.rows_covered(), 3000);
  EXPECT_EQ(zm.num_blocks(), 3);
  EXPECT_TRUE(zm.sorted());
  EXPECT_EQ(std::get<int32_t>(zm.block(0).min), 0);
  EXPECT_EQ(std::get<int32_t>(zm.block(0).max), 1023);
  EXPECT_EQ(std::get<int32_t>(zm.block(1).min), 1024);
  EXPECT_EQ(std::get<int32_t>(zm.block(1).max), 2047);
  // The last block is partial and re-tightens as it fills.
  EXPECT_EQ(std::get<int32_t>(zm.block(2).min), 2048);
  EXPECT_EQ(std::get<int32_t>(zm.block(2).max), 2999);
  EXPECT_TRUE(zm.block(2).sorted);

  // An out-of-order append widens the partial block and clears
  // sortedness without touching sealed blocks.
  t->AppendRow({static_cast<int32_t>(-5)});
  EXPECT_EQ(zm.rows_covered(), 3001);
  EXPECT_FALSE(zm.sorted());
  EXPECT_FALSE(zm.block(2).sorted);
  EXPECT_EQ(std::get<int32_t>(zm.block(2).min), -5);
  EXPECT_EQ(std::get<int32_t>(zm.block(2).max), 2999);
  EXPECT_EQ(std::get<int32_t>(zm.block(0).min), 0);
}

TEST(ZoneMap, MaintainedUnderAppendBatch) {
  Schema s({{"k", TypeId::kInt64}});
  TablePtr t = MakeTable(s);
  for (int chunk = 0; chunk < 2; ++chunk) {
    std::vector<int64_t> v;
    for (int i = 0; i < 1500; ++i) v.push_back(chunk * 1500 + i);
    Batch b;
    b.columns.push_back(TypedColumn<int64_t>(TypeId::kInt64, std::move(v)));
    b.num_rows = 1500;
    t->AppendBatch(b);
  }
  const ZoneMap& zm = t->zone_map(0);
  EXPECT_EQ(zm.rows_covered(), 3000);
  EXPECT_EQ(zm.num_blocks(), 3);
  EXPECT_TRUE(zm.sorted());
  EXPECT_EQ(std::get<int64_t>(zm.block(1).min), 1024);
  EXPECT_EQ(std::get<int64_t>(zm.block(1).max), 2047);
  EXPECT_EQ(std::get<int64_t>(zm.block(2).max), 2999);
}

// Zone maps folded a batch (or a partial block) at a time must equal a
// sequential per-row fold under the column type's `<`, including NaN
// (never replaces a bound, sticks once it is the block's first value),
// signed zeros, strings and bools.
TEST(ZoneMap, BatchFoldMatchesPerRowReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Datum> dbl, str, bln;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const int64_t pick = rng.Uniform(0, 9);
    dbl.push_back(i % 1024 == 0 && i % 2048 == 0 ? nan
                  : pick == 0                    ? nan
                  : pick == 1                    ? -0.0
                  : pick == 2                    ? 0.0
                                                 : rng.NextDouble() - 0.5);
    str.push_back(std::string(1 + (5000 - i) % 7, 'a' + (i * 7) % 26));
    bln.push_back(pick < 5);
  }
  auto reference = [](const std::vector<Datum>& values) {
    std::vector<ZoneEntry> blocks;
    bool sorted = true;
    for (size_t r = 0; r < values.size(); ++r) {
      const Datum& v = values[r];
      auto less = [](const Datum& a, const Datum& b) {
        if (a.index() == 4) return std::get<double>(a) < std::get<double>(b);
        if (a.index() == 5) {
          return std::get<std::string>(a) < std::get<std::string>(b);
        }
        return std::get<bool>(a) < std::get<bool>(b);
      };
      if (r % kZoneMapBlockRows == 0) {
        blocks.push_back({v, v, true, true});
      } else {
        ZoneEntry& e = blocks.back();
        if (less(v, e.min)) e.min = v;
        if (less(e.max, v)) e.max = v;
        if (less(v, values[r - 1])) e.sorted = false;
      }
      if (r > 0 && less(v, values[r - 1])) sorted = false;
    }
    return std::make_pair(blocks, sorted);
  };
  auto same = [](const Datum& a, const Datum& b) {
    if (a.index() == 4 && b.index() == 4) {
      const double x = std::get<double>(a), y = std::get<double>(b);
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    return a == b;
  };
  for (const auto* values : {&dbl, &str, &bln}) {
    const TypeId type = DatumType((*values)[0]);
    TablePtr per_row = MakeTable(Schema({{"c", type}}));
    TablePtr batched = MakeTable(Schema({{"c", type}}));
    for (const Datum& v : *values) per_row->AppendRow({v});
    for (size_t pos = 0; pos < values->size();) {
      const size_t n = std::min<size_t>(rng.Uniform(1, 1500),
                                        values->size() - pos);
      TablePtr chunk = MakeTable(Schema({{"c", type}}));
      for (size_t i = pos; i < pos + n; ++i) chunk->AppendRow({(*values)[i]});
      Batch b;
      b.columns.push_back(chunk->column(0));
      b.num_rows = static_cast<int64_t>(n);
      batched->AppendBatch(b);
      pos += n;
    }
    const auto [want, want_sorted] = reference(*values);
    for (const Table* t : {per_row.get(), batched.get()}) {
      const ZoneMap& zm = t->zone_map(0);
      ASSERT_EQ(zm.num_blocks(), static_cast<int64_t>(want.size()));
      EXPECT_EQ(zm.sorted(), want_sorted);
      for (int64_t b = 0; b < zm.num_blocks(); ++b) {
        EXPECT_TRUE(same(zm.block(b).min, want[b].min)) << TypeName(type) << b;
        EXPECT_TRUE(same(zm.block(b).max, want[b].max)) << TypeName(type) << b;
        EXPECT_EQ(zm.block(b).sorted, want[b].sorted) << TypeName(type) << b;
      }
    }
  }
}

TEST(ZoneMap, MayOverlapIsConservative) {
  Schema s({{"k", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 3000; ++i) t->AppendRow({static_cast<int32_t>(i)});
  const ZoneMap& zm = t->zone_map(0);

  ColumnInterval window =
      Between(static_cast<int32_t>(2000), true, static_cast<int32_t>(2100),
              true);
  EXPECT_FALSE(zm.MayOverlap(0, window));
  EXPECT_TRUE(zm.MayOverlap(1, window));  // [1024, 2047] reaches 2000
  EXPECT_TRUE(zm.MayOverlap(2, window));

  // Boundary touch counts as overlap (closed vs. closed).
  ColumnInterval touch = AtLeast(static_cast<int32_t>(1023));
  EXPECT_TRUE(zm.MayOverlap(0, touch));
  // Open bound at the block max does not.
  ColumnInterval open;
  open.lo = Bound(static_cast<int32_t>(1023), false);
  EXPECT_FALSE(zm.MayOverlap(0, open));

  EXPECT_FALSE(zm.MayOverlap(0, AtLeast(static_cast<int32_t>(5000))));
  EXPECT_FALSE(zm.MayOverlap(2, Below(static_cast<int32_t>(-1))));

  // Blocks past the map (rows appended after the map was consulted) must
  // never be pruned.
  EXPECT_TRUE(zm.MayOverlap(zm.num_blocks(), window));
  EXPECT_TRUE(zm.MayOverlap(zm.num_blocks() + 7, window));
}

// ---------------------------------------------------------------------------
// Pruned scans are bit-identical to unpruned scans (all column types)
// ---------------------------------------------------------------------------

constexpr int kWideRows = 8192;

/// All six types, each (except bool) non-decreasing so zone maps have
/// pruning power on every column.
TablePtr MakeWideTable() {
  Schema s({{"b", TypeId::kBool},
            {"i", TypeId::kInt32},
            {"l", TypeId::kInt64},
            {"d", TypeId::kDouble},
            {"s", TypeId::kString},
            {"dt", TypeId::kDate}});
  TablePtr t = MakeTable(s);
  const int32_t day0 = MakeDate(2013, 1, 1);
  for (int i = 0; i < kWideRows; ++i) {
    t->AppendRow({i % 2 == 0, static_cast<int32_t>(i),
                  static_cast<int64_t>(i) * 37 - 5000, i * 0.25,
                  StrFormat("k%06d", i), day0 + i / 4});
  }
  return t;
}

std::unique_ptr<Database> OpenWideDb(bool pruning) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kOff;  // isolate the scan path
  options.recycler.enable_zone_map_pruning = pruning;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  RDB_CHECK(db->CreateTable("w", MakeWideTable()).ok());
  return db;
}

PlanPtr WideScan() {
  return PlanNode::Scan("w", {"b", "i", "l", "d", "s", "dt"});
}

TEST(ZoneMapPruning, BitEqualAcrossAllTypes) {
  auto pruned_db = OpenWideDb(true);
  auto plain_db = OpenWideDb(false);

  const int32_t day0 = MakeDate(2013, 1, 1);
  struct Case {
    const char* name;
    std::function<PlanPtr()> plan;
  };
  std::vector<Case> cases = {
      {"int32_window",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Ge(Expr::Column("i"),
                                Expr::Literal(static_cast<int32_t>(2000))),
                       Expr::Lt(Expr::Column("i"),
                                Expr::Literal(static_cast<int32_t>(3000)))));
       }},
      {"int64_window",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Gt(Expr::Column("l"),
                                Expr::Literal(static_cast<int64_t>(100000))),
                       Expr::Le(Expr::Column("l"),
                                Expr::Literal(static_cast<int64_t>(140000)))));
       }},
      {"double_tail",
       [] {
         return PlanNode::Select(
             WideScan(), Expr::Ge(Expr::Column("d"), Expr::Literal(1900.0)));
       }},
      {"string_window",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Ge(Expr::Column("s"),
                                Expr::Literal(std::string("k004000"))),
                       Expr::Lt(Expr::Column("s"),
                                Expr::Literal(std::string("k004200")))));
       }},
      {"date_head",
       [day0] {
         return PlanNode::Select(
             WideScan(), Expr::Lt(Expr::Column("dt"),
                                  Expr::Literal(day0 + 100)));
       }},
      // Bool columns carry no range hints; pruning still comes from the
      // int conjunct while the bool filter must keep applying.
      {"bool_and_int",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Lt(Expr::Column("i"),
                                Expr::Literal(static_cast<int32_t>(512))),
                       Expr::Eq(Expr::Column("b"), Expr::Literal(true))));
       }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto ps = pruned_db->Connect({});
    auto us = plain_db->Connect({});
    Result pr = ps->Execute(c.plan());
    Result ur = us->Execute(c.plan());
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();
    ASSERT_TRUE(ur.ok()) << ur.status().ToString();
    EXPECT_EQ(RowMultiset(*pr.table()), RowMultiset(*ur.table()));
    EXPECT_GT(pr.table()->num_rows(), 0);
    // The unpruned scan reads every block; the pruned scan accounts for
    // the same universe as scanned + pruned and actually skips blocks.
    EXPECT_EQ(ur.trace().blocks_pruned, 0);
    EXPECT_EQ(pr.trace().blocks_scanned + pr.trace().blocks_pruned,
              ur.trace().blocks_scanned);
    EXPECT_GT(pr.trace().blocks_pruned, 0);
  }
}

// ---------------------------------------------------------------------------
// Column codecs
// ---------------------------------------------------------------------------

TEST(Compression, PicksExpectedCodecAndRoundTrips) {
  struct Case {
    const char* name;
    ColumnPtr col;
    ColumnEncoding expected;
  };
  std::vector<int32_t> constant(4096, 42);
  std::vector<int64_t> ascending;
  for (int i = 0; i < 4096; ++i) ascending.push_back(1000000 + i);
  std::vector<std::string> low_card;
  for (int i = 0; i < 4096; ++i) low_card.push_back("city-" + std::to_string(i % 8));
  std::vector<double> noise;
  for (int i = 0; i < 4096; ++i) {
    noise.push_back(static_cast<double>((i * 2654435761u) % 1000003) * 1.7e-3);
  }
  std::vector<int32_t> dates;
  for (int i = 0; i < 4096; ++i) dates.push_back(MakeDate(2013, 1, 1) + i);

  std::vector<Case> cases;
  cases.push_back({"constant_int32_rle",
                   TypedColumn<int32_t>(TypeId::kInt32, constant),
                   ColumnEncoding::kRle});
  cases.push_back({"ascending_int64_for",
                   TypedColumn<int64_t>(TypeId::kInt64, ascending),
                   ColumnEncoding::kFor});
  cases.push_back({"low_card_string_dict",
                   TypedColumn<std::string>(TypeId::kString, low_card),
                   ColumnEncoding::kDict});
  cases.push_back({"noise_double_raw",
                   TypedColumn<double>(TypeId::kDouble, noise),
                   ColumnEncoding::kRaw});
  cases.push_back({"dense_date_for",
                   TypedColumn<int32_t>(TypeId::kDate, dates),
                   ColumnEncoding::kFor});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EncodedColumn enc = EncodeColumn(*c.col);
    EXPECT_EQ(enc.encoding, c.expected) << EncodingName(enc.encoding);
    EXPECT_EQ(enc.num_rows, c.col->size());
    ColumnPtr back;
    ASSERT_TRUE(DecodeColumn(enc, &back).ok());
    EXPECT_TRUE(ColumnsBitEqual(*c.col, *back));
  }
}

TEST(Compression, EveryCodecRoundTripsEveryLegalType) {
  std::vector<uint8_t> bools;
  std::vector<int32_t> ints;
  std::vector<int64_t> longs;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int i = 0; i < 2000; ++i) {
    bools.push_back(i % 3 == 0);
    ints.push_back(i / 7 - 50);
    longs.push_back(static_cast<int64_t>(i / 5) * 1000);
    doubles.push_back((i / 11) * 0.5 - 3.0);
    strings.push_back("v" + std::to_string(i % 29));
  }
  std::vector<ColumnPtr> cols = {
      TypedColumn<uint8_t>(TypeId::kBool, bools),
      TypedColumn<int32_t>(TypeId::kInt32, ints),
      TypedColumn<int64_t>(TypeId::kInt64, longs),
      TypedColumn<double>(TypeId::kDouble, doubles),
      TypedColumn<std::string>(TypeId::kString, strings),
      TypedColumn<int32_t>(TypeId::kDate, ints),
  };
  for (const ColumnPtr& col : cols) {
    for (ColumnEncoding e :
         {ColumnEncoding::kRaw, ColumnEncoding::kRle, ColumnEncoding::kDict,
          ColumnEncoding::kFor}) {
      SCOPED_TRACE(StrFormat("%s as %s", TypeName(col->type()),
                             EncodingName(e)));
      EncodedColumn enc;
      Status st = EncodeColumnAs(*col, e, &enc);
      const bool for_illegal =
          e == ColumnEncoding::kFor && (col->type() == TypeId::kDouble ||
                                        col->type() == TypeId::kString ||
                                        col->type() == TypeId::kBool);
      const bool dict_illegal =
          e == ColumnEncoding::kDict && (col->type() == TypeId::kDouble ||
                                         col->type() == TypeId::kBool);
      if (for_illegal || dict_illegal) {
        EXPECT_FALSE(st.ok());
        continue;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      ColumnPtr back;
      ASSERT_TRUE(DecodeColumn(enc, &back).ok());
      EXPECT_TRUE(ColumnsBitEqual(*col, *back));
    }
  }
}

TEST(Compression, DoubleBitPatternsSurviveRle) {
  std::vector<double> v;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 64; ++i) v.push_back(nan);
  for (int i = 0; i < 64; ++i) v.push_back(-0.0);
  for (int i = 0; i < 64; ++i) v.push_back(0.0);
  ColumnPtr col = TypedColumn<double>(TypeId::kDouble, v);

  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumnAs(*col, ColumnEncoding::kRle, &enc).ok());
  ColumnPtr back;
  ASSERT_TRUE(DecodeColumn(enc, &back).ok());
  // Bit comparison distinguishes -0.0 from 0.0 and preserves NaN, which
  // value comparison cannot.
  EXPECT_TRUE(ColumnsBitEqual(*col, *back));
}

TEST(Compression, SelectRangeEncodedMatchesDecodeThenFilter) {
  std::vector<int32_t> sawtooth;
  for (int i = 0; i < 3000; ++i) sawtooth.push_back(i / 100);
  std::vector<std::string> cities;
  for (int i = 0; i < 3000; ++i) cities.push_back("c" + std::to_string(i % 6));
  std::vector<int64_t> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(7000 + i);
  std::vector<double> vals;
  for (int i = 0; i < 3000; ++i) vals.push_back((i * 7919) % 997 * 0.25);

  struct Case {
    ColumnPtr col;
    ColumnEncoding enc;
    ColumnInterval range;
  };
  std::vector<Case> cases;
  cases.push_back({TypedColumn<int32_t>(TypeId::kInt32, sawtooth),
                   ColumnEncoding::kRle,
                   Between(static_cast<int32_t>(5), true,
                           static_cast<int32_t>(20), false)});
  cases.push_back({TypedColumn<std::string>(TypeId::kString, cities),
                   ColumnEncoding::kDict,
                   Between(std::string("c1"), true, std::string("c4"), true)});
  cases.push_back({TypedColumn<int64_t>(TypeId::kInt64, keys),
                   ColumnEncoding::kFor,
                   Between(static_cast<int64_t>(7500), false,
                           static_cast<int64_t>(8500), true)});
  cases.push_back({TypedColumn<double>(TypeId::kDouble, vals),
                   ColumnEncoding::kRaw, AtLeast(100.0)});
  // Integer-empty open gap (4, 5): no int32 fits, so nothing selects.
  cases.push_back({TypedColumn<int32_t>(TypeId::kInt32, sawtooth),
                   ColumnEncoding::kRle,
                   Between(static_cast<int32_t>(4), false,
                           static_cast<int32_t>(5), false)});
  // Unbounded both ends selects everything.
  cases.push_back({TypedColumn<int64_t>(TypeId::kInt64, keys),
                   ColumnEncoding::kFor, ColumnInterval{}});
  // Mixed-type numeric bound (double literal against int column).
  cases.push_back({TypedColumn<int32_t>(TypeId::kInt32, sawtooth),
                   ColumnEncoding::kRle, Below(12.5)});

  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(StrFormat("case %zu (%s)", i,
                           EncodingName(cases[i].enc)));
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumnAs(*cases[i].col, cases[i].enc, &enc).ok());
    std::vector<int32_t> sel;
    ASSERT_TRUE(SelectRangeEncoded(enc, cases[i].range, &sel).ok());
    EXPECT_EQ(sel, ReferenceSelect(*cases[i].col, cases[i].range));
  }
}

TEST(Compression, CorruptPayloadsAreRecoverableErrors) {
  std::vector<int32_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i / 10);
  ColumnPtr col = TypedColumn<int32_t>(TypeId::kInt32, v);

  for (ColumnEncoding e :
       {ColumnEncoding::kRaw, ColumnEncoding::kRle, ColumnEncoding::kDict,
        ColumnEncoding::kFor}) {
    SCOPED_TRACE(EncodingName(e));
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumnAs(*col, e, &enc).ok());

    ColumnPtr out;
    // Truncation at every interesting boundary must error, not abort.
    EncodedColumn truncated = enc;
    truncated.payload.resize(truncated.payload.size() / 2);
    EXPECT_FALSE(DecodeColumn(truncated, &out).ok());
    truncated.payload.clear();
    EXPECT_FALSE(DecodeColumn(truncated, &out).ok());

    // A length field inflated to claim more data than exists must be
    // caught by bounds checks before any allocation happens.
    EncodedColumn inflated = enc;
    if (inflated.payload.size() >= 4) {
      std::memset(&inflated.payload[0], 0xff, 4);
      ColumnPtr dummy;
      Status st = DecodeColumn(inflated, &dummy);
      if (st.ok()) {
        // If the codec tolerated the patch the result must still be a
        // complete column (never a partial/oversized one).
        EXPECT_EQ(dummy->size(), col->size());
      }
      std::vector<int32_t> sel;
      // Encoded-selection must survive the same corruption.
      (void)SelectRangeEncoded(inflated, AtLeast(static_cast<int32_t>(5)),
                               &sel);
    }
  }

  // Trailing garbage after a well-formed image is rejected.
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumnAs(*col, ColumnEncoding::kRle, &enc).ok());
  enc.payload += "extra";
  ColumnPtr out;
  EXPECT_FALSE(DecodeColumn(enc, &out).ok());
}

// ---------------------------------------------------------------------------
// Spill format: compression and rejection of older versions
// ---------------------------------------------------------------------------

TablePtr MakeCompressibleTable(int rows) {
  Schema s({{"k", TypeId::kInt64}, {"tag", TypeId::kString},
            {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({static_cast<int64_t>(i),
                  std::string("tag-") + std::to_string(i % 4),
                  (i / 64) * 1.5});
  }
  return t;
}

SpillFileMeta MakeMeta(const Table& t) {
  SpillFileMeta meta;
  meta.canon_key = "4{select:x}(0{scan:w})";
  meta.column_names = t.schema().Names();
  for (const Field& f : t.schema().fields()) {
    meta.column_types.push_back(f.type);
  }
  meta.num_rows = t.num_rows();
  meta.bcost_ms = 3.5;
  meta.h = 2.0;
  meta.base_tables = {"w"};
  return meta;
}

bool TablesBitEqual(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (int i = 0; i < a.num_columns(); ++i) {
    if (!ColumnsBitEqual(*a.column(i), *b.column(i))) return false;
  }
  return true;
}

/// Overwrites the u32 version field (after the 4-byte magic) of the spill
/// file at `path`.
void PatchSpillVersion(const std::string& path, uint32_t version) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  unsigned char le[4];
  for (int i = 0; i < 4; ++i) {
    le[i] = static_cast<unsigned char>(version >> (8 * i));
  }
  std::fseek(f, 4, SEEK_SET);
  ASSERT_EQ(std::fwrite(le, 1, 4, f), 4u);
  std::fclose(f);
}

std::vector<std::string> SpillFilesIn(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".spill") out.push_back(entry.path());
  }
  return out;
}

TEST(SpillFormat, OlderVersionFilesAreDiscarded) {
  // Versions 1 (raw column images) and 2 (no row stamps) are no longer
  // read: such a file is rejected like a corrupt one, a writable tier
  // deletes it at open, and the query it would have served re-executes.
  PlanPtr query = PlanNode::Select(
      WideScan(),
      Expr::And(Expr::Ge(Expr::Column("i"), Expr::Literal(int32_t{1000})),
                Expr::Lt(Expr::Column("i"), Expr::Literal(int32_t{3000}))));
  for (uint32_t old_version : {1u, 2u}) {
    SCOPED_TRACE(old_version);
    TempSpillDir dir;
    DatabaseOptions options;
    options.recycler.mode = RecyclerMode::kSpeculation;
    options.recycler.spill_dir = dir.path();
    uint64_t expected = 0;
    {
      auto db = Database::OpenOrDie(options);
      ASSERT_TRUE(db->CreateTable("w", MakeWideTable()).ok());
      SessionOptions so;
      so.bypass_recycler = true;
      Result bypass = db->Connect(so)->Execute(query);
      ASSERT_TRUE(bypass.ok());
      expected = trace::ResultDigest(*bypass.table());
      ASSERT_TRUE(db->Execute(query).ok());
      db->FlushCache();  // spills the result in the current format
    }
    const std::vector<std::string> files = SpillFilesIn(dir.path());
    ASSERT_FALSE(files.empty());
    for (const std::string& f : files) {
      SpillFileMeta meta;
      ASSERT_TRUE(ReadSpillMeta(f, &meta).ok());
      PatchSpillVersion(f, old_version);
      Status st = ReadSpillMeta(f, &meta);
      EXPECT_EQ(st.code(), StatusCode::kInternal);
      EXPECT_NE(st.message().find("unsupported spill version"),
                std::string::npos)
          << st.ToString();
      TablePtr back;
      EXPECT_FALSE(ReadSpillTable(f, &meta, &back).ok());
    }

    auto db = Database::OpenOrDie(options);
    for (const std::string& f : files) EXPECT_FALSE(fs::exists(f)) << f;
    EXPECT_EQ(db->recycler().cold_tier().Stats().entries, 0);
    ASSERT_TRUE(db->CreateTable("w", MakeWideTable()).ok());
    Result r = db->Execute(query);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.reuses(), 0);
    EXPECT_EQ(r.cold_hits(), 0);
    EXPECT_EQ(trace::ResultDigest(*r.table()), expected);
  }
}

TEST(SpillFormat, CompressedFilesAreSmallerAndBitEqual) {
  TempSpillDir dir;
  TablePtr t = MakeCompressibleTable(20000);
  const std::string raw_path = dir.path() + "/a.raw.spill";
  const std::string packed_path = dir.path() + "/a.packed.spill";
  ASSERT_TRUE(
      WriteSpillFile(raw_path, *t, MakeMeta(*t), /*compress=*/false).ok());
  ASSERT_TRUE(WriteSpillFile(packed_path, *t, MakeMeta(*t)).ok());

  const auto raw_size = fs::file_size(raw_path);
  const auto packed_size = fs::file_size(packed_path);
  EXPECT_LT(packed_size, raw_size);

  SpillFileMeta raw_meta;
  TablePtr raw_back;
  ASSERT_TRUE(ReadSpillTable(raw_path, &raw_meta, &raw_back).ok());
  EXPECT_TRUE(TablesBitEqual(*t, *raw_back));

  SpillFileMeta meta;
  TablePtr back;
  ASSERT_TRUE(ReadSpillTable(packed_path, &meta, &back).ok());
  EXPECT_GT(meta.raw_bytes, static_cast<int64_t>(packed_size));
  EXPECT_EQ(meta.raw_bytes, raw_meta.raw_bytes);
  EXPECT_TRUE(TablesBitEqual(*t, *back));

  // The header fast path reports the same raw size without a full read.
  SpillFileMeta header;
  ASSERT_TRUE(ReadSpillMeta(packed_path, &header).ok());
  EXPECT_EQ(header.raw_bytes, meta.raw_bytes);
}

TEST(SpillFormat, CorruptionIsRecoverable) {
  TempSpillDir dir;
  TablePtr t = MakeCompressibleTable(3000);
  const std::string path = dir.path() + "/corrupt.spill";
  ASSERT_TRUE(WriteSpillFile(path, *t, MakeMeta(*t)).ok());
  const auto size = fs::file_size(path);

  // Flip one payload byte: the checksum (verified before any decoding)
  // must reject the file.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size) - 64, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  SpillFileMeta meta;
  TablePtr back;
  Status st = ReadSpillTable(path, &meta, &back);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();

  // A header patched to claim an implausible row count fails the
  // checksum (which covers the header) before any decoder sizes a
  // column from it.
  ASSERT_TRUE(WriteSpillFile(path, *t, MakeMeta(*t)).ok());
  {
    const SpillFileMeta m = MakeMeta(*t);
    // Prefix (magic, version, header length), canonical key, column
    // count, then one (name, type) record per column.
    long rows_at = 16 + 4 + static_cast<long>(m.canon_key.size()) + 4;
    for (const std::string& name : m.column_names) {
      rows_at += 4 + static_cast<long>(name.size()) + 1;
    }
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, rows_at, SEEK_SET);
    const uint64_t huge = 1ull << 60;
    std::fwrite(&huge, sizeof(huge), 1, f);
    std::fclose(f);
  }
  ASSERT_TRUE(ReadSpillMeta(path, &meta).ok());
  EXPECT_EQ(meta.num_rows, static_cast<int64_t>(1ull << 60));
  st = ReadSpillTable(path, &meta, &back);
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();
  st = ReadSpillTableFiltered(path, &meta, /*filter_column=*/0,
                              AtLeast(int64_t{0}), &back);
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();

  // Truncation is likewise a recoverable error.
  ASSERT_TRUE(WriteSpillFile(path, *t, MakeMeta(*t)).ok());
  fs::resize_file(path, size / 2);
  EXPECT_FALSE(ReadSpillTable(path, &meta, &back).ok());
}

TEST(SpillFormat, ImplausibleRowCountWithValidChecksumIsRecoverable) {
  // A checksum stops bit rot, not a crafted file: one string column whose
  // header claims 2^40 rows, checksum recomputed. Every decoder must
  // bound the row count before allocating, so both reads return an error
  // instead of throwing std::bad_alloc. In "rle-runs" the single run is
  // patched to agree with a 2^32-1 row header, so only the int32 row-id
  // bound stands between the header and the allocation.
  struct Case {
    const char* name;
    bool compress;
    std::function<std::string(int)> value;
    bool patch_runs = false;
  };
  const Case cases[] = {
      {"raw", false, [](int i) { return "s" + std::to_string(i); }},
      {"dict", true, [](int i) { return "tag-" + std::to_string(i % 4); }},
      {"rle", true, [](int) { return std::string("same"); }},
      {"rle-runs", true, [](int) { return std::string("same"); }, true},
  };
  TempSpillDir dir;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TablePtr t = MakeTable(Schema({{"s", TypeId::kString}}));
    for (int i = 0; i < 3000; ++i) t->AppendRow({c.value(i)});
    const std::string path = dir.path() + "/" + c.name + ".spill";
    const SpillFileMeta m = MakeMeta(*t);
    ASSERT_TRUE(WriteSpillFile(path, *t, m, c.compress).ok());

    std::string bytes;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      bytes.resize(fs::file_size(path));
      ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }
    // Prefix (magic, version, header length), canonical key, column
    // count, one (name, type) record, then the row count.
    const size_t rows_at = 16 + 4 + m.canon_key.size() + 4 + 4 + 1 + 1;
    const uint64_t huge = c.patch_runs ? 0xffffffffull : 1ull << 40;
    std::memcpy(&bytes[rows_at], &huge, sizeof(huge));
    if (c.patch_runs) {
      // The RLE payload opens with (num_runs = 1, run = 3000).
      const uint32_t runs[2] = {1, 3000};
      const std::string needle(reinterpret_cast<const char*>(runs),
                               sizeof(runs));
      const size_t at = bytes.find(needle, rows_at);
      ASSERT_NE(at, std::string::npos);
      ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos);
      const uint32_t run = 0xffffffffu;
      std::memcpy(&bytes[at + 4], &run, sizeof(run));
    }
    // The checksum covers header + payload, i.e. everything between the
    // 16-byte prefix and the trailing 8-byte sum.
    const uint64_t sum = Fnv1a(bytes.data() + 16, bytes.size() - 16 - 8);
    std::memcpy(&bytes[bytes.size() - 8], &sum, sizeof(sum));
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }

    SpillFileMeta meta;
    ASSERT_TRUE(ReadSpillMeta(path, &meta).ok());
    ASSERT_EQ(meta.num_rows, static_cast<int64_t>(huge));
    TablePtr back;
    Status st = ReadSpillTable(path, &meta, &back);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    EXPECT_EQ(st.ToString().find("checksum"), std::string::npos)
        << st.ToString();
    st = ReadSpillTableFiltered(path, &meta, /*filter_column=*/0,
                                AtLeast(std::string("s")), &back);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Calibrated cost model
// ---------------------------------------------------------------------------

TEST(CostModel, IsAPureFunctionOfItsInputs) {
  CostModel m(1.0);
  EXPECT_EQ(m.machine_factor(), 1.0);
  const double one = m.OperatorMs(OpType::kScan, 1000, 8.0);
  EXPECT_GT(one, 0.0);
  EXPECT_EQ(m.OperatorMs(OpType::kScan, 1000, 8.0), one);
  // Linear in rows and width...
  EXPECT_DOUBLE_EQ(m.OperatorMs(OpType::kScan, 2000, 8.0), 2 * one);
  EXPECT_DOUBLE_EQ(m.OperatorMs(OpType::kScan, 1000, 16.0), 2 * one);
  // ...with heavier constants for heavier operators...
  EXPECT_GT(m.OperatorMs(OpType::kHashJoin, 1000, 8.0), one);
  EXPECT_GT(m.OperatorMs(OpType::kAggregate, 1000, 8.0),
            m.OperatorMs(OpType::kSelect, 1000, 8.0));
  // ...and a log factor on sorts: 1024x the rows costs 2048x
  // (log2 doubles from 10 to 20), i.e. strictly superlinear.
  EXPECT_GT(m.OperatorMs(OpType::kOrderBy, 1 << 20, 8.0),
            1536 * m.OperatorMs(OpType::kOrderBy, 1 << 10, 8.0));
  // Machine factor scales everything proportionally.
  CostModel fast(0.5);
  EXPECT_DOUBLE_EQ(fast.OperatorMs(OpType::kScan, 1000, 8.0), one / 2);
}

TEST(CostModel, GlobalCalibrationIsStableWithinProcess) {
  const CostModel& a = CostModel::Global();
  const CostModel& b = CostModel::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.machine_factor(), 0.25);
  EXPECT_LE(a.machine_factor(), 20.0);
}

/// Two engines running the same workload must annotate identical bcost
/// values — the property wall-clock refresh could not provide.
TEST(CostModel, IdenticalWorkloadsRankIdentically) {
  auto run = [](Database* db) {
    auto s = db->Connect({});
    auto window = [](int32_t lo, int32_t hi) {
      return PlanNode::Select(
          WideScan(),
          Expr::And(Expr::Ge(Expr::Column("i"), Expr::Literal(lo)),
                    Expr::Lt(Expr::Column("i"), Expr::Literal(hi))));
    };
    for (int pass = 0; pass < 2; ++pass) {
      for (int32_t lo : {0, 1000, 2000, 3000}) {
        Result r = s->Execute(window(lo, lo + 1500));
        RDB_CHECK(r.ok());
      }
    }
  };

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kHistory;
  auto db1 = Database::OpenOrDie(options);
  auto db2 = Database::OpenOrDie(options);
  RDB_CHECK(db1->CreateTable("w", MakeWideTable()).ok());
  RDB_CHECK(db2->CreateTable("w", MakeWideTable()).ok());
  run(db1.get());
  run(db2.get());

  RecyclerGraph& g1 = db1->recycler().graph();
  RecyclerGraph& g2 = db2->recycler().graph();
  std::shared_lock<std::shared_mutex> l1(g1.mutex());
  std::shared_lock<std::shared_mutex> l2(g2.mutex());
  ASSERT_EQ(g1.nodes().size(), g2.nodes().size());
  ASSERT_GT(g1.nodes().size(), 1u);
  int annotated = 0;
  for (size_t i = 0; i < g1.nodes().size(); ++i) {
    const RGNode* n1 = g1.nodes()[i].get();
    const RGNode* n2 = g2.nodes()[i].get();
    EXPECT_EQ(n1->type, n2->type);
    EXPECT_EQ(n1->rows.load(), n2->rows.load());
    EXPECT_EQ(n1->has_bcost.load(), n2->has_bcost.load());
    if (n1->has_bcost.load()) {
      ++annotated;
      // Exact equality: the model is deterministic, so the engines may
      // not drift apart even in the last bit.
      EXPECT_EQ(n1->bcost_ms.load(), n2->bcost_ms.load())
          << "node " << i << " diverged";
      EXPECT_EQ(db1->recycler().BenefitOf(n1), db2->recycler().BenefitOf(n2));
    }
  }
  EXPECT_GT(annotated, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: pruned scans + compressing cold tier under contention
// ---------------------------------------------------------------------------

TEST(SpeedPackStress, ConcurrentPrunedQueriesWithCompressedSpills) {
  TempSpillDir dir;
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = 64 << 10;  // force hot-tier churn
  options.recycler.spill_dir = dir.path();
  options.recycler.cold_tier_capacity_bytes = 256ll << 20;
  auto db = Database::OpenOrDie(options);
  RDB_CHECK(db->CreateTable("w", MakeWideTable()).ok());

  auto window = [](int32_t lo, int32_t hi) {
    return PlanNode::Select(
        WideScan(),
        Expr::And(Expr::Ge(Expr::Column("i"), Expr::Literal(lo)),
                  Expr::Lt(Expr::Column("i"), Expr::Literal(hi))));
  };

  // Precompute ground truth through the recycler-bypass path.
  constexpr int kWindows = 8;
  std::vector<std::multiset<std::string>> expected(kWindows);
  {
    SessionOptions so;
    so.bypass_recycler = true;
    auto ref = db->Connect(so);
    for (int w = 0; w < kWindows; ++w) {
      Result r = ref->Execute(window(w * 1000, w * 1000 + 800));
      ASSERT_TRUE(r.ok());
      expected[w] = RowMultiset(*r.table());
    }
  }

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      auto s = db->Connect({});
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const int w = (tid * 3 + q) % kWindows;
        Result r = s->Execute(window(w * 1000, w * 1000 + 800));
        if (!r.ok() || RowMultiset(*r.table()) != expected[w]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Zone maps pruned under contention, and the counters saw it.
  EXPECT_GT(db->counters().blocks_pruned.load(), 0);
  EXPECT_GT(db->counters().blocks_scanned.load(), 0);

  // Push everything still beneficial out to disk and verify the
  // compressed cold entries report a compression win.
  db->FlushCache();
  if (db->graph_stats().num_cold > 0) {
    EXPECT_GT(db->counters().cold_spill_stored_bytes.load(), 0);
    EXPECT_GE(db->counters().cold_spill_raw_bytes.load(),
              db->counters().cold_spill_stored_bytes.load());
  }
}

}  // namespace
}  // namespace recycledb
