// Unit tests for src/expr: compiled evaluation (including a differential
// test of the kernels against a per-row Datum reference), scalar rules,
// type deduction, fingerprints, renaming, conjunct splitting, aggregate
// decomposition.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "api/validate.h"
#include "common/rng.h"
#include "expr/aggregate.h"
#include "expr/expression.h"
#include "expr/program.h"
#include "plan/canonicalize.h"

namespace recycledb {
namespace {

Schema TestSchema() {
  return Schema({{"a", TypeId::kInt32},
                 {"b", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDate}});
}

Batch TestBatch() {
  Batch batch;
  batch.columns = {MakeColumn(TypeId::kInt32), MakeColumn(TypeId::kDouble),
                   MakeColumn(TypeId::kString), MakeColumn(TypeId::kDate)};
  auto add = [&](int32_t a, double b, const char* s, int32_t d) {
    batch.columns[0]->Append(Datum(a));
    batch.columns[1]->Append(Datum(b));
    batch.columns[2]->Append(Datum(std::string(s)));
    batch.columns[3]->Append(Datum(d));
    ++batch.num_rows;
  };
  add(1, 1.5, "apple pie", MakeDate(1995, 3, 15));
  add(2, 2.5, "banana", MakeDate(1996, 7, 1));
  add(3, 3.5, "apple tart", MakeDate(1997, 1, 20));
  return batch;
}

/// Result type of `e` over `schema`; fails the test on a type error.
TypeId TypeOf(const Expr& e, const Schema& schema) {
  TypeId t = TypeId::kBool;
  Status st = CheckExprType(e, schema, &t);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return t;
}

ColumnPtr Eval(const ExprPtr& e, const Batch& b) {
  return ExprProgram(*e, TestSchema()).Eval(b);
}

std::vector<int32_t> Sel(const ExprPtr& e, const Batch& b) {
  std::vector<int32_t> sel;
  ExprProgram(*e, TestSchema()).Select(b, &sel);
  return sel;
}

TEST(ExprEvalTest, ColumnRef) {
  Batch b = TestBatch();
  ColumnPtr c = Eval(Expr::Column("a"), b);
  EXPECT_EQ(c, b.columns[0]);  // forwarded, not copied
  EXPECT_EQ(c->Raw<int32_t>()[2], 3);
}

TEST(ExprEvalTest, Arithmetic) {
  Batch b = TestBatch();
  // a * 2 + b  -> double
  ExprPtr e = Expr::Arith(
      ArithOp::kAdd,
      Expr::Arith(ArithOp::kMul, Expr::Column("a"), Expr::Literal(int64_t{2})),
      Expr::Column("b"));
  EXPECT_EQ(TypeOf(*e, TestSchema()), TypeId::kDouble);
  ColumnPtr c = Eval(e, b);
  EXPECT_DOUBLE_EQ(c->Raw<double>()[1], 6.5);
}

TEST(ExprEvalTest, IntegerDivisionAndZeroGuard) {
  Batch b = TestBatch();
  ExprPtr e = Expr::Arith(ArithOp::kDiv, Expr::Literal(int64_t{10}),
                          Expr::Literal(int64_t{0}));
  ColumnPtr c = Eval(e, b);
  EXPECT_EQ(c->Raw<int64_t>()[0], 0);  // div-by-zero yields 0, not UB
}

TEST(ExprEvalTest, ComparisonsNumericAndString) {
  Batch b = TestBatch();
  auto sel1 = Sel(Expr::Gt(Expr::Column("a"), Expr::Literal(int64_t{1})), b);
  EXPECT_EQ(sel1, (std::vector<int32_t>{1, 2}));
  auto sel2 =
      Sel(Expr::Eq(Expr::Column("s"), Expr::Literal(std::string("banana"))), b);
  EXPECT_EQ(sel2, (std::vector<int32_t>{1}));
}

TEST(ExprEvalTest, LogicalOps) {
  Batch b = TestBatch();
  ExprPtr both = Expr::And(Expr::Ge(Expr::Column("a"), Expr::Literal(int64_t{2})),
                           Expr::Lt(Expr::Column("b"), Expr::Literal(3.0)));
  EXPECT_EQ(Sel(both, b), (std::vector<int32_t>{1}));
  ExprPtr either = Expr::Or(Expr::Eq(Expr::Column("a"), Expr::Literal(int64_t{1})),
                            Expr::Eq(Expr::Column("a"), Expr::Literal(int64_t{3})));
  EXPECT_EQ(Sel(either, b), (std::vector<int32_t>{0, 2}));
  ExprPtr neither = Expr::Not(either);
  EXPECT_EQ(Sel(neither, b), (std::vector<int32_t>{1}));
}

TEST(ExprEvalTest, DateYearMonthFunctions) {
  Batch b = TestBatch();
  ColumnPtr y = Eval(Expr::Func("year", {Expr::Column("d")}), b);
  EXPECT_EQ(y->Raw<int32_t>()[0], 1995);
  EXPECT_EQ(y->Raw<int32_t>()[2], 1997);
  ColumnPtr m = Eval(Expr::Func("month", {Expr::Column("d")}), b);
  EXPECT_EQ(m->Raw<int32_t>()[1], 7);
}

TEST(ExprEvalTest, BinFunctionFloorDivision) {
  Batch b = TestBatch();
  ExprPtr e = Expr::Func("bin", {Expr::Column("a"), Expr::Literal(int64_t{2})});
  ColumnPtr c = Eval(e, b);
  EXPECT_EQ(c->Raw<int64_t>()[0], 0);  // 1/2
  EXPECT_EQ(c->Raw<int64_t>()[1], 1);  // 2/2
  EXPECT_EQ(c->Raw<int64_t>()[2], 1);  // 3/2
}

TEST(ExprEvalTest, CaseWhen) {
  Batch b = TestBatch();
  ExprPtr e = Expr::Case(Expr::Gt(Expr::Column("a"), Expr::Literal(int64_t{1})),
                         Expr::Column("b"), Expr::Literal(0.0));
  ColumnPtr c = Eval(e, b);
  EXPECT_DOUBLE_EQ(c->Raw<double>()[0], 0.0);
  EXPECT_DOUBLE_EQ(c->Raw<double>()[2], 3.5);
}

TEST(ExprEvalTest, InList) {
  Batch b = TestBatch();
  ExprPtr e = Expr::In(Expr::Column("s"),
                       {std::string("banana"), std::string("cherry")});
  EXPECT_EQ(Sel(e, b), (std::vector<int32_t>{1}));
}

TEST(ExprEvalTest, LikeVariants) {
  Batch b = TestBatch();
  EXPECT_EQ(Sel(Expr::Like(LikeKind::kContains, Expr::Column("s"), "apple"), b),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Sel(Expr::Like(LikeKind::kPrefix, Expr::Column("s"), "ban"), b),
            (std::vector<int32_t>{1}));
  EXPECT_EQ(Sel(Expr::Like(LikeKind::kSuffix, Expr::Column("s"), "pie"), b),
            (std::vector<int32_t>{0}));
  EXPECT_EQ(
      Sel(Expr::Like(LikeKind::kNotContains, Expr::Column("s"), "apple"), b),
      (std::vector<int32_t>{1}));
}

// ---------------------------------------------------------------------------
// Scalar rules: wrapping integers, MIN / -1, numeric IN, folding
// ---------------------------------------------------------------------------

constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

Schema IntSchema() {
  return Schema({{"i", TypeId::kInt32}, {"l", TypeId::kInt64}});
}

Batch IntBatch() {
  Batch b;
  b.columns = {MakeColumn(TypeId::kInt32), MakeColumn(TypeId::kInt64)};
  b.columns[0]->Data<int32_t>() = {kI32Min, kI32Max, -7};
  b.columns[1]->Data<int64_t>() = {kI64Min, kI64Max, 7};
  b.num_rows = 3;
  return b;
}

template <typename T>
std::vector<T> EvalInts(const ExprPtr& e) {
  ColumnPtr c = ExprProgram(*e, IntSchema()).Eval(IntBatch());
  return std::vector<T>(c->Raw<T>(), c->Raw<T>() + c->size());
}

TEST(ExprScalarRulesTest, IntegerArithmeticWraps) {
  auto i = Expr::Column("i");
  auto l = Expr::Column("l");
  EXPECT_EQ(EvalInts<int32_t>(Expr::Arith(ArithOp::kDiv, i, Expr::Literal(-1))),
            (std::vector<int32_t>{kI32Min, -kI32Max, 7}));
  EXPECT_EQ(EvalInts<int64_t>(
                Expr::Arith(ArithOp::kDiv, l, Expr::Literal(int64_t{-1}))),
            (std::vector<int64_t>{kI64Min, -kI64Max, -7}));
  EXPECT_EQ(EvalInts<int32_t>(Expr::Arith(ArithOp::kAdd, i, Expr::Literal(1))),
            (std::vector<int32_t>{kI32Min + 1, kI32Min, -6}));
  EXPECT_EQ(EvalInts<int32_t>(Expr::Arith(ArithOp::kSub, i, Expr::Literal(1))),
            (std::vector<int32_t>{kI32Max, kI32Max - 1, -8}));
  EXPECT_EQ(
      EvalInts<int64_t>(Expr::Arith(ArithOp::kMul, l, Expr::Literal(2))),
      (std::vector<int64_t>{0, -2, 14}));
  EXPECT_EQ(EvalInts<int64_t>(Expr::Arith(ArithOp::kSub, Expr::Literal(0), l)),
            (std::vector<int64_t>{kI64Min, -kI64Max, -7}));
  EXPECT_EQ(EvalInts<int32_t>(Expr::Arith(ArithOp::kDiv, i, Expr::Literal(0))),
            (std::vector<int32_t>{0, 0, 0}));
  // Inside a predicate: MIN / -1 is MIN, which is < 0.
  std::vector<int32_t> sel;
  ExprProgram(*Expr::Lt(Expr::Arith(ArithOp::kDiv, i, Expr::Literal(-1)),
                        Expr::Literal(0)),
              IntSchema())
      .Select(IntBatch(), &sel);
  EXPECT_EQ(sel, (std::vector<int32_t>{0, 1}));
}

TEST(ExprScalarRulesTest, NumericInIsTheOrOfEquals) {
  Schema s({{"d", TypeId::kDouble}, {"i", TypeId::kInt32}});
  Batch b;
  b.columns = {MakeColumn(TypeId::kDouble), MakeColumn(TypeId::kInt32)};
  b.columns[0]->Data<double>() = {1.2, 1.5, 1.9, -0.0, std::nan("")};
  b.columns[1]->Data<int32_t>() = {1, 2, 3, 0, 4};
  b.num_rows = 5;
  auto sel = [&](const ExprPtr& e) {
    std::vector<int32_t> out;
    ExprProgram(*e, s).Select(b, &out);
    return out;
  };
  auto d = Expr::Column("d");
  EXPECT_EQ(sel(Expr::In(d, {1.5})), (std::vector<int32_t>{1}));
  EXPECT_EQ(sel(Expr::In(d, {1.5})), sel(Expr::Eq(d, Expr::Literal(1.5))));
  EXPECT_EQ(sel(Expr::In(d, {int32_t{1}, 0.0})), (std::vector<int32_t>{3}));
  EXPECT_EQ(sel(Expr::In(d, {std::nan("")})), (std::vector<int32_t>{}));
  EXPECT_EQ(sel(Expr::In(Expr::Column("i"), {2.0, 3.5, int64_t{4}})),
            (std::vector<int32_t>{1, 4}));
}

/// Bitwise datum equality: doubles compare by representation, so NaN
/// equals NaN and -0.0 differs from 0.0.
bool SameDatum(const Datum& a, const Datum& b) {
  if (a.index() != b.index()) return false;
  if (a.index() == 4) {
    double x = std::get<double>(a), y = std::get<double>(b);
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a == b;
}

std::vector<Datum> ScalarPool() {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  return {int32_t{0},     int32_t{-1},         int32_t{7},
          kI32Min,        kI32Max,             int64_t{0},
          int64_t{-1},    int64_t{3},          kI64Min,
          kI64Max,        int64_t{(int64_t{1} << 53) + 1},
          int64_t{1} << 53, 0.0,               -0.0,
          1.5,            -2.5,                nan,
          inf,            -inf,                1e300,
          std::string(""), std::string("apple"),
          std::string("a string longer than fifteen characters")};
}

TEST(ExprScalarRulesTest, FoldedLiteralsEqualColumnEvaluation) {
  // Canonicalization folds literal-only arithmetic and comparisons; the
  // same expression over columns holding those values must give the same
  // bits.
  const std::vector<Datum> pool = ScalarPool();
  int checked = 0;
  for (const Datum& a : pool) {
    for (const Datum& b : pool) {
      const TypeId ta = DatumType(a), tb = DatumType(b);
      Schema s({{"x", ta}, {"y", tb}});
      Batch batch;
      batch.columns = {MakeColumn(ta), MakeColumn(tb)};
      batch.columns[0]->Append(a);
      batch.columns[1]->Append(b);
      batch.num_rows = 1;
      const bool numeric = IsNumeric(ta) && IsNumeric(tb);
      if (numeric) {
        for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                           ArithOp::kDiv}) {
          ExprPtr folded = CanonicalizeExpr(
              Expr::Arith(op, Expr::Literal(a), Expr::Literal(b)));
          ASSERT_EQ(folded->kind(), ExprKind::kLiteral);
          ColumnPtr col = ExprProgram(*Expr::Arith(op, Expr::Column("x"),
                                                   Expr::Column("y")),
                                      s)
                              .Eval(batch);
          EXPECT_TRUE(SameDatum(folded->literal(), col->GetDatum(0)))
              << DatumToString(a) << " op" << static_cast<int>(op) << " "
              << DatumToString(b) << ": folded "
              << DatumToString(folded->literal()) << ", column "
              << DatumToString(col->GetDatum(0));
          ++checked;
        }
      }
      if (numeric || (ta == TypeId::kString && tb == TypeId::kString)) {
        for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
          ExprPtr folded = CanonicalizeExpr(
              Expr::Compare(op, Expr::Literal(a), Expr::Literal(b)));
          ASSERT_EQ(folded->kind(), ExprKind::kLiteral);
          std::vector<int32_t> sel;
          ExprProgram(*Expr::Compare(op, Expr::Column("x"), Expr::Column("y")),
                      s)
              .Select(batch, &sel);
          EXPECT_EQ(std::get<bool>(folded->literal()), sel.size() == 1)
              << DatumToString(a) << " cmp" << static_cast<int>(op) << " "
              << DatumToString(b);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

// ---------------------------------------------------------------------------
// Differential test: compiled kernels vs. a per-row Datum reference
// ---------------------------------------------------------------------------

Schema DiffSchema() {
  return Schema({{"b", TypeId::kBool},
                 {"i", TypeId::kInt32},
                 {"l", TypeId::kInt64},
                 {"d", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"t", TypeId::kDate}});
}

bool RefCompare(CompareOp op, const Datum& a, const Datum& b) {
  int c;
  if (a.index() == 5) {
    c = std::get<std::string>(a).compare(std::get<std::string>(b));
  } else {
    const double x = DatumAsDouble(a), y = DatumAsDouble(b);
    switch (op) {
      case CompareOp::kEq: return x == y;
      case CompareOp::kNe: return x != y;
      case CompareOp::kLt: return x < y;
      case CompareOp::kLe: return x <= y;
      case CompareOp::kGt: return x > y;
      case CompareOp::kGe: return x >= y;
    }
  }
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

Datum RefArith(ArithOp op, TypeId type, const Datum& a, const Datum& b) {
  if (type == TypeId::kDouble) {
    const double x = DatumAsDouble(a), y = DatumAsDouble(b);
    switch (op) {
      case ArithOp::kAdd: return x + y;
      case ArithOp::kSub: return x - y;
      case ArithOp::kMul: return x * y;
      case ArithOp::kDiv: return y == 0 ? 0.0 : x / y;
    }
  }
  if (type == TypeId::kInt64) {
    const int64_t x = DatumAsInt64(a), y = DatumAsInt64(b);
    const uint64_t ux = static_cast<uint64_t>(x), uy = static_cast<uint64_t>(y);
    switch (op) {
      case ArithOp::kAdd: return static_cast<int64_t>(ux + uy);
      case ArithOp::kSub: return static_cast<int64_t>(ux - uy);
      case ArithOp::kMul: return static_cast<int64_t>(ux * uy);
      case ArithOp::kDiv:
        if (y == 0) return int64_t{0};
        if (x == kI64Min && y == -1) return kI64Min;
        return x / y;
    }
  }
  // int32: exact in int64, then reduced modulo 2^32.
  const int64_t x = DatumAsInt64(a), y = DatumAsInt64(b);
  int64_t wide = 0;
  switch (op) {
    case ArithOp::kAdd: wide = x + y; break;
    case ArithOp::kSub: wide = x - y; break;
    case ArithOp::kMul: wide = x * y; break;
    case ArithOp::kDiv: wide = y == 0 ? 0 : x / y; break;
  }
  return static_cast<int32_t>(static_cast<uint32_t>(wide));
}

/// Converts a branch value to a CASE result type.
Datum RefConvert(const Datum& v, TypeId type) {
  if (type == TypeId::kDouble) return DatumAsDouble(v);
  if (type == TypeId::kInt64) return DatumAsInt64(v);
  return v;
}

/// Evaluates `e` on one row, one node at a time over Datums.
Datum Ref(const Expr& e, const Schema& schema, const Batch& batch,
          int64_t row) {
  auto kid = [&](int k) { return Ref(*e.children()[k], schema, batch, row); };
  switch (e.kind()) {
    case ExprKind::kColumnRef:
      return batch.columns[schema.IndexOf(e.column_name())]->GetDatum(row);
    case ExprKind::kLiteral:
      return e.literal();
    case ExprKind::kParam:
      break;
    case ExprKind::kCompare:
      return RefCompare(e.compare_op(), kid(0), kid(1));
    case ExprKind::kLogical: {
      const bool l = std::get<bool>(kid(0));
      if (e.logical_op() == LogicalOp::kNot) return !l;
      const bool r = std::get<bool>(kid(1));
      return e.logical_op() == LogicalOp::kAnd ? (l && r) : (l || r);
    }
    case ExprKind::kArith:
      return RefArith(e.arith_op(), TypeOf(e, schema), kid(0), kid(1));
    case ExprKind::kFunc: {
      const Datum v = kid(0);
      if (e.func_name() == "year") return DateYear(std::get<int32_t>(v));
      if (e.func_name() == "month") return DateMonth(std::get<int32_t>(v));
      int64_t x;
      if (v.index() == 4) {
        const double dv = std::get<double>(v);
        x = dv >= -9223372036854775808.0 && dv < 9223372036854775808.0
                ? static_cast<int64_t>(dv)
                : kI64Min;
      } else {
        x = DatumAsInt64(v);
      }
      const int64_t w = DatumAsInt64(e.children()[1]->literal());
      int64_t q = x / w;
      if (x < 0 && x % w != 0) --q;
      return q;
    }
    case ExprKind::kCase:
      return RefConvert(std::get<bool>(kid(0)) ? kid(1) : kid(2),
                        TypeOf(e, schema));
    case ExprKind::kInList: {
      const Datum v = kid(0);
      for (const Datum& x : e.in_values()) {
        if (RefCompare(CompareOp::kEq, v, x)) return true;
      }
      return false;
    }
    case ExprKind::kLike: {
      const std::string s = std::get<std::string>(kid(0));
      const std::string& p = e.like_pattern();
      const bool prefix = s.size() >= p.size() && s.substr(0, p.size()) == p;
      const bool suffix =
          s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
      const bool contains = s.find(p) != std::string::npos;
      switch (e.like_kind()) {
        case LikeKind::kContains: return contains;
        case LikeKind::kPrefix: return prefix;
        case LikeKind::kSuffix: return suffix;
        case LikeKind::kNotContains: return !contains;
      }
    }
  }
  ADD_FAILURE() << "unexpected node " << e.Fingerprint(nullptr);
  return Datum();
}

/// Random expressions over DiffSchema(), typed by construction.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  ExprPtr Any(int depth) {
    switch (rng_.Uniform(0, 2)) {
      case 0: return Bool(depth);
      case 1: return Num(depth);
      default: return Str(depth);
    }
  }

  ExprPtr Bool(int depth) {
    if (depth <= 0) {
      switch (rng_.Uniform(0, 2)) {
        case 0: return Expr::Column("b");
        case 1: return Expr::Literal(rng_.Uniform(0, 1) == 1);
        default: return Expr::Compare(CmpOp(), Num(0), Num(0));
      }
    }
    const int d = depth - 1;
    switch (rng_.Uniform(0, 10)) {
      case 0: return Expr::Compare(CmpOp(), Num(d), Num(d));
      case 1: return Expr::Compare(CmpOp(), Str(d), Str(d));
      case 2: return Expr::And(Bool(d), Bool(d));
      case 3: return Expr::Or(Bool(d), Bool(d));
      case 4: return Expr::Not(Bool(d));
      case 5: {
        std::vector<Datum> values;
        for (int64_t k = rng_.Uniform(0, 4); k >= 0; --k) {
          values.push_back(NumLiteral());
        }
        return Expr::In(rng_.Uniform(0, 5) == 0 ? Expr::Column("b") : Num(d),
                        std::move(values));
      }
      case 6: {
        std::vector<Datum> values;
        for (int64_t k = rng_.Uniform(0, 3); k >= 0; --k) {
          values.push_back(StrLiteral());
        }
        return Expr::In(Str(d), std::move(values));
      }
      case 7: {
        static const char* patterns[] = {"", "a", "apple", "PERSON",
                                         "fifteen", "zz"};
        return Expr::Like(static_cast<LikeKind>(rng_.Uniform(0, 3)), Str(d),
                          patterns[rng_.Uniform(0, 5)]);
      }
      case 8: return Expr::Case(Bool(d), Bool(d), Bool(d));
      case 9: return Expr::Compare(CmpOp(), Bool(d), Bool(d));
      default: return Bool(0);
    }
  }

  ExprPtr Num(int depth) {
    if (depth <= 0) {
      static const char* cols[] = {"i", "l", "d", "t"};
      if (rng_.Uniform(0, 2) == 0) return Expr::Literal(NumLiteral());
      return Expr::Column(cols[rng_.Uniform(0, 3)]);
    }
    const int d = depth - 1;
    switch (rng_.Uniform(0, 7)) {
      case 0:
      case 1:
      case 2:
        return Expr::Arith(static_cast<ArithOp>(rng_.Uniform(0, 3)), Num(d),
                           Num(d));
      case 3: return Expr::Case(Bool(d), Num(d), Num(d));
      case 4:
        return Expr::Func(rng_.Uniform(0, 1) == 0 ? "year" : "month",
                          {Expr::Column("t")});
      case 5: {
        static const Datum widths[] = {int32_t{1}, int32_t{3}, int64_t{10},
                                       2.5};
        return Expr::Func("bin",
                          {Num(d), Expr::Literal(widths[rng_.Uniform(0, 3)])});
      }
      default: return Num(0);
    }
  }

  ExprPtr Str(int depth) {
    if (depth > 0 && rng_.Uniform(0, 3) == 0) {
      return Expr::Case(Bool(depth - 1), Str(depth - 1), Str(depth - 1));
    }
    if (rng_.Uniform(0, 2) == 0) return Expr::Literal(StrLiteral());
    return Expr::Column("s");
  }

  Datum NumLiteral() {
    std::vector<Datum> pool = ScalarPool();
    pool.resize(pool.size() - 3);  // drop the strings
    if (rng_.Uniform(0, 3) == 0) {
      return static_cast<int32_t>(rng_.Uniform(-20, 20));
    }
    return pool[rng_.Uniform(0, static_cast<int64_t>(pool.size()) - 1)];
  }

  std::string StrLiteral() {
    static const char* strs[] = {"",
                                 "a",
                                 "apple",
                                 "apple pie",
                                 "DELIVER IN PERSON",
                                 "a string longer than fifteen characters",
                                 "zz top"};
    return strs[rng_.Uniform(0, 6)];
  }

  /// A batch of `rows` rows; with `offset` > 0 every column is a view at
  /// that offset into a larger owning column.
  Batch MakeBatch(int64_t rows, int64_t offset) {
    Batch batch;
    Schema schema = DiffSchema();
    for (int c = 0; c < schema.num_fields(); ++c) {
      ColumnPtr col = MakeColumn(schema.field(c).type);
      for (int64_t r = 0; r < rows + 2 * offset; ++r) {
        col->Append(Value(schema.field(c).type));
      }
      batch.columns.push_back(
          offset > 0 ? ColumnVector::Slice(col, offset, rows) : col);
    }
    batch.num_rows = rows;
    return batch;
  }

 private:
  CompareOp CmpOp() { return static_cast<CompareOp>(rng_.Uniform(0, 5)); }

  Datum Value(TypeId type) {
    switch (type) {
      case TypeId::kBool:
        return rng_.Uniform(0, 1) == 1;
      case TypeId::kInt32: {
        static const int32_t special[] = {kI32Min, kI32Max, 0, -1, 1};
        if (rng_.Uniform(0, 7) == 0) return special[rng_.Uniform(0, 4)];
        return static_cast<int32_t>(rng_.Uniform(-20, 20));
      }
      case TypeId::kInt64: {
        static const int64_t special[] = {
            kI64Min, kI64Max, (int64_t{1} << 53) + 1, int64_t{1} << 53,
            -((int64_t{1} << 53) + 1), 0, -1};
        if (rng_.Uniform(0, 5) == 0) return special[rng_.Uniform(0, 6)];
        return rng_.Uniform(-1000, 1000);
      }
      case TypeId::kDouble: {
        static const double special[] = {
            0.0, -0.0, std::nan(""), std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(), 1.5, -2.5, 1e300};
        if (rng_.Uniform(0, 4) == 0) return special[rng_.Uniform(0, 7)];
        return (rng_.NextDouble() - 0.5) * 40;
      }
      case TypeId::kString:
        return StrLiteral();
      case TypeId::kDate:
        return static_cast<int32_t>(MakeDate(1992, 1, 1) +
                                    rng_.Uniform(0, 3000));
    }
    return Datum();
  }

  Rng rng_;
};

void ExpectMatchesReference(const ExprPtr& e, const ColumnPtr& col,
                            const Batch& batch) {
  ASSERT_EQ(col->size(), batch.num_rows);
  for (int64_t r = 0; r < batch.num_rows; ++r) {
    const Datum want = Ref(*e, DiffSchema(), batch, r);
    ASSERT_TRUE(SameDatum(col->GetDatum(r), want))
        << "row " << r << ": got " << DatumToString(col->GetDatum(r))
        << ", want " << DatumToString(want);
  }
}

TEST(ExprDifferentialTest, KernelsMatchPerRowReference) {
  ExprGen gen(20240613);
  const Schema schema = DiffSchema();
  const int64_t sizes[] = {0, 1, 7, 100, 1024};
  int selections = 0, all_pass = 0, none_pass = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const bool predicate = trial % 2 == 0;
    const int depth = static_cast<int>(trial % 4) + 1;
    ExprPtr e = predicate ? gen.Bool(depth) : gen.Any(depth);
    SCOPED_TRACE(e->Fingerprint(nullptr));
    ExprProgram program(*e, schema);
    ASSERT_EQ(program.type(), TypeOf(*e, schema));
    // One program over several batches: buffers are reused across them,
    // and columns handed out earlier must keep their values.
    std::vector<std::pair<Batch, ColumnPtr>> outputs;
    for (int k = 0; k < 3; ++k) {
      Batch batch = gen.MakeBatch(sizes[(trial + k) % 5], (trial + k) % 3);
      ColumnPtr col = program.Eval(batch);
      ExpectMatchesReference(e, col, batch);
      if (program.type() == TypeId::kBool) {
        std::vector<int32_t> sel, want;
        program.Select(batch, &sel);
        for (int64_t r = 0; r < batch.num_rows; ++r) {
          if (std::get<bool>(Ref(*e, schema, batch, r))) {
            want.push_back(static_cast<int32_t>(r));
          }
        }
        ASSERT_EQ(sel, want);
        ++selections;
        if (batch.num_rows > 0) {
          all_pass += static_cast<int64_t>(want.size()) == batch.num_rows;
          none_pass += want.empty();
        }
      }
      outputs.emplace_back(std::move(batch), std::move(col));
    }
    for (const auto& [batch, col] : outputs) {
      ExpectMatchesReference(e, col, batch);
    }
    if (HasFailure()) return;
  }
  // The generated batches include all-pass and none-pass selections.
  EXPECT_GT(selections, 2000);
  EXPECT_GT(all_pass, 50);
  EXPECT_GT(none_pass, 50);
}

TEST(ExprDifferentialTest, OrOfNotIsAllPassAndAndOfNotIsNonePass) {
  // p OR NOT p passes every row and p AND NOT p none, whatever p is: the
  // OR/NOT/AND selection splitting must partition rows exactly.
  ExprGen gen(7);
  const Schema schema = DiffSchema();
  for (int trial = 0; trial < 300; ++trial) {
    ExprPtr p = gen.Bool(trial % 4 + 1);
    SCOPED_TRACE(p->Fingerprint(nullptr));
    Batch batch = gen.MakeBatch(trial % 2 == 0 ? 1024 : 33, trial % 2);
    std::vector<int32_t> all(batch.num_rows), sel;
    for (int64_t r = 0; r < batch.num_rows; ++r) {
      all[r] = static_cast<int32_t>(r);
    }
    ExprProgram(*Expr::Or(p, Expr::Not(p)), schema).Select(batch, &sel);
    ASSERT_EQ(sel, all);
    ExprProgram(*Expr::And(p, Expr::Not(p)), schema).Select(batch, &sel);
    ASSERT_TRUE(sel.empty());
  }
}

TEST(ExprFingerprintTest, StructuralIdentity) {
  ExprPtr a = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{5}));
  ExprPtr b = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{5}));
  ExprPtr c = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{6}));
  EXPECT_EQ(a->Fingerprint(nullptr), b->Fingerprint(nullptr));
  EXPECT_NE(a->Fingerprint(nullptr), c->Fingerprint(nullptr));
}

TEST(ExprFingerprintTest, MappingSubstitutesColumns) {
  ExprPtr e = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{5}));
  NameMap m{{"x", "x#12"}};
  EXPECT_EQ(e->Fingerprint(&m), "(> c:x#12 l:5)");
  EXPECT_EQ(e->Fingerprint(nullptr), "(> c:x l:5)");
}

TEST(ExprFingerprintTest, AnonymizedShapeEqualAcrossNames) {
  ExprPtr a = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{5}));
  ExprPtr b = Expr::Gt(Expr::Column("y"), Expr::Literal(int64_t{5}));
  EXPECT_EQ(a->Fingerprint(nullptr, true), b->Fingerprint(nullptr, true));
  // But different literals still differ (hash-key selectivity).
  ExprPtr c = Expr::Gt(Expr::Column("y"), Expr::Literal(int64_t{6}));
  EXPECT_NE(a->Fingerprint(nullptr, true), c->Fingerprint(nullptr, true));
}

TEST(ExprRenameTest, RenamesAllReferences) {
  ExprPtr e = Expr::And(Expr::Gt(Expr::Column("x"), Expr::Column("y")),
                        Expr::Eq(Expr::Column("x"), Expr::Literal(int64_t{1})));
  ExprPtr r = e->Rename({{"x", "u"}});
  std::set<std::string> cols;
  r->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"u", "y"}));
}

TEST(ExprConjunctsTest, SplitAndRebuild) {
  ExprPtr a = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{1}));
  ExprPtr b = Expr::Lt(Expr::Column("y"), Expr::Literal(int64_t{2}));
  ExprPtr c = Expr::Eq(Expr::Column("z"), Expr::Literal(int64_t{3}));
  ExprPtr all = Expr::And(Expr::And(a, b), c);
  auto parts = SplitConjuncts(all);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->Fingerprint(nullptr), a->Fingerprint(nullptr));
  ExprPtr rebuilt = AndAll(parts);
  EXPECT_EQ(rebuilt->Fingerprint(nullptr), all->Fingerprint(nullptr));
  // OR is not split.
  EXPECT_EQ(SplitConjuncts(Expr::Or(a, b)).size(), 1u);
  EXPECT_EQ(AndAll({}), nullptr);
}

TEST(AggregateTest, ResultTypes) {
  EXPECT_EQ(AggResultType(AggFunc::kSum, TypeId::kInt32), TypeId::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kSum, TypeId::kDouble), TypeId::kDouble);
  EXPECT_EQ(AggResultType(AggFunc::kCount, TypeId::kString), TypeId::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kAvg, TypeId::kInt32), TypeId::kDouble);
  EXPECT_EQ(AggResultType(AggFunc::kMin, TypeId::kDate), TypeId::kDate);
}

TEST(AggregateTest, DecomposeSumCountMinMax) {
  AggItem sum{AggFunc::kSum, Expr::Column("v"), "s"};
  AggDecomposition d = DecomposeAggregate(sum, "p");
  ASSERT_EQ(d.partials.size(), 1u);
  EXPECT_EQ(d.reaggs[0], AggFunc::kSum);
  EXPECT_EQ(d.final_expr, nullptr);

  AggItem cnt{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"};
  d = DecomposeAggregate(cnt, "p");
  EXPECT_EQ(d.reaggs[0], AggFunc::kSum);  // count of union = sum of counts

  AggItem mn{AggFunc::kMin, Expr::Column("v"), "m"};
  d = DecomposeAggregate(mn, "p");
  EXPECT_EQ(d.reaggs[0], AggFunc::kMin);
}

TEST(AggregateTest, DecomposeAvgNeedsSumAndCount) {
  AggItem avg{AggFunc::kAvg, Expr::Column("v"), "a"};
  AggDecomposition d = DecomposeAggregate(avg, "p");
  ASSERT_EQ(d.partials.size(), 2u);
  EXPECT_EQ(d.partials[0].fn, AggFunc::kSum);
  EXPECT_EQ(d.partials[1].fn, AggFunc::kCount);
  ASSERT_NE(d.final_expr, nullptr);
}

}  // namespace
}  // namespace recycledb
