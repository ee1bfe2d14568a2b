#include "expr/program.h"

#include <algorithm>
#include <string>
#include <type_traits>

#include "api/validate.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "expr/scalar.h"

namespace recycledb {

namespace expr_internal {

enum class FuncId : uint8_t { kYear, kMonth, kBin };

/// A node's values as kernels read them: rows indexed by row id, or one
/// literal.
struct Operand {
  TypeId type;
  const void* rows = nullptr;
  const Datum* literal = nullptr;  // set for a literal, which has no rows
};

struct Node {
  ExprKind kind = ExprKind::kLiteral;
  TypeId type = TypeId::kBool;
  int kids[3] = {-1, -1, -1};
  int column = -1;  // kColumnRef: index into the input schema
  Datum literal;    // kLiteral
  CompareOp compare_op = CompareOp::kEq;
  LogicalOp logical_op = LogicalOp::kAnd;
  ArithOp arith_op = ArithOp::kAdd;
  FuncId func = FuncId::kYear;
  int64_t bin_width = 1;
  LikeKind like_kind = LikeKind::kContains;
  std::string pattern;
  std::vector<double> in_numbers;       // sorted, NaN dropped
  std::vector<std::string> in_strings;  // sorted
  /// Computed rows of an inner node, reused across batches. The root's
  /// column is handed to ExprProgram::Eval's caller and replaced.
  ColumnPtr values;
  /// Selection temporaries: OR/NOT/CASE row splits, and the passing rows
  /// of a predicate read as a bool column.
  std::vector<int32_t> sel_a, sel_b, hits;
};

}  // namespace expr_internal

using expr_internal::FuncId;
using expr_internal::Node;
using expr_internal::Operand;

namespace {

// ---------------------------------------------------------------------------
// Kernel building blocks. Operands are read through accessors indexed by
// row id, so one loop body serves column and literal operands; the type
// dispatch happens once per batch, outside the loops.
// ---------------------------------------------------------------------------

template <typename T>
struct Rows {
  const T* p;
  const T& operator[](int32_t r) const { return p[r]; }
};

template <typename T>
struct Const {
  T v;
  const T& operator[](int32_t) const { return v; }
};

struct StringConst {
  const std::string* v;
  const std::string& operator[](int32_t) const { return *v; }
};

/// Calls f(row) for rows [0, n) when `sel` is null, else for sel[0, n).
template <typename F>
inline void ForEachRow(const int32_t* sel, int64_t n, F&& f) {
  if (sel == nullptr) {
    for (int64_t r = 0; r < n; ++r) f(static_cast<int32_t>(r));
  } else {
    for (int64_t i = 0; i < n; ++i) f(sel[i]);
  }
}

/// Writes the selected rows that pass `pred` to `out` (which may alias
/// `sel`: a row is read before any write at or past its slot) and returns
/// their count.
template <typename Pred>
inline int64_t FilterRows(const int32_t* sel, int64_t n, int32_t* out,
                          Pred&& pred) {
  int64_t k = 0;
  ForEachRow(sel, n, [&](int32_t r) {
    out[k] = r;
    k += pred(r) ? 1 : 0;
  });
  return k;
}

/// The selected rows not in `sub` (an ascending subsequence of them);
/// `out` may alias `sel`.
int64_t Complement(const int32_t* sel, int64_t n, const int32_t* sub,
                   int64_t k, int32_t* out) {
  int64_t j = 0, m = 0;
  ForEachRow(sel, n, [&](int32_t r) {
    if (j < k && sub[j] == r) {
      ++j;
    } else {
      out[m++] = r;
    }
  });
  return m;
}

int32_t* Temp(std::vector<int32_t>* buf, int64_t n) {
  if (static_cast<int64_t>(buf->size()) < n) buf->resize(n);
  return buf->data();
}

/// True when storage type T converts to compute type R without loss of
/// the engine's semantics (integers widen; anything reads as double).
template <typename T, typename R>
constexpr bool kWidens =
    std::is_same_v<T, R> || std::is_floating_point_v<R> ||
    (std::is_integral_v<T> && std::is_integral_v<R> &&
     sizeof(T) <= sizeof(R));

/// Calls fn(accessor) with `o` read as compute type R: a Const<R> for a
/// literal (converted once), else Rows<T> of its storage type T.
template <typename R, typename Fn>
void VisitAs(const Operand& o, Fn&& fn) {
  if constexpr (std::is_same_v<R, std::string>) {
    RDB_CHECK(o.type == TypeId::kString);
    if (o.literal != nullptr) {
      fn(StringConst{&std::get<std::string>(*o.literal)});
    } else {
      fn(Rows<std::string>{static_cast<const std::string*>(o.rows)});
    }
    return;
  } else {
    if (o.literal != nullptr) {
      if constexpr (std::is_floating_point_v<R>) {
        fn(Const<R>{DatumAsDouble(*o.literal)});
      } else {
        fn(Const<R>{static_cast<R>(DatumAsInt64(*o.literal))});
      }
      return;
    }
    auto rows = [&](const auto* p) {
      using T = std::remove_cv_t<std::remove_pointer_t<decltype(p)>>;
      if constexpr (kWidens<T, R>) {
        fn(Rows<T>{p});
      } else {
        RDB_UNREACHABLE("operand does not widen to the compute type");
      }
    };
    switch (o.type) {
      case TypeId::kBool:
        return rows(static_cast<const uint8_t*>(o.rows));
      case TypeId::kInt32:
      case TypeId::kDate:
        return rows(static_cast<const int32_t*>(o.rows));
      case TypeId::kInt64:
        return rows(static_cast<const int64_t*>(o.rows));
      case TypeId::kDouble:
        return rows(static_cast<const double*>(o.rows));
      case TypeId::kString:
        break;
    }
    RDB_UNREACHABLE("numeric operand expected");
  }
}

template <typename T>
struct TypeTag {
  using type = T;
};

/// Calls fn(TypeTag<S>) for the storage type S of `type`.
template <typename Fn>
void WithStorage(TypeId type, Fn&& fn) {
  switch (type) {
    case TypeId::kBool:
      return fn(TypeTag<uint8_t>{});
    case TypeId::kInt32:
    case TypeId::kDate:
      return fn(TypeTag<int32_t>{});
    case TypeId::kInt64:
      return fn(TypeTag<int64_t>{});
    case TypeId::kDouble:
      return fn(TypeTag<double>{});
    case TypeId::kString:
      return fn(TypeTag<std::string>{});
  }
}

const void* RowData(const ColumnVector& col, TypeId type) {
  const void* p = nullptr;
  WithStorage(type, [&](auto tag) {
    p = col.Raw<typename decltype(tag)::type>();
  });
  return p;
}

/// The node's value buffer, sized to `rows`.
template <typename T>
T* Buffer(Node* nd, int64_t rows) {
  if (nd->values == nullptr) nd->values = MakeColumn(nd->type);
  std::vector<T>& v = nd->values->Data<T>();
  v.resize(rows);
  return v.data();
}

/// x == some element of the sorted, NaN-free `values` (so NaN never
/// matches and -0.0 matches 0.0, as `=` does).
bool InSorted(const std::vector<double>& values, double x) {
  auto it = std::lower_bound(values.begin(), values.end(), x);
  return it != values.end() && *it == x;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

namespace {

int CountNodes(const Expr& expr) {
  int n = 1;
  for (const ExprPtr& c : expr.children()) n += CountNodes(*c);
  return n;
}

}  // namespace

ExprProgram::ExprProgram(const Expr& expr, const Schema& input) {
  // Reserved up front: Compile keeps node pointers across recursion.
  nodes_.reserve(CountNodes(expr));
  Compile(expr, input);
}

ExprProgram::~ExprProgram() = default;
ExprProgram::ExprProgram(ExprProgram&&) noexcept = default;

TypeId ExprProgram::type() const { return nodes_[0].type; }

int ExprProgram::Compile(const Expr& expr, const Schema& input) {
  const int id = static_cast<int>(nodes_.size());
  Node* nd = &nodes_.emplace_back();
  nd->kind = expr.kind();
  const std::vector<ExprPtr>& kids = expr.children();
  // A node has three kid slots; the typing rule rejects any wider node.
  TypeId kid_types[3] = {};
  for (size_t i = 0; i < kids.size() && i < 3; ++i) {
    nd->kids[i] = Compile(*kids[i], input);
    kid_types[i] = nodes_[nd->kids[i]].type;
  }
  const Status st = CheckExprNode(expr, kid_types, input, &nd->type);
  RDB_CHECK_MSG(st.ok(), st.message().c_str());
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      nd->column = input.IndexOf(expr.column_name());
      break;
    case ExprKind::kLiteral:
      nd->literal = expr.literal();
      break;
    case ExprKind::kCompare:
      nd->compare_op = expr.compare_op();
      break;
    case ExprKind::kLogical:
      nd->logical_op = expr.logical_op();
      break;
    case ExprKind::kArith:
      nd->arith_op = expr.arith_op();
      break;
    case ExprKind::kFunc:
      if (expr.func_name() == "bin") {
        // bin(value, width): floor(value / width); width is a literal.
        nd->func = FuncId::kBin;
        nd->bin_width = DatumAsInt64(kids[1]->literal());
      } else {
        nd->func = expr.func_name() == "year" ? FuncId::kYear : FuncId::kMonth;
      }
      break;
    case ExprKind::kParam:  // rejected by the rule
    case ExprKind::kCase:   // no operands beyond its kids
      break;
    case ExprKind::kInList:
      // Numeric IN is the OR of `=` over the list, so it compares through
      // double like `=` does.
      for (const Datum& v : expr.in_values()) {
        if (kid_types[0] == TypeId::kString) {
          nd->in_strings.push_back(std::get<std::string>(v));
        } else if (double d = DatumAsDouble(v); d == d) {
          nd->in_numbers.push_back(d);
        }
      }
      std::sort(nd->in_strings.begin(), nd->in_strings.end());
      std::sort(nd->in_numbers.begin(), nd->in_numbers.end());
      break;
    case ExprKind::kLike:
      nd->like_kind = expr.like_kind();
      nd->pattern = expr.like_pattern();
      break;
  }
  return id;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

ColumnPtr ExprProgram::Eval(const Batch& batch) {
  rows_ = batch.num_rows;
  Node* root = &nodes_[0];
  if (root->kind == ExprKind::kColumnRef) return batch.columns[root->column];
  if (root->kind == ExprKind::kLiteral) {
    // A constant output column is the one place a literal is broadcast.
    ColumnPtr out = MakeColumn(root->type);
    Operand lit{root->type, nullptr, &root->literal};
    WithStorage(root->type, [&](auto tag) {
      using S = typename decltype(tag)::type;
      VisitAs<S>(lit, [&](auto v) { out->Data<S>().assign(rows_, v[0]); });
    });
    return out;
  }
  // The result leaves the program: compute it into a fresh column.
  root->values = nullptr;
  Values(0, batch, nullptr, rows_);
  return std::move(root->values);
}

void ExprProgram::Select(const Batch& batch, std::vector<int32_t>* sel) {
  RDB_CHECK_MSG(type() == TypeId::kBool, "predicate must be boolean");
  rows_ = batch.num_rows;
  sel->resize(rows_);
  sel->resize(Filter(0, batch, nullptr, rows_, sel->data()));
}

Operand ExprProgram::Values(int id, const Batch& batch, const int32_t* sel,
                            int64_t n) {
  Node* nd = &nodes_[id];
  switch (nd->kind) {
    case ExprKind::kColumnRef:
      return {nd->type, RowData(*batch.columns[nd->column], nd->type)};
    case ExprKind::kLiteral:
      return {nd->type, nullptr, &nd->literal};
    case ExprKind::kParam:
      RDB_UNREACHABLE("unbound parameter");
    case ExprKind::kCompare:
    case ExprKind::kLogical:
    case ExprKind::kInList:
    case ExprKind::kLike: {
      // A predicate read as a bool column: its passing rows become 1s.
      uint8_t* mask = Buffer<uint8_t>(nd, rows_);
      int32_t* hits = Temp(&nd->hits, n);
      const int64_t k = Filter(id, batch, sel, n, hits);
      ForEachRow(sel, n, [&](int32_t r) { mask[r] = 0; });
      for (int64_t i = 0; i < k; ++i) mask[hits[i]] = 1;
      break;
    }
    case ExprKind::kArith: {
      const Operand l = Values(nd->kids[0], batch, sel, n);
      const Operand r = Values(nd->kids[1], batch, sel, n);
      WithStorage(nd->type, [&](auto tag) {
        using R = typename decltype(tag)::type;
        if constexpr (std::is_arithmetic_v<R> && !std::is_same_v<R, uint8_t>) {
          R* out = Buffer<R>(nd, rows_);
          scalar::WithArithOp(nd->arith_op, [&](auto op) {
            VisitAs<R>(l, [&](auto a) {
              VisitAs<R>(r, [&](auto b) {
                ForEachRow(sel, n, [&](int32_t row) {
                  out[row] = scalar::Arith<decltype(op)::value, R>(
                      static_cast<R>(a[row]), static_cast<R>(b[row]));
                });
              });
            });
          });
        }
      });
      break;
    }
    case ExprKind::kFunc: {
      const Operand arg = Values(nd->kids[0], batch, sel, n);
      if (nd->func == FuncId::kBin) {
        int64_t* out = Buffer<int64_t>(nd, rows_);
        const int64_t w = nd->bin_width;
        auto bin = [&](auto v) {
          ForEachRow(sel, n, [&](int32_t row) {
            int64_t x;
            if constexpr (std::is_floating_point_v<
                              std::decay_t<decltype(v[row])>>) {
              x = scalar::TruncToInt64(v[row]);
            } else {
              x = v[row];
            }
            out[row] = x / w - (x < 0 && x % w != 0 ? 1 : 0);  // floor
          });
        };
        if (arg.type == TypeId::kDouble) {
          VisitAs<double>(arg, bin);
        } else {
          VisitAs<int64_t>(arg, bin);
        }
        break;
      }
      int32_t* out = Buffer<int32_t>(nd, rows_);
      VisitAs<int32_t>(arg, [&](auto v) {
        if (nd->func == FuncId::kYear) {
          ForEachRow(sel, n, [&](int32_t row) { out[row] = DateYear(v[row]); });
        } else {
          ForEachRow(sel, n,
                     [&](int32_t row) { out[row] = DateMonth(v[row]); });
        }
      });
      break;
    }
    case ExprKind::kCase: {
      // Each branch is computed only on the rows that take it.
      int32_t* then_rows = Temp(&nd->sel_a, n);
      const int64_t t = Filter(nd->kids[0], batch, sel, n, then_rows);
      int32_t* else_rows = Temp(&nd->sel_b, n);
      const int64_t e = Complement(sel, n, then_rows, t, else_rows);
      WithStorage(nd->type, [&](auto tag) {
        using O = typename decltype(tag)::type;
        O* out = Buffer<O>(nd, rows_);
        auto branch = [&](int kid, const int32_t* rows, int64_t count) {
          if (count == 0) return;
          const Operand v = Values(kid, batch, rows, count);
          VisitAs<O>(v, [&](auto src) {
            ForEachRow(rows, count, [&](int32_t row) {
              if constexpr (std::is_same_v<O, std::string>) {
                out[row] = src[row];
              } else {
                out[row] = static_cast<O>(src[row]);
              }
            });
          });
        };
        branch(nd->kids[1], then_rows, t);
        branch(nd->kids[2], else_rows, e);
      });
      break;
    }
  }
  return {nd->type, RowData(*nd->values, nd->type)};
}

int64_t ExprProgram::Filter(int id, const Batch& batch, const int32_t* sel,
                            int64_t n, int32_t* out) {
  if (n == 0) return 0;
  Node* nd = &nodes_[id];
  int64_t k = 0;
  switch (nd->kind) {
    case ExprKind::kCompare: {
      const Operand l = Values(nd->kids[0], batch, sel, n);
      const Operand r = Values(nd->kids[1], batch, sel, n);
      scalar::WithCompareOp(nd->compare_op, [&](auto op) {
        constexpr CompareOp kOp = decltype(op)::value;
        if (l.type == TypeId::kString) {
          VisitAs<std::string>(l, [&](auto a) {
            VisitAs<std::string>(r, [&](auto b) {
              k = FilterRows(sel, n, out, [&](int32_t row) {
                return scalar::Compare<kOp, std::string>(a[row], b[row]);
              });
            });
          });
          return;
        }
        VisitAs<double>(l, [&](auto a) {
          VisitAs<double>(r, [&](auto b) {
            k = FilterRows(sel, n, out, [&](int32_t row) {
              return scalar::Compare<kOp, double>(static_cast<double>(a[row]),
                                                  static_cast<double>(b[row]));
            });
          });
        });
      });
      return k;
    }
    case ExprKind::kLogical: {
      if (nd->logical_op == LogicalOp::kAnd) {
        // Narrowing: the right conjunct sees only the left's survivors.
        k = Filter(nd->kids[0], batch, sel, n, out);
        return Filter(nd->kids[1], batch, out, k, out);
      }
      int32_t* left = Temp(&nd->sel_a, n);
      const int64_t a = Filter(nd->kids[0], batch, sel, n, left);
      if (nd->logical_op == LogicalOp::kNot) {
        return Complement(sel, n, left, a, out);
      }
      // OR: the right side sees only the rows the left side rejected.
      int32_t* rest = Temp(&nd->sel_b, n);
      int64_t b = Complement(sel, n, left, a, rest);
      b = Filter(nd->kids[1], batch, rest, b, rest);
      return std::merge(left, left + a, rest, rest + b, out) - out;
    }
    case ExprKind::kInList: {
      const Operand v = Values(nd->kids[0], batch, sel, n);
      if (v.type == TypeId::kString) {
        const std::vector<std::string>& set = nd->in_strings;
        VisitAs<std::string>(v, [&](auto s) {
          k = FilterRows(sel, n, out, [&](int32_t row) {
            return std::binary_search(set.begin(), set.end(), s[row]);
          });
        });
      } else {
        VisitAs<double>(v, [&](auto x) {
          k = FilterRows(sel, n, out, [&](int32_t row) {
            return InSorted(nd->in_numbers, static_cast<double>(x[row]));
          });
        });
      }
      return k;
    }
    case ExprKind::kLike: {
      const Operand v = Values(nd->kids[0], batch, sel, n);
      const std::string& p = nd->pattern;
      auto run = [&](auto match) {
        VisitAs<std::string>(v, [&](auto s) {
          k = FilterRows(sel, n, out,
                         [&](int32_t row) { return match(s[row]); });
        });
      };
      switch (nd->like_kind) {
        case LikeKind::kContains:
          run([&](const std::string& s) { return Contains(s, p); });
          break;
        case LikeKind::kPrefix:
          run([&](const std::string& s) { return StartsWith(s, p); });
          break;
        case LikeKind::kSuffix:
          run([&](const std::string& s) { return EndsWith(s, p); });
          break;
        case LikeKind::kNotContains:
          run([&](const std::string& s) { return !Contains(s, p); });
          break;
      }
      return k;
    }
    default: {
      // A bool column, literal or CASE used as a predicate.
      const Operand v = Values(id, batch, sel, n);
      VisitAs<uint8_t>(v, [&](auto b) {
        k = FilterRows(sel, n, out, [&](int32_t row) { return b[row] != 0; });
      });
      return k;
    }
  }
}

}  // namespace recycledb
