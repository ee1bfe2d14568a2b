#include "expr/expression.h"

#include <unordered_set>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace recycledb {

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumnRef;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Datum value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Param(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kParam;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kAnd;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kOr;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr c) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kNot;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kFunc;
  e->name_ = std::move(name);
  e->children_ = std::move(args);
  return e;
}

ExprPtr Expr::Case(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCase;
  e->children_ = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprPtr Expr::In(ExprPtr v, std::vector<Datum> values) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kInList;
  e->in_values_ = std::move(values);
  e->children_ = {std::move(v)};
  return e;
}

ExprPtr Expr::Like(LikeKind kind, ExprPtr v, std::string pattern) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLike;
  e->like_kind_ = kind;
  e->name_ = std::move(pattern);
  e->children_ = {std::move(v)};
  return e;
}

TypeId Expr::DeduceType(const Schema& input) const {
  switch (kind_) {
    case ExprKind::kColumnRef: {
      int idx = input.IndexOf(name_);
      RDB_CHECK_MSG(idx >= 0, ("unbound column: " + name_).c_str());
      return input.field(idx).type;
    }
    case ExprKind::kLiteral:
      return DatumType(literal_);
    case ExprKind::kParam:
      RDB_UNREACHABLE(("unbound parameter: $" + name_).c_str());
    case ExprKind::kCompare:
    case ExprKind::kLogical:
    case ExprKind::kInList:
    case ExprKind::kLike:
      return TypeId::kBool;
    case ExprKind::kArith: {
      TypeId l = children_[0]->DeduceType(input);
      TypeId r = children_[1]->DeduceType(input);
      RDB_CHECK_MSG(IsNumeric(l) && IsNumeric(r), "arith on non-numeric");
      if (l == TypeId::kDouble || r == TypeId::kDouble) return TypeId::kDouble;
      if (l == TypeId::kInt64 || r == TypeId::kInt64) return TypeId::kInt64;
      return TypeId::kInt32;
    }
    case ExprKind::kFunc: {
      if (name_ == "year" || name_ == "month") return TypeId::kInt32;
      if (name_ == "bin") return TypeId::kInt64;
      RDB_UNREACHABLE(("unknown function: " + name_).c_str());
    }
    case ExprKind::kCase: {
      TypeId t = children_[1]->DeduceType(input);
      TypeId e = children_[2]->DeduceType(input);
      if (t == e) return t;
      RDB_CHECK_MSG(IsNumeric(t) && IsNumeric(e), "CASE branch type mismatch");
      if (t == TypeId::kDouble || e == TypeId::kDouble) return TypeId::kDouble;
      return TypeId::kInt64;
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    out->insert(name_);
    return;
  }
  for (const auto& c : children_) c->CollectColumns(out);
}

void Expr::CollectParams(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kParam) {
    out->insert(name_);
    return;
  }
  for (const auto& c : children_) c->CollectParams(out);
}

bool Expr::HasParams() const {
  if (kind_ == ExprKind::kParam) return true;
  for (const auto& c : children_) {
    if (c->HasParams()) return true;
  }
  return false;
}

ExprPtr Expr::SubstituteParams(const ParamMap& params,
                               std::vector<std::string>* missing) const {
  if (kind_ == ExprKind::kParam) {
    auto it = params.find(name_);
    if (it == params.end()) {
      if (missing != nullptr) missing->push_back(name_);
      return shared_from_this();
    }
    return Literal(it->second);
  }
  if (!HasParams()) return shared_from_this();
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  for (auto& c : e->children_) c = c->SubstituteParams(params, missing);
  return e;
}

std::string Expr::Fingerprint(const NameMap* mapping,
                              bool anonymize_columns) const {
  switch (kind_) {
    case ExprKind::kColumnRef: {
      if (anonymize_columns) return "c:?";
      if (mapping != nullptr) {
        auto it = mapping->find(name_);
        if (it != mapping->end()) return "c:" + it->second;
      }
      return "c:" + name_;
    }
    case ExprKind::kLiteral:
      return "l:" + DatumToString(literal_);
    case ExprKind::kParam:
      return "$" + name_;
    case ExprKind::kCompare: {
      static const char* names[] = {"=", "!=", "<", "<=", ">", ">="};
      return StrFormat("(%s %s %s)",
                       names[static_cast<int>(compare_op_)],
                       children_[0]->Fingerprint(mapping, anonymize_columns).c_str(),
                       children_[1]->Fingerprint(mapping, anonymize_columns).c_str());
    }
    case ExprKind::kLogical: {
      static const char* names[] = {"and", "or", "not"};
      std::string out = "(";
      out += names[static_cast<int>(logical_op_)];
      for (const auto& c : children_) {
        out += " ";
        out += c->Fingerprint(mapping, anonymize_columns);
      }
      out += ")";
      return out;
    }
    case ExprKind::kArith: {
      static const char* names[] = {"+", "-", "*", "/"};
      return StrFormat("(%s %s %s)",
                       names[static_cast<int>(arith_op_)],
                       children_[0]->Fingerprint(mapping, anonymize_columns).c_str(),
                       children_[1]->Fingerprint(mapping, anonymize_columns).c_str());
    }
    case ExprKind::kFunc: {
      std::string out = "(" + name_;
      for (const auto& c : children_) {
        out += " ";
        out += c->Fingerprint(mapping, anonymize_columns);
      }
      out += ")";
      return out;
    }
    case ExprKind::kCase:
      return StrFormat("(case %s %s %s)",
                       children_[0]->Fingerprint(mapping, anonymize_columns).c_str(),
                       children_[1]->Fingerprint(mapping, anonymize_columns).c_str(),
                       children_[2]->Fingerprint(mapping, anonymize_columns).c_str());
    case ExprKind::kInList: {
      std::string out = "(in " + children_[0]->Fingerprint(mapping, anonymize_columns);
      for (const auto& v : in_values_) {
        out += " ";
        out += DatumToString(v);
      }
      out += ")";
      return out;
    }
    case ExprKind::kLike: {
      static const char* names[] = {"contains", "prefix", "suffix",
                                    "notcontains"};
      return StrFormat("(%s %s '%s')",
                       names[static_cast<int>(like_kind_)],
                       children_[0]->Fingerprint(mapping, anonymize_columns).c_str(),
                       name_.c_str());
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

ExprPtr Expr::Rename(const NameMap& mapping) const {
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  if (kind_ == ExprKind::kColumnRef) {
    auto it = mapping.find(name_);
    if (it != mapping.end()) e->name_ = it->second;
    return e;
  }
  for (auto& c : e->children_) c = c->Rename(mapping);
  return e;
}

std::string Expr::DisplayString() const {
  switch (kind_) {
    case ExprKind::kColumnRef:
      return name_;
    case ExprKind::kLiteral:
      return DatumToString(literal_);
    case ExprKind::kParam:
      return "$" + name_;
    case ExprKind::kCompare: {
      static const char* names[] = {"=", "!=", "<", "<=", ">", ">="};
      return StrFormat("(%s %s %s)", children_[0]->DisplayString().c_str(),
                       names[static_cast<int>(compare_op_)],
                       children_[1]->DisplayString().c_str());
    }
    case ExprKind::kLogical: {
      if (logical_op_ == LogicalOp::kNot) {
        return "(NOT " + children_[0]->DisplayString() + ")";
      }
      const char* op = logical_op_ == LogicalOp::kAnd ? " AND " : " OR ";
      return "(" + children_[0]->DisplayString() + op +
             children_[1]->DisplayString() + ")";
    }
    case ExprKind::kArith: {
      static const char* names[] = {"+", "-", "*", "/"};
      return StrFormat("(%s %s %s)", children_[0]->DisplayString().c_str(),
                       names[static_cast<int>(arith_op_)],
                       children_[1]->DisplayString().c_str());
    }
    case ExprKind::kFunc: {
      std::string out = name_ + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i]->DisplayString();
      }
      return out + ")";
    }
    case ExprKind::kCase:
      return "CASE WHEN " + children_[0]->DisplayString() + " THEN " +
             children_[1]->DisplayString() + " ELSE " +
             children_[2]->DisplayString() + " END";
    case ExprKind::kInList: {
      std::string out = children_[0]->DisplayString() + " IN (";
      for (size_t i = 0; i < in_values_.size(); ++i) {
        if (i > 0) out += ", ";
        out += DatumToString(in_values_[i]);
      }
      return out + ")";
    }
    case ExprKind::kLike: {
      switch (like_kind_) {
        case LikeKind::kContains:
          return children_[0]->DisplayString() + " LIKE '%" + name_ + "%'";
        case LikeKind::kPrefix:
          return children_[0]->DisplayString() + " LIKE '" + name_ + "%'";
        case LikeKind::kSuffix:
          return children_[0]->DisplayString() + " LIKE '%" + name_ + "'";
        case LikeKind::kNotContains:
          return children_[0]->DisplayString() + " NOT LIKE '%" + name_ +
                 "%'";
      }
      RDB_UNREACHABLE("bad like kind");
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

namespace {

// Reads row r of `col` as double (numeric types only). The span accessors
// resolve views, so the interpreter is oblivious to view vs. owned storage.
inline double AsDouble(const ColumnVector& col, int64_t r) {
  switch (col.type()) {
    case TypeId::kBool:
      return col.Raw<uint8_t>()[r];
    case TypeId::kInt32:
    case TypeId::kDate:
      return col.Raw<int32_t>()[r];
    case TypeId::kInt64:
      return static_cast<double>(col.Raw<int64_t>()[r]);
    case TypeId::kDouble:
      return col.Raw<double>()[r];
    default:
      RDB_UNREACHABLE("AsDouble on string");
  }
}

inline int64_t AsInt64(const ColumnVector& col, int64_t r) {
  switch (col.type()) {
    case TypeId::kBool:
      return col.Raw<uint8_t>()[r];
    case TypeId::kInt32:
    case TypeId::kDate:
      return col.Raw<int32_t>()[r];
    case TypeId::kInt64:
      return col.Raw<int64_t>()[r];
    case TypeId::kDouble:
      return static_cast<int64_t>(col.Raw<double>()[r]);
    default:
      RDB_UNREACHABLE("AsInt64 on string");
  }
}

}  // namespace

ColumnPtr Expr::Eval(const Batch& batch, const Schema& input) const {
  const int64_t n = batch.num_rows;
  switch (kind_) {
    case ExprKind::kColumnRef: {
      int idx = input.IndexOf(name_);
      RDB_CHECK_MSG(idx >= 0, ("unbound column: " + name_).c_str());
      return batch.columns[idx];
    }
    case ExprKind::kLiteral: {
      auto out = MakeColumn(DatumType(literal_));
      switch (literal_.index()) {
        case 1:
          out->Data<uint8_t>().assign(n, std::get<bool>(literal_) ? 1 : 0);
          break;
        case 2:
          out->Data<int32_t>().assign(n, std::get<int32_t>(literal_));
          break;
        case 3:
          out->Data<int64_t>().assign(n, std::get<int64_t>(literal_));
          break;
        case 4:
          out->Data<double>().assign(n, std::get<double>(literal_));
          break;
        case 5:
          out->Data<std::string>().assign(n, std::get<std::string>(literal_));
          break;
        default:
          // A NULL literal has no storage type: Append rejects it.
          for (int64_t i = 0; i < n; ++i) out->Append(literal_);
          break;
      }
      return out;
    }
    case ExprKind::kParam:
      RDB_UNREACHABLE(("unbound parameter: $" + name_).c_str());
    case ExprKind::kCompare: {
      ColumnPtr l = children_[0]->Eval(batch, input);
      ColumnPtr r = children_[1]->Eval(batch, input);
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      const int op = static_cast<int>(compare_op_);
      if (l->type() == TypeId::kString || r->type() == TypeId::kString) {
        RDB_CHECK(l->type() == TypeId::kString &&
                  r->type() == TypeId::kString);
        const std::string* ls = l->Raw<std::string>();
        const std::string* rs = r->Raw<std::string>();
        for (int64_t i = 0; i < n; ++i) {
          int c = ls[i].compare(rs[i]);
          bool v = false;
          switch (compare_op_) {
            case CompareOp::kEq: v = c == 0; break;
            case CompareOp::kNe: v = c != 0; break;
            case CompareOp::kLt: v = c < 0; break;
            case CompareOp::kLe: v = c <= 0; break;
            case CompareOp::kGt: v = c > 0; break;
            case CompareOp::kGe: v = c >= 0; break;
          }
          o[i] = v;
        }
        return out;
      }
      // Numeric comparison through double (exact for our int domains).
      for (int64_t i = 0; i < n; ++i) {
        double a = AsDouble(*l, i), b = AsDouble(*r, i);
        bool v = false;
        switch (op) {
          case 0: v = a == b; break;
          case 1: v = a != b; break;
          case 2: v = a < b; break;
          case 3: v = a <= b; break;
          case 4: v = a > b; break;
          case 5: v = a >= b; break;
        }
        o[i] = v;
      }
      return out;
    }
    case ExprKind::kLogical: {
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      if (logical_op_ == LogicalOp::kNot) {
        ColumnPtr c = children_[0]->Eval(batch, input);
        const uint8_t* cv = c->Raw<uint8_t>();
        for (int64_t i = 0; i < n; ++i) o[i] = !cv[i];
        return out;
      }
      ColumnPtr l = children_[0]->Eval(batch, input);
      ColumnPtr r = children_[1]->Eval(batch, input);
      const uint8_t* lv = l->Raw<uint8_t>();
      const uint8_t* rv = r->Raw<uint8_t>();
      if (logical_op_ == LogicalOp::kAnd) {
        for (int64_t i = 0; i < n; ++i) o[i] = lv[i] & rv[i];
      } else {
        for (int64_t i = 0; i < n; ++i) o[i] = lv[i] | rv[i];
      }
      return out;
    }
    case ExprKind::kArith: {
      ColumnPtr l = children_[0]->Eval(batch, input);
      ColumnPtr r = children_[1]->Eval(batch, input);
      TypeId out_type = DeduceType(input);
      auto out = MakeColumn(out_type);
      if (out_type == TypeId::kDouble) {
        auto& o = out->Data<double>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          double a = AsDouble(*l, i), b = AsDouble(*r, i);
          switch (arith_op_) {
            case ArithOp::kAdd: o[i] = a + b; break;
            case ArithOp::kSub: o[i] = a - b; break;
            case ArithOp::kMul: o[i] = a * b; break;
            case ArithOp::kDiv: o[i] = b == 0 ? 0 : a / b; break;
          }
        }
      } else if (out_type == TypeId::kInt64) {
        auto& o = out->Data<int64_t>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          int64_t a = AsInt64(*l, i), b = AsInt64(*r, i);
          switch (arith_op_) {
            case ArithOp::kAdd: o[i] = a + b; break;
            case ArithOp::kSub: o[i] = a - b; break;
            case ArithOp::kMul: o[i] = a * b; break;
            case ArithOp::kDiv: o[i] = b == 0 ? 0 : a / b; break;
          }
        }
      } else {
        auto& o = out->Data<int32_t>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          int32_t a = static_cast<int32_t>(AsInt64(*l, i));
          int32_t b = static_cast<int32_t>(AsInt64(*r, i));
          switch (arith_op_) {
            case ArithOp::kAdd: o[i] = a + b; break;
            case ArithOp::kSub: o[i] = a - b; break;
            case ArithOp::kMul: o[i] = a * b; break;
            case ArithOp::kDiv: o[i] = b == 0 ? 0 : a / b; break;
          }
        }
      }
      return out;
    }
    case ExprKind::kFunc: {
      if (name_ == "year" || name_ == "month") {
        ColumnPtr arg = children_[0]->Eval(batch, input);
        RDB_CHECK(arg->type() == TypeId::kDate ||
                  arg->type() == TypeId::kInt32);
        auto out = MakeColumn(TypeId::kInt32);
        auto& o = out->Data<int32_t>();
        o.resize(n);
        const int32_t* a = arg->Raw<int32_t>();
        if (name_ == "year") {
          for (int64_t i = 0; i < n; ++i) o[i] = DateYear(a[i]);
        } else {
          for (int64_t i = 0; i < n; ++i) o[i] = DateMonth(a[i]);
        }
        return out;
      }
      if (name_ == "bin") {
        // bin(value, width): floor(value / width); width is a literal.
        ColumnPtr arg = children_[0]->Eval(batch, input);
        RDB_CHECK(children_[1]->kind() == ExprKind::kLiteral);
        int64_t width = DatumAsInt64(children_[1]->literal());
        RDB_CHECK(width > 0);
        auto out = MakeColumn(TypeId::kInt64);
        auto& o = out->Data<int64_t>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          int64_t v = AsInt64(*arg, i);
          int64_t q = v / width;
          if (v < 0 && v % width != 0) --q;  // floor division
          o[i] = q;
        }
        return out;
      }
      RDB_UNREACHABLE(("unknown function: " + name_).c_str());
    }
    case ExprKind::kCase: {
      ColumnPtr cond = children_[0]->Eval(batch, input);
      ColumnPtr t = children_[1]->Eval(batch, input);
      ColumnPtr e = children_[2]->Eval(batch, input);
      TypeId out_type = DeduceType(input);
      auto out = MakeColumn(out_type);
      const uint8_t* cv = cond->Raw<uint8_t>();
      if (out_type == TypeId::kString) {
        auto& o = out->Data<std::string>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          o[i] = cv[i] ? t->Raw<std::string>()[i] : e->Raw<std::string>()[i];
        }
      } else if (out_type == TypeId::kDouble) {
        auto& o = out->Data<double>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          o[i] = cv[i] ? AsDouble(*t, i) : AsDouble(*e, i);
        }
      } else {
        auto& o = out->Data<int64_t>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          o[i] = cv[i] ? AsInt64(*t, i) : AsInt64(*e, i);
        }
      }
      return out;
    }
    case ExprKind::kInList: {
      ColumnPtr v = children_[0]->Eval(batch, input);
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      if (v->type() == TypeId::kString) {
        std::unordered_set<std::string> set;
        for (const auto& d : in_values_) set.insert(std::get<std::string>(d));
        const std::string* sv = v->Raw<std::string>();
        for (int64_t i = 0; i < n; ++i) o[i] = set.count(sv[i]) > 0;
      } else {
        std::unordered_set<int64_t> set;
        for (const auto& d : in_values_) set.insert(DatumAsInt64(d));
        for (int64_t i = 0; i < n; ++i) o[i] = set.count(AsInt64(*v, i)) > 0;
      }
      return out;
    }
    case ExprKind::kLike: {
      ColumnPtr v = children_[0]->Eval(batch, input);
      RDB_CHECK(v->type() == TypeId::kString);
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      const std::string* sv = v->Raw<std::string>();
      for (int64_t i = 0; i < n; ++i) {
        bool m = false;
        switch (like_kind_) {
          case LikeKind::kContains: m = Contains(sv[i], name_); break;
          case LikeKind::kPrefix: m = StartsWith(sv[i], name_); break;
          case LikeKind::kSuffix: m = EndsWith(sv[i], name_); break;
          case LikeKind::kNotContains: m = !Contains(sv[i], name_); break;
        }
        o[i] = m;
      }
      return out;
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

std::vector<int32_t> Expr::EvalSelection(const Batch& batch,
                                         const Schema& input) const {
  ColumnPtr mask = Eval(batch, input);
  RDB_CHECK_MSG(mask->type() == TypeId::kBool, "predicate must be boolean");
  const uint8_t* m = mask->Raw<uint8_t>();
  const int64_t n = mask->size();
  std::vector<int32_t> sel;
  sel.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    if (m[i]) sel.push_back(static_cast<int32_t>(i));
  }
  return sel;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (pred == nullptr) return out;
  if (pred->kind() == ExprKind::kLogical &&
      pred->logical_op() == LogicalOp::kAnd) {
    for (const auto& c : pred->children()) {
      auto sub = SplitConjuncts(c);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(pred);
  return out;
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::And(acc, conjuncts[i]);
  }
  return acc;
}

}  // namespace recycledb
