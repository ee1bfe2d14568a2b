#include "expr/expression.h"

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

TypeId ArithResultType(TypeId l, TypeId r) {
  if (l == TypeId::kDouble || r == TypeId::kDouble) return TypeId::kDouble;
  if (l == TypeId::kInt64 || r == TypeId::kInt64) return TypeId::kInt64;
  return TypeId::kInt32;
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
