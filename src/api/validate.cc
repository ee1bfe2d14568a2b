#include "api/validate.h"

#include <vector>

#include "common/string_util.h"
#include "plan/table_function.h"

namespace recycledb {

namespace {

Status ExprError(const Expr& expr, const std::string& what) {
  return Status::InvalidArgument(what + " in expression " +
                                 expr.Fingerprint(nullptr));
}

}  // namespace

Status CheckExprType(const Expr& expr, const Schema& input, TypeId* out) {
  auto ok = [out](TypeId t) {
    if (out != nullptr) *out = t;
    return Status::OK();
  };
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      int idx = input.IndexOf(expr.column_name());
      if (idx < 0) {
        return Status::InvalidArgument("unknown column: " +
                                       expr.column_name());
      }
      return ok(input.field(idx).type);
    }
    case ExprKind::kLiteral: {
      if (std::holds_alternative<std::monostate>(expr.literal())) {
        return ExprError(expr, "null literal (engine is NULL-free)");
      }
      return ok(DatumType(expr.literal()));
    }
    case ExprKind::kParam:
      return Status::InvalidArgument("unbound parameter: $" +
                                     expr.param_name());
    case ExprKind::kCompare: {
      TypeId l, r;
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[0], input, &l));
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[1], input, &r));
      if ((l == TypeId::kString) != (r == TypeId::kString)) {
        return ExprError(expr,
                         StrFormat("type mismatch: cannot compare %s to %s",
                                   TypeName(l), TypeName(r)));
      }
      return ok(TypeId::kBool);
    }
    case ExprKind::kLogical: {
      for (const auto& c : expr.children()) {
        TypeId t;
        RDB_RETURN_NOT_OK(CheckExprType(*c, input, &t));
        if (t != TypeId::kBool) {
          return ExprError(expr, "logical operand is not boolean");
        }
      }
      return ok(TypeId::kBool);
    }
    case ExprKind::kArith: {
      TypeId l, r;
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[0], input, &l));
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[1], input, &r));
      if (!IsNumeric(l) || !IsNumeric(r)) {
        return ExprError(expr, "arithmetic on non-numeric operand");
      }
      return ok(ArithResultType(l, r));
    }
    case ExprKind::kFunc: {
      const std::string& fn = expr.func_name();
      if (fn == "year" || fn == "month") {
        if (expr.children().size() != 1) {
          return ExprError(expr, fn + " takes one argument");
        }
        TypeId t;
        RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[0], input, &t));
        if (t != TypeId::kDate && t != TypeId::kInt32) {
          return ExprError(expr, fn + " argument must be a date");
        }
        return ok(TypeId::kInt32);
      }
      if (fn == "bin") {
        if (expr.children().size() != 2) {
          return ExprError(expr, "bin takes (value, width)");
        }
        TypeId t;
        RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[0], input, &t));
        if (!IsNumeric(t)) {
          return ExprError(expr, "bin value must be numeric");
        }
        const Expr& width = *expr.children()[1];
        if (width.kind() != ExprKind::kLiteral) {
          return ExprError(expr, "bin width must be a literal");
        }
        if (!IsNumeric(DatumType(width.literal())) ||
            DatumAsInt64(width.literal()) <= 0) {
          return ExprError(expr, "bin width must be a positive number");
        }
        return ok(TypeId::kInt64);
      }
      return ExprError(expr, "unknown function: " + fn);
    }
    case ExprKind::kCase: {
      TypeId c, t, e;
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[0], input, &c));
      if (c != TypeId::kBool) {
        return ExprError(expr, "CASE condition is not boolean");
      }
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[1], input, &t));
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[2], input, &e));
      if (t != e && (!IsNumeric(t) || !IsNumeric(e))) {
        return ExprError(expr, "CASE branch type mismatch");
      }
      return ok(CaseResultType(t, e));
    }
    case ExprKind::kInList: {
      TypeId t;
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[0], input, &t));
      for (const auto& v : expr.in_values()) {
        bool v_string = DatumType(v) == TypeId::kString;
        if (std::holds_alternative<std::monostate>(v) ||
            v_string != (t == TypeId::kString)) {
          return ExprError(expr, "IN list value type mismatch");
        }
      }
      return ok(TypeId::kBool);
    }
    case ExprKind::kLike: {
      TypeId t;
      RDB_RETURN_NOT_OK(CheckExprType(*expr.children()[0], input, &t));
      if (t != TypeId::kString) {
        return ExprError(expr, "LIKE operand must be a string");
      }
      return ok(TypeId::kBool);
    }
  }
  return Status::Internal("bad expression kind");
}

namespace {

Status NodeError(const PlanNode& node, const std::string& what) {
  return Status::InvalidArgument(what + "\nin plan:\n" + node.Explain());
}

Status NodeError(const PlanNode& node, const Status& cause) {
  return NodeError(node, cause.message());
}

Status ValidateNode(const PlanNode& node, const Catalog& catalog,
                    Schema* out) {
  // A bound subtree already passed these checks (the facade validates
  // before binding; internal generators construct valid plans). This is
  // what makes re-executing a prepared statement cheap: only the freshly
  // substituted parameterized spine is walked.
  if (node.bound()) {
    *out = node.output_schema();
    return Status::OK();
  }
  std::vector<Schema> child_schemas;
  child_schemas.reserve(node.children().size());
  for (const auto& c : node.children()) {
    Schema s;
    RDB_RETURN_NOT_OK(ValidateNode(*c, catalog, &s));
    child_schemas.push_back(std::move(s));
  }

  switch (node.type()) {
    case OpType::kScan: {
      TablePtr t = catalog.GetTable(node.table_name());
      if (t == nullptr) {
        return NodeError(node, "unknown table: " + node.table_name());
      }
      if (node.scan_columns().empty()) {
        return NodeError(node, "scan selects no columns");
      }
      std::vector<Field> fields;
      for (const auto& col : node.scan_columns()) {
        int idx = t->schema().IndexOf(col);
        if (idx < 0) {
          return NodeError(node, "unknown column: " + node.table_name() +
                                     "." + col);
        }
        fields.push_back(t->schema().field(idx));
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kFunctionScan: {
      if (!node.function_arg_exprs().empty()) {
        std::set<std::string> params;
        node.CollectParams(&params);
        std::string names;
        for (const auto& p : params) {
          if (!names.empty()) names += ", ";
          names += "$" + p;
        }
        return NodeError(node, "unbound function-scan parameters: " + names);
      }
      const TableFunction* fn =
          TableFunctionRegistry::Global().Get(node.function_name());
      if (fn == nullptr) {
        return NodeError(node,
                         "unknown table function: " + node.function_name());
      }
      for (const auto& a : node.function_args()) {
        if (std::holds_alternative<std::monostate>(a)) {
          return NodeError(node, "null argument to " + node.function_name());
        }
      }
      if (!fn->arg_types.empty()) {
        if (node.function_args().size() != fn->arg_types.size()) {
          return NodeError(
              node, StrFormat("%s takes %zu arguments, got %zu",
                              node.function_name().c_str(),
                              fn->arg_types.size(),
                              node.function_args().size()));
        }
        for (size_t i = 0; i < fn->arg_types.size(); ++i) {
          TypeId expected = fn->arg_types[i];
          TypeId actual = DatumType(node.function_args()[i]);
          bool ok = expected == actual ||
                    (IsNumeric(expected) && IsNumeric(actual));
          if (!ok) {
            return NodeError(
                node, StrFormat("%s argument %zu: expected %s, got %s",
                                node.function_name().c_str(), i + 1,
                                TypeName(expected), TypeName(actual)));
          }
        }
      }
      *out = fn->schema_fn(node.function_args());
      return Status::OK();
    }
    case OpType::kSelect: {
      TypeId t;
      Status st = CheckExprType(*node.predicate(), child_schemas[0], &t);
      if (!st.ok()) return NodeError(node, st);
      if (t != TypeId::kBool) {
        return NodeError(node, "filter predicate is not boolean");
      }
      *out = child_schemas[0];
      return Status::OK();
    }
    case OpType::kProject: {
      if (node.projections().empty()) {
        return NodeError(node, "projection computes no columns");
      }
      std::vector<Field> fields;
      for (const auto& item : node.projections()) {
        TypeId t;
        Status st = CheckExprType(*item.expr, child_schemas[0], &t);
        if (!st.ok()) return NodeError(node, st);
        fields.push_back({item.out_name, t});
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kAggregate: {
      const Schema& in = child_schemas[0];
      std::vector<Field> fields;
      for (const auto& g : node.group_by()) {
        int idx = in.IndexOf(g);
        if (idx < 0) return NodeError(node, "unknown group-by column: " + g);
        fields.push_back(in.field(idx));
      }
      for (const auto& a : node.aggregates()) {
        TypeId t;
        Status st = CheckExprType(*a.arg, in, &t);
        if (!st.ok()) return NodeError(node, st);
        if ((a.fn == AggFunc::kSum || a.fn == AggFunc::kAvg) &&
            !IsNumeric(t)) {
          return NodeError(node, StrFormat("%s over non-numeric argument",
                                           AggFuncName(a.fn)));
        }
        fields.push_back({a.out_name, AggResultType(a.fn, t)});
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kHashJoin: {
      const Schema& l = child_schemas[0];
      const Schema& r = child_schemas[1];
      if (node.left_keys().empty() ||
          node.left_keys().size() != node.right_keys().size()) {
        return NodeError(node, "join key lists must be non-empty and equal "
                               "length");
      }
      for (size_t i = 0; i < node.left_keys().size(); ++i) {
        int li = l.IndexOf(node.left_keys()[i]);
        if (li < 0) {
          return NodeError(node,
                           "unknown left join key: " + node.left_keys()[i]);
        }
        int ri = r.IndexOf(node.right_keys()[i]);
        if (ri < 0) {
          return NodeError(node,
                           "unknown right join key: " + node.right_keys()[i]);
        }
        // The join's row comparator requires identical key types.
        if (l.field(li).type != r.field(ri).type) {
          return NodeError(
              node, StrFormat("join key type mismatch: %s is %s but %s is %s",
                              node.left_keys()[i].c_str(),
                              TypeName(l.field(li).type),
                              node.right_keys()[i].c_str(),
                              TypeName(r.field(ri).type)));
        }
      }
      std::vector<Field> fields = l.fields();
      if (node.join_kind() == JoinKind::kInner ||
          node.join_kind() == JoinKind::kLeftOuter ||
          node.join_kind() == JoinKind::kSingle) {
        for (const auto& f : r.fields()) {
          if (l.Has(f.name)) {
            return NodeError(node, "duplicate join output column: " + f.name);
          }
          fields.push_back(f);
        }
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kOrderBy:
    case OpType::kTopN: {
      for (const auto& k : node.sort_keys()) {
        if (child_schemas[0].IndexOf(k.column) < 0) {
          return NodeError(node, "unknown sort column: " + k.column);
        }
      }
      if (node.type() == OpType::kTopN && node.limit() <= 0) {
        return NodeError(node, "top-N limit must be positive");
      }
      *out = child_schemas[0];
      return Status::OK();
    }
    case OpType::kLimit:
      if (node.limit() < 0) {
        return NodeError(node, "limit must be non-negative");
      }
      *out = child_schemas[0];
      return Status::OK();
    case OpType::kUnionAll: {
      if (child_schemas.empty()) {
        return NodeError(node, "union has no children");
      }
      const Schema& first = child_schemas[0];
      for (const auto& s : child_schemas) {
        if (s.num_fields() != first.num_fields()) {
          return NodeError(node, "union children arity mismatch");
        }
        for (int i = 0; i < s.num_fields(); ++i) {
          if (s.field(i).type != first.field(i).type) {
            return NodeError(node, "union children type mismatch");
          }
        }
      }
      *out = first;
      return Status::OK();
    }
    case OpType::kCachedScan: {
      if (node.cached_result() == nullptr) {
        return NodeError(node, "cached scan without a result");
      }
      const Schema& cached = node.cached_result()->schema();
      if (static_cast<int>(node.scan_columns().size()) !=
          cached.num_fields()) {
        return NodeError(node, "cached scan column-rename arity mismatch");
      }
      std::vector<Field> fields;
      for (int i = 0; i < cached.num_fields(); ++i) {
        fields.push_back({node.scan_columns()[i], cached.field(i).type});
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
  }
  return Status::Internal("bad plan operator");
}

}  // namespace

Status ValidatePlan(const PlanPtr& plan, const Catalog& catalog,
                    Schema* out_schema) {
  if (plan == nullptr) return Status::InvalidArgument("plan is null");
  Schema schema;
  RDB_RETURN_NOT_OK(ValidateNode(*plan, catalog, &schema));
  if (out_schema != nullptr) *out_schema = std::move(schema);
  return Status::OK();
}

}  // namespace recycledb
