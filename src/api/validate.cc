#include "api/validate.h"

#include "common/string_util.h"
#include "plan/table_function.h"

namespace recycledb {

namespace {

Status ExprError(const Expr& expr, const std::string& what) {
  return Status::InvalidArgument(what + " in expression " +
                                 expr.Fingerprint(nullptr));
}

/// Result type of CASE branches typed `then_type` and `else_type`: the
/// shared type when equal, else (numeric branches) double if either is
/// double, else int64.
TypeId CaseResultType(TypeId then_type, TypeId else_type) {
  if (then_type == else_type) return then_type;
  if (then_type == TypeId::kDouble || else_type == TypeId::kDouble) {
    return TypeId::kDouble;
  }
  return TypeId::kInt64;
}

}  // namespace

Status CheckExprNode(const Expr& expr, const TypeId* kid_types,
                     const Schema& input, TypeId* out) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      int idx = input.IndexOf(expr.column_name());
      if (idx < 0) {
        return Status::InvalidArgument("unknown column: " +
                                       expr.column_name());
      }
      *out = input.field(idx).type;
      return Status::OK();
    }
    case ExprKind::kLiteral:
      if (std::holds_alternative<std::monostate>(expr.literal())) {
        return ExprError(expr, "null literal (engine is NULL-free)");
      }
      *out = DatumType(expr.literal());
      return Status::OK();
    case ExprKind::kParam:
      return Status::InvalidArgument("unbound parameter: $" +
                                     expr.param_name());
    case ExprKind::kCompare: {
      const TypeId l = kid_types[0], r = kid_types[1];
      if ((l == TypeId::kString) != (r == TypeId::kString)) {
        return ExprError(expr,
                         StrFormat("type mismatch: cannot compare %s to %s",
                                   TypeName(l), TypeName(r)));
      }
      *out = TypeId::kBool;
      return Status::OK();
    }
    case ExprKind::kLogical:
      for (size_t i = 0; i < expr.children().size(); ++i) {
        if (kid_types[i] != TypeId::kBool) {
          return ExprError(expr, "logical operand is not boolean");
        }
      }
      *out = TypeId::kBool;
      return Status::OK();
    case ExprKind::kArith:
      if (!IsNumeric(kid_types[0]) || !IsNumeric(kid_types[1])) {
        return ExprError(expr, "arithmetic on non-numeric operand");
      }
      *out = ArithResultType(kid_types[0], kid_types[1]);
      return Status::OK();
    case ExprKind::kFunc: {
      const std::string& fn = expr.func_name();
      if (fn == "year" || fn == "month") {
        if (expr.children().size() != 1) {
          return ExprError(expr, fn + " takes one argument");
        }
        if (kid_types[0] != TypeId::kDate && kid_types[0] != TypeId::kInt32) {
          return ExprError(expr, fn + " argument must be a date");
        }
        *out = TypeId::kInt32;
        return Status::OK();
      }
      if (fn == "bin") {
        if (expr.children().size() != 2) {
          return ExprError(expr, "bin takes (value, width)");
        }
        if (!IsNumeric(kid_types[0])) {
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
        *out = TypeId::kInt64;
        return Status::OK();
      }
      return ExprError(expr, "unknown function: " + fn);
    }
    case ExprKind::kCase: {
      const TypeId t = kid_types[1], e = kid_types[2];
      if (kid_types[0] != TypeId::kBool) {
        return ExprError(expr, "CASE condition is not boolean");
      }
      if (t != e && (!IsNumeric(t) || !IsNumeric(e))) {
        return ExprError(expr, "CASE branch type mismatch");
      }
      *out = CaseResultType(t, e);
      return Status::OK();
    }
    case ExprKind::kInList: {
      const bool strings = kid_types[0] == TypeId::kString;
      for (const auto& v : expr.in_values()) {
        if (std::holds_alternative<std::monostate>(v) ||
            (DatumType(v) == TypeId::kString) != strings) {
          return ExprError(expr, "IN list value type mismatch");
        }
      }
      *out = TypeId::kBool;
      return Status::OK();
    }
    case ExprKind::kLike:
      if (kid_types[0] != TypeId::kString) {
        return ExprError(expr, "LIKE operand must be a string");
      }
      *out = TypeId::kBool;
      return Status::OK();
  }
  return Status::Internal("bad expression kind");
}

Status CheckExprType(const Expr& expr, const Schema& input, TypeId* out) {
  TypeId kid_types[3] = {};
  const std::vector<ExprPtr>& kids = expr.children();
  for (size_t i = 0; i < kids.size(); ++i) {
    TypeId t;
    RDB_RETURN_NOT_OK(CheckExprType(*kids[i], input, &t));
    if (i < 3) kid_types[i] = t;  // wider nodes fail their arity rule
  }
  TypeId t;
  RDB_RETURN_NOT_OK(CheckExprNode(expr, kid_types, input, &t));
  if (out != nullptr) *out = t;
  return Status::OK();
}

namespace {

Status NodeError(const PlanNode& node, const std::string& what) {
  return Status::InvalidArgument(what + "\nin plan:\n" + node.Explain());
}

Status NodeError(const PlanNode& node, const Status& cause) {
  return NodeError(node, cause.message());
}

}  // namespace

Status CheckPlanNode(const PlanNode& node, const Schema* const* child_schemas,
                     const Catalog& catalog, Schema* out) {
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
      fields.reserve(node.scan_columns().size());
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
      Status st = CheckExprType(*node.predicate(), *child_schemas[0], &t);
      if (!st.ok()) return NodeError(node, st);
      if (t != TypeId::kBool) {
        return NodeError(node, "filter predicate is not boolean");
      }
      *out = *child_schemas[0];
      return Status::OK();
    }
    case OpType::kProject: {
      if (node.projections().empty()) {
        return NodeError(node, "projection computes no columns");
      }
      std::vector<Field> fields;
      fields.reserve(node.projections().size());
      for (const auto& item : node.projections()) {
        TypeId t;
        Status st = CheckExprType(*item.expr, *child_schemas[0], &t);
        if (!st.ok()) return NodeError(node, st);
        fields.push_back({item.out_name, t});
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kAggregate: {
      const Schema& in = *child_schemas[0];
      std::vector<Field> fields;
      fields.reserve(node.group_by().size() + node.aggregates().size());
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
      const Schema& l = *child_schemas[0];
      const Schema& r = *child_schemas[1];
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
      std::vector<Field> fields;
      fields.reserve(l.num_fields() + r.num_fields());
      fields.insert(fields.end(), l.fields().begin(), l.fields().end());
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
        if (child_schemas[0]->IndexOf(k.column) < 0) {
          return NodeError(node, "unknown sort column: " + k.column);
        }
      }
      if (node.type() == OpType::kTopN && node.limit() <= 0) {
        return NodeError(node, "top-N limit must be positive");
      }
      *out = *child_schemas[0];
      return Status::OK();
    }
    case OpType::kLimit:
      if (node.limit() < 0) {
        return NodeError(node, "limit must be non-negative");
      }
      *out = *child_schemas[0];
      return Status::OK();
    case OpType::kUnionAll: {
      if (node.children().empty()) {
        return NodeError(node, "union has no children");
      }
      const Schema& first = *child_schemas[0];
      for (size_t c = 1; c < node.children().size(); ++c) {
        const Schema& s = *child_schemas[c];
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
      fields.reserve(cached.num_fields());
      for (int i = 0; i < cached.num_fields(); ++i) {
        fields.push_back({node.scan_columns()[i], cached.field(i).type});
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
  }
  return Status::Internal("bad plan operator");
}

namespace {

/// Checks the unbound part of `node`'s subtree and points `*out` at its
/// output schema: the node's own when bound (a bound subtree already
/// passed the rules, which is what keeps re-executing a prepared
/// statement cheap: only the freshly substituted spine is walked), else
/// `*scratch`, filled by the rule.
Status ValidateNode(const PlanNode& node, const Catalog& catalog,
                    Schema* scratch, const Schema** out) {
  if (node.bound()) {
    *out = &node.output_schema();
    return Status::OK();
  }
  const std::vector<PlanPtr>& children = node.children();
  ChildSlots<Schema> owned(children.size());
  ChildSlots<const Schema*> kids(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    RDB_RETURN_NOT_OK(ValidateNode(*children[i], catalog, &owned.data()[i],
                                   &kids.data()[i]));
  }
  RDB_RETURN_NOT_OK(CheckPlanNode(node, kids.data(), catalog, scratch));
  *out = scratch;
  return Status::OK();
}

}  // namespace

Status ValidatePlan(const PlanPtr& plan, const Catalog& catalog,
                    Schema* out_schema) {
  if (plan == nullptr) return Status::InvalidArgument("plan is null");
  Schema scratch;
  const Schema* schema = nullptr;
  RDB_RETURN_NOT_OK(ValidateNode(*plan, catalog, &scratch, &schema));
  if (out_schema != nullptr) {
    *out_schema = schema == &scratch ? std::move(scratch) : *schema;
  }
  return Status::OK();
}

}  // namespace recycledb
