// The engine's one type checker: the typing rule of every expression node
// and the shape rule of every plan operator.
//
// Each rule checks a single node given its children's types and returns
// Status, allocating nothing on success. Three callers apply them:
// ValidatePlan/CheckExprType walk a tree from the public API and reject
// bad input (unknown columns, unbound parameters, type mismatches) with
// an Explain() rendering of the offending operator instead of aborting;
// PlanNode::Bind and ExprProgram's compiler apply the same rules to plans
// our own generators build and RDB_CHECK-abort on a violation, which is a
// programmer error there. One copy of the rules means a node's output
// schema is worked out the same way on every path.
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "plan/plan.h"

namespace recycledb {

/// Typing rule of one expression node: checks `expr` given the result
/// types of its children (`kid_types`, in child order; no node the rule
/// accepts has more than three) and writes its result type to `*out`.
/// Column references resolve against `input`. Unbound parameters,
/// unknown columns/functions and operand type mismatches yield
/// InvalidArgument.
Status CheckExprNode(const Expr& expr, const TypeId* kid_types,
                     const Schema& input, TypeId* out);

/// Type-checks `expr` against `input` bottom-up through CheckExprNode,
/// without aborting. On success `*out` (optional) receives the result
/// type.
Status CheckExprType(const Expr& expr, const Schema& input, TypeId* out);

/// Shape rule of one plan operator: checks `node` given its children's
/// output schemas (`child_schemas[i]` for child i) and writes its output
/// schema to `*out`. Covers column references, predicate/projection/
/// aggregate types, join keys, union compatibility, limits and
/// unresolved parameter placeholders. On failure the message includes
/// the offending operator subtree.
Status CheckPlanNode(const PlanNode& node, const Schema* const* child_schemas,
                     const Catalog& catalog, Schema* out);

/// Validates `plan` bottom-up against `catalog` through CheckPlanNode.
/// Bound subtrees already passed the rules and are not re-walked. Does
/// not mutate the plan. On success `*out_schema` (optional) receives the
/// plan's output schema.
Status ValidatePlan(const PlanPtr& plan, const Catalog& catalog,
                    Schema* out_schema);

/// Per-child scratch for the walks that feed CheckPlanNode: two slots
/// inline (every operator but UnionAll), the heap only beyond that.
template <typename T>
class ChildSlots {
 public:
  explicit ChildSlots(size_t n) {
    if (n > 2) heap_.resize(n);
  }
  T* data() { return heap_.empty() ? inline_ : heap_.data(); }

 private:
  T inline_[2] = {};
  std::vector<T> heap_;
};

}  // namespace recycledb
