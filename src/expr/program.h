// Compiled expression programs: an Expr bound once against an input
// schema and evaluated per batch by typed kernels (DESIGN.md, "Expression
// evaluation").
#pragma once

#include <vector>

#include "expr/expression.h"

namespace recycledb {

namespace expr_internal {
struct Node;
struct Operand;
}  // namespace expr_internal

/// An expression compiled against one input schema.
///
/// Compiling resolves column references to indexes, deduces every node's
/// result type, keeps literals as typed scalars and builds IN value sets
/// once. Evaluation runs kernels templated on the operands' storage types,
/// so no per-row type dispatch remains. Predicates evaluate to selection
/// vectors: AND narrows conjunct by conjunct, OR runs its right side only
/// on rows its left side rejected, and CASE computes each branch only on
/// the rows that take it.
///
/// A program owns its temporaries and reuses them across batches, so it is
/// stateful: one operator, one thread. The Expr it was compiled from stays
/// immutable and shareable.
class ExprProgram {
 public:
  /// Compiles `expr` against `input`, typing each node through
  /// CheckExprNode (api/validate.h). Aborts when a node fails its rule:
  /// validation rejects such expressions before execution, so compiling
  /// one is a programmer error.
  ExprProgram(const Expr& expr, const Schema& input);
  ~ExprProgram();
  ExprProgram(ExprProgram&&) noexcept;

  /// Result type (CheckExprType of the compiled expression).
  TypeId type() const;

  /// Evaluates every row of `batch` (laid out per the compile schema).
  /// A bare column reference returns the batch's own column; any other
  /// expression returns a freshly owned column of batch.num_rows rows.
  ColumnPtr Eval(const Batch& batch);

  /// Evaluates a boolean program as a predicate: `sel` is resized to the
  /// passing row indexes of `batch`, ascending.
  void Select(const Batch& batch, std::vector<int32_t>* sel);

 private:
  using Node = expr_internal::Node;
  using Operand = expr_internal::Operand;

  int Compile(const Expr& expr, const Schema& input);
  /// Values of `node` at the selected rows (every row when `sel` is null),
  /// indexed by row id.
  Operand Values(int node, const Batch& batch, const int32_t* sel, int64_t n);
  /// Writes the selected rows for which `node` holds to `out` (which may
  /// alias `sel`); returns their count.
  int64_t Filter(int node, const Batch& batch, const int32_t* sel, int64_t n,
                 int32_t* out);

  std::vector<Node> nodes_;  // pre-order: nodes_[0] is the root
  int64_t rows_ = 0;                          // rows of the current batch
};

}  // namespace recycledb
