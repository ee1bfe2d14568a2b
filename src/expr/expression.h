// Scalar expression IR.
//
// Expressions are the parameters of Select/Project plan nodes; the recycler
// matches them structurally via Fingerprint() under a query<->graph column
// name mapping (see plan/fingerprint and recycler/matching). Operators
// evaluate them through ExprProgram (expr/program.h), compiled once per
// operator; expr/scalar.h holds the value semantics.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/table.h"

namespace recycledb {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Mapping from one column-name space to another (query tree names to
/// recycler-graph names and back).
using NameMap = std::map<std::string, std::string>;

/// Bound values for named parameter placeholders ($name -> Datum).
using ParamMap = std::map<std::string, Datum>;

/// Expression node kinds.
enum class ExprKind : uint8_t {
  kColumnRef,  // reference to an input column by name
  kLiteral,    // constant Datum
  kParam,      // named placeholder ($name) awaiting a bound value
  kCompare,    // = != < <= > >=
  kLogical,    // AND OR NOT
  kArith,      // + - * /
  kFunc,       // named scalar function (year, month, bin, ...)
  kCase,       // CASE WHEN c THEN a ELSE b END
  kInList,     // e IN (v1, v2, ...)
  kLike,       // string match: contains / prefix / suffix
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp : uint8_t { kAnd, kOr, kNot };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

/// String-match flavors for kLike (LIKE '%x%', 'x%', '%x').
enum class LikeKind : uint8_t { kContains, kPrefix, kSuffix, kNotContains };

/// An immutable scalar expression tree.
///
/// Build with the static factory functions; evaluate by compiling an
/// ExprProgram against the input schema.
class Expr : public std::enable_shared_from_this<Expr> {
 public:
  // ---- factories -----------------------------------------------------
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Datum value);
  /// Named placeholder for a prepared-statement parameter. The expression
  /// cannot be bound or evaluated until SubstituteParams replaces it with
  /// a literal.
  static ExprPtr Param(std::string name);
  static ExprPtr Compare(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args);
  static ExprPtr Case(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
  static ExprPtr In(ExprPtr e, std::vector<Datum> values);
  static ExprPtr Like(LikeKind kind, ExprPtr e, std::string pattern);

  // Convenience comparison builders against literals.
  static ExprPtr Eq(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kEq, l, r); }
  static ExprPtr Ne(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kNe, l, r); }
  static ExprPtr Lt(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kLt, l, r); }
  static ExprPtr Le(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kLe, l, r); }
  static ExprPtr Gt(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kGt, l, r); }
  static ExprPtr Ge(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kGe, l, r); }

  // ---- accessors ------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  const std::string& param_name() const { return name_; }
  const Datum& literal() const { return literal_; }
  CompareOp compare_op() const { return compare_op_; }
  LogicalOp logical_op() const { return logical_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const std::string& func_name() const { return name_; }
  LikeKind like_kind() const { return like_kind_; }
  const std::string& like_pattern() const { return name_; }
  const std::vector<Datum>& in_values() const { return in_values_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  // ---- analysis -------------------------------------------------------
  /// Adds every referenced column name to `out`.
  void CollectColumns(std::set<std::string>* out) const;

  /// Adds every parameter placeholder name to `out`.
  void CollectParams(std::set<std::string>* out) const;

  /// True if the tree contains at least one kParam node.
  bool HasParams() const;

  /// Returns a copy with each kParam replaced by the literal bound under
  /// its name in `params`. Parameters missing from `params` are kept and
  /// their names appended to `missing` (when non-null). Subtrees without
  /// parameters are shared, not cloned.
  ExprPtr SubstituteParams(const ParamMap& params,
                           std::vector<std::string>* missing) const;

  /// Canonical structural rendering. Column names are passed through
  /// `mapping` when present (identity otherwise). Two expressions are
  /// considered parameter-equal by the recycler iff fingerprints match.
  /// With `anonymize_columns` every column ref renders as "c:?" — used for
  /// name-space-independent hash keys.
  std::string Fingerprint(const NameMap* mapping,
                          bool anonymize_columns = false) const;

  /// Returns a copy with column refs renamed through `mapping` (names
  /// missing from the mapping are kept).
  ExprPtr Rename(const NameMap& mapping) const;

  /// Human-readable infix rendering (columns bare, parameters as $name);
  /// used by Plan::Explain and API error messages. Fingerprint() stays
  /// the canonical matching form.
  std::string DisplayString() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string name_;          // column name / func name / like pattern
  Datum literal_;             // kLiteral payload
  CompareOp compare_op_ = CompareOp::kEq;
  LogicalOp logical_op_ = LogicalOp::kAnd;
  ArithOp arith_op_ = ArithOp::kAdd;
  LikeKind like_kind_ = LikeKind::kContains;
  std::vector<Datum> in_values_;
  std::vector<ExprPtr> children_;
};

/// Result type of arithmetic over numeric operands: double if either is
/// double, else int64 if either is int64, else int32 (dates read as int32).
TypeId ArithResultType(TypeId l, TypeId r);

/// Splits a predicate into its top-level AND conjuncts.
/// Used by the tuple-subsumption rule (cached conjunct-subset detection).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

/// Rebuilds a conjunction from conjuncts (nullptr if empty).
ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts);

}  // namespace recycledb
