// Logical plan IR: the optimized operator trees the recycler graph indexes.
//
// A PlanNode is a relational operator plus its parameters (the paper's
// "node representing a relational algebraic operator and its parameters").
// Plans are built by the workload generators (we play the role of the
// optimizer: plans are already decorrelated and pushed down), bound against
// a Catalog, then handed to Recycler::Prepare which matches them against
// the recycler graph and rewrites them for reuse / materialization.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/expression.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace recycledb {

/// Relational operator types.
enum class OpType : uint8_t {
  kScan,          // base-table scan with column pruning
  kFunctionScan,  // table-valued function (SkyServer fGetNearbyObjEq)
  kSelect,        // filter by predicate
  kProject,       // compute expressions, assign output names
  kAggregate,     // hash group-by + aggregates (global agg if no groups)
  kHashJoin,      // equi-join; right child is the build side
  kOrderBy,       // full sort
  kTopN,          // heap-based top-N, output sorted
  kLimit,         // first N rows
  kUnionAll,      // bag union of union-compatible children
  kCachedScan,    // physical-only: scan of a recycler-cache result
};

const char* OpTypeName(OpType type);

/// Join flavors. For kSemi/kAnti only left columns are produced.
/// kSingle is an inner join that RDB_CHECKs the build side has at most one
/// match per probe row (decorrelated scalar subqueries).
enum class JoinKind : uint8_t { kInner, kLeftOuter, kSemi, kAnti, kSingle };

const char* JoinKindName(JoinKind kind);

/// Sort specification for kOrderBy/kTopN.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// One computed output column of a kProject.
struct ProjItem {
  ExprPtr expr;
  std::string out_name;
};

class PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// A logical plan operator.
///
/// Only the fields relevant to `type` are meaningful. Nodes are mutable
/// while a plan is being constructed/rewritten and must be treated as
/// immutable once handed to the recycler (rewrites clone).
class PlanNode : public std::enable_shared_from_this<PlanNode> {
 public:
  // ---- factories ------------------------------------------------------
  static PlanPtr Scan(std::string table, std::vector<std::string> columns);
  /// Bounded scan over base-table rows [begin, end): the delta window of
  /// the delta-maintenance rewrite (rows appended after a cached result's
  /// as-of mark). `end` of -1 means "to the end of the table". Zone-map
  /// pruning still applies inside the window.
  static PlanPtr ScanRange(std::string table, std::vector<std::string> columns,
                           int64_t begin, int64_t end);
  static PlanPtr FunctionScan(std::string function, std::vector<Datum> args);
  /// FunctionScan whose arguments may contain Expr::Param placeholders.
  /// Every arg must be a kLiteral or kParam expression. The node cannot be
  /// bound until SubstituteParams resolves all args to literals; with
  /// literal-only args this returns a plain FunctionScan immediately.
  static PlanPtr FunctionScanTemplate(std::string function,
                                      std::vector<ExprPtr> args);
  static PlanPtr Select(PlanPtr child, ExprPtr predicate);
  static PlanPtr Project(PlanPtr child, std::vector<ProjItem> items);
  static PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                           std::vector<AggItem> aggregates);
  static PlanPtr HashJoin(PlanPtr left, PlanPtr right, JoinKind kind,
                          std::vector<std::string> left_keys,
                          std::vector<std::string> right_keys);
  static PlanPtr OrderBy(PlanPtr child, std::vector<SortKey> keys);
  static PlanPtr TopN(PlanPtr child, std::vector<SortKey> keys, int64_t n);
  static PlanPtr Limit(PlanPtr child, int64_t n);
  static PlanPtr UnionAll(std::vector<PlanPtr> children);
  /// A scan over an already-materialized result. `column_names` renames the
  /// result's columns into the names this plan position expects.
  static PlanPtr CachedScan(TablePtr result,
                            std::vector<std::string> column_names);

  // ---- accessors --------------------------------------------------------
  OpType type() const { return type_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  PlanPtr child(int i = 0) const { return children_[i]; }
  int num_children() const { return static_cast<int>(children_.size()); }

  const std::string& table_name() const { return table_; }
  const std::vector<std::string>& scan_columns() const { return columns_; }
  /// First base-table row a kScan reads (0 for a full scan).
  int64_t scan_begin() const { return scan_begin_; }
  /// One past the last base-table row a kScan reads; -1 = to the end.
  int64_t scan_end() const { return scan_end_; }
  /// True when this kScan carries an explicit row window.
  bool has_scan_range() const { return scan_begin_ > 0 || scan_end_ >= 0; }
  const std::string& function_name() const { return table_; }
  const std::vector<Datum>& function_args() const { return args_; }
  /// Unresolved function args of a template FunctionScan (empty once
  /// SubstituteParams has resolved them into function_args()).
  const std::vector<ExprPtr>& function_arg_exprs() const { return arg_exprs_; }
  const ExprPtr& predicate() const { return predicate_; }
  const std::vector<ProjItem>& projections() const { return projections_; }
  const std::vector<std::string>& group_by() const { return group_by_; }
  const std::vector<AggItem>& aggregates() const { return aggregates_; }
  JoinKind join_kind() const { return join_kind_; }
  const std::vector<std::string>& left_keys() const { return left_keys_; }
  const std::vector<std::string>& right_keys() const { return right_keys_; }
  const std::vector<SortKey>& sort_keys() const { return sort_keys_; }
  int64_t limit() const { return limit_; }
  const TablePtr& cached_result() const { return cached_; }

  /// Recycler-cache identity of a kCachedScan: the canonical subtree key
  /// of the graph node whose result this scan reads (also the cold-tier
  /// spill key). Display-only — excluded from fingerprints — and printed
  /// by Explain so reuse decisions are attributable to cache entries.
  const std::string& cache_key() const { return cache_key_; }
  void set_cache_key(std::string key) { cache_key_ = std::move(key); }

  /// Append high-water mark the result behind a kCachedScan was computed
  /// at (result-as-of-row-N, delta maintenance). Display-only — excluded
  /// from fingerprints — and printed by Explain; -1 means unstamped.
  int64_t as_of_rows() const { return as_of_rows_; }
  void set_as_of_rows(int64_t rows) { as_of_rows_ = rows; }

  bool bound() const { return bound_; }
  const Schema& output_schema() const;

  /// Base tables this subtree reads (set at Bind; used for invalidation).
  const std::set<std::string>& base_tables() const { return base_tables_; }

  // ---- binding ----------------------------------------------------------
  /// Resolves output schemas bottom-up through the shape rules of
  /// api/validate.h and records base tables. Idempotent. RDB_CHECK-fails
  /// on invalid plans (programmer error: plans are produced by our own
  /// generators). Embedders building plans through the public API get the
  /// same rules' recoverable Status errors from ValidatePlan before this
  /// runs.
  void Bind(const Catalog& catalog);

  // ---- parameterized templates ------------------------------------------
  /// True if any expression in this subtree contains a parameter
  /// placeholder (or a template FunctionScan with unresolved args).
  bool HasParams() const;

  /// Adds every parameter placeholder name in the subtree to `out`.
  void CollectParams(std::set<std::string>* out) const;

  /// Returns this plan with parameters replaced by the literals bound in
  /// `params`. Parameter-free subtrees are shared (not cloned), so
  /// repeated rebinding of the same template only re-creates the
  /// parameterized spine. Unbound names are appended to `missing`.
  PlanPtr SubstituteParams(const ParamMap& params,
                           std::vector<std::string>* missing);

  /// Canonical fingerprint of a (possibly parameterized) template:
  /// parameters render as $name, so every binding of one template yields
  /// the same fingerprint. PreparedStatement hashes this once at Prepare;
  /// the hash rides on bound plans (template_hash) and lets the recycler
  /// attribute reuse to the template cheaply.
  std::string TemplateFingerprint() const { return TreeFingerprint(); }

  /// Template identity tag (0 = none). Set on bound plans produced from a
  /// PreparedStatement; propagated by CloneShallow/WithChildren, read by
  /// Recycler::Prepare into QueryTrace::template_hash.
  uint64_t template_hash() const { return template_hash_; }
  void set_template_hash(uint64_t h) { template_hash_ = h; }

  // ---- recycler support ---------------------------------------------------
  /// Fingerprint of this node's *parameters only* (not children), with
  /// column names translated through `mapping` (query -> graph space).
  /// Two nodes with equal op type, equal parameter fingerprints and
  /// exactly-matching children are bisimilar (the paper's exact match).
  std::string ParamFingerprint(const NameMap* mapping) const;

  /// Hash key for candidate lookup: cheap characteristics that must match
  /// exactly (op type + shallow parameters). Collisions are resolved by
  /// ParamFingerprint comparison.
  uint64_t HashKey() const;

  /// Column names referenced by this node's parameters (predicate columns,
  /// join keys, group-by columns, ...). These are the names the matcher
  /// translates through name mappings; signatures are derived from them.
  std::set<std::string> ParamInputColumns() const;

  /// Column-bitmask signature over ParamInputColumns() (unmapped names).
  uint64_t Signature() const;

  /// Output column names (query space) that this node newly assigns
  /// (project/aggregate outputs). Pass-through names are not included.
  std::vector<std::string> NewNames() const;

  /// Full-subtree structural fingerprint (no name mapping); used by tests
  /// and by the keep-all baseline's direct result matching.
  std::string TreeFingerprint() const;

  /// Shallow copy (children shared). Clears binding on the copy.
  PlanPtr CloneShallow() const;

  /// Deep copy of the whole tree (expressions still shared — they are
  /// immutable). Used by the async facade so concurrent submissions of
  /// one Query never race on Bind's schema writes.
  PlanPtr CloneDeep() const;

  /// Shallow copy with `children` substituted (used by rewrites).
  PlanPtr WithChildren(std::vector<PlanPtr> new_children) const;

  /// Shallow copy with a replacement predicate (kSelect; used by the
  /// canonicalizer so rewrites keep the template hash of the original).
  PlanPtr WithPredicate(ExprPtr predicate) const;

  /// Shallow copy with replacement projection items (kProject).
  PlanPtr WithProjections(std::vector<ProjItem> items) const;

  /// Shallow copy with a replacement row limit (kLimit/kTopN).
  PlanPtr WithLimit(int64_t n) const;

  /// Childless copy with every column reference in the parameters renamed
  /// through `mapping` (query space -> graph space). Stored inside
  /// recycler-graph nodes so subsumption/proactive logic can inspect
  /// parameters in graph name space.
  PlanPtr CloneParamsRenamed(const NameMap& mapping) const;

  /// Pretty multi-line plan rendering.
  std::string ToString(int indent = 0) const;

  /// Human-readable indented operator tree with parameters ($name for
  /// unbound placeholders). Used by Query::Explain / Statement::Explain
  /// and by API error messages.
  std::string Explain(int indent = 0) const;

 private:
  PlanNode() = default;

  OpType type_ = OpType::kScan;
  std::vector<PlanPtr> children_;

  std::string table_;                  // scan table / function name
  std::vector<std::string> columns_;   // scan column list / cached col names
  int64_t scan_begin_ = 0;             // kScan row window [begin, end)
  int64_t scan_end_ = -1;              // -1 = unbounded (to end of table)
  int64_t as_of_rows_ = -1;            // kCachedScan as-of mark (display)
  std::vector<Datum> args_;            // function args
  std::vector<ExprPtr> arg_exprs_;     // template function args (unresolved)
  uint64_t template_hash_ = 0;         // prepared-statement template tag
  ExprPtr predicate_;                  // select
  std::vector<ProjItem> projections_;  // project
  std::vector<std::string> group_by_;  // aggregate
  std::vector<AggItem> aggregates_;    // aggregate
  JoinKind join_kind_ = JoinKind::kInner;
  std::vector<std::string> left_keys_, right_keys_;
  std::vector<SortKey> sort_keys_;
  int64_t limit_ = 0;
  TablePtr cached_;
  std::string cache_key_;  // kCachedScan provenance (display-only)

  bool bound_ = false;
  Schema output_schema_;
  std::set<std::string> base_tables_;
};

}  // namespace recycledb
