// Subsumption-based reuse (§IV-A): deriving a query node's result from a
// cached result that subsumes it.
//
// Supported derivations:
//   - column subsumption: the cached Project/Aggregate computes a superset
//     of the requested output columns -> project them out.
//   - tuple subsumption (Select): the cached selection's conjuncts are a
//     subset of the requested ones -> apply the residual conjuncts.
//   - tuple subsumption (Aggregate): the cached GROUP BY is finer (its
//     grouping columns are a superset) and every requested aggregate can
//     be re-aggregated from cached partials -> re-aggregate.
//   - tuple subsumption (TopN): the cached top-M with the same sort keys
//     and M >= N answers top-N via a Limit (the proactive top-N strategy
//     relies on this).
//   - partial reuse (range stitching): overlapping cached range slices
//     over the same child are unioned (with compensation filters) and the
//     uncovered remainder is answered by compensated delta scans — see
//     PlanPartialStitch and interval_index.h.
//
// Both paths decide from graph metadata first and take the table only to
// build: the recycler reads a candidate's result (possibly from disk)
// only once the decision has chosen it.
#pragma once

#include <optional>

#include "recycler/graph.h"
#include "recycler/interval_index.h"

namespace recycledb {

/// The query side of a subsumption probe, computed once and matched
/// against every candidate. `query_node` and `child_mapping` (the query
/// child's column names -> graph space; query and candidates share the
/// child subtree) must outlive the probe.
struct SubsumptionProbe {
  SubsumptionProbe(const PlanNode& query_node, const NameMap& child_mapping);

  const PlanNode& query_node;
  const NameMap& child_mapping;
  /// Select only: the predicate's conjuncts and, positionally, their
  /// graph-space fingerprints.
  std::vector<ExprPtr> conjuncts;
  std::vector<std::string> conjunct_fps;
};

/// A derivation decided from graph metadata alone: how the query node's
/// result follows from one candidate's cached result. The compensation
/// stacks over a CachedScan of that result, bottom-up: residual filter,
/// limit, re-aggregation by the query's groups, projection.
struct SubsumptionMatch {
  /// Column names the CachedScan gives the candidate's columns.
  std::vector<std::string> scan_names;
  ExprPtr residual;    // null: none
  int64_t limit = -1;  // -1: none
  bool reaggregate = false;
  std::vector<AggItem> reaggs;
  std::vector<ProjItem> projection;  // empty: none
};

/// Decides whether `probe`'s node derives from `cand`'s cached result,
/// reading only `cand`'s immutable identity fields (param_node,
/// output_names, conjunct_fps) — no table. Supported derivations are
/// listed at the top of this file. Returns nullopt when none applies.
std::optional<SubsumptionMatch> MatchSubsumption(const SubsumptionProbe& probe,
                                                 const RGNode& cand);

/// Result of a built subsumption derivation.
struct SubsumptionPlan {
  /// Derived plan (query name space) whose output schema equals the query
  /// node's output schema.
  PlanPtr plan;
  /// The CachedScan node inside `plan` (for cost annotation).
  PlanPtr cached_scan;
};

/// Builds `match`'s derived plan over `cached`, the matched candidate's
/// pinned result (columns named by its output_names).
SubsumptionPlan BuildSubsumption(const PlanNode& query_node,
                                 const SubsumptionMatch& match,
                                 TablePtr cached);

/// True if `sub`'s parameters are subsumed by `super`'s (both param_nodes
/// in graph space, same child). Used to maintain most-specific
/// subsumption edges in the graph.
bool ParamsSubsume(const PlanNode& super, const PlanNode& sub);

// ---------------------------------------------------------------------------
// Partial reuse (range stitching)
// ---------------------------------------------------------------------------

/// One branch of a stitched plan that reads a cached slice.
struct PartialPiece {
  /// The contributing cached node.
  RGNode* source = nullptr;
  /// Filter over the slice (null: none): the query's residual conjuncts
  /// the slice did not apply, plus clip bounds tighter than its own.
  ExprPtr compensation;
  /// Share of the query interval this branch covers (proportional
  /// benefit credit; equal split when the interval is unmeasurable).
  double fraction = 0;
  /// The branch's CachedScan (set by BuildPartialStitch; Eq. 2 cost
  /// bookkeeping).
  PlanPtr cached_scan;
};

/// A partial-reuse stitch: planned from interval metadata, then built
/// over the pieces' loaded slices.
struct PartialPlan {
  /// Cached-slice branches in sweep order (empty: no stitch). Branches
  /// cover pairwise-disjoint sub-intervals of the query range, so the
  /// bag union is exact.
  std::vector<PartialPiece> reuse_pieces;
  /// Predicate of the one compensated delta scan over the child, or null
  /// when the cached slices cover the whole query range (the child never
  /// executes). Every uncovered gap merges into this one scan, so the
  /// child subtree executes at most once per stitched plan.
  ExprPtr delta_predicate;
  /// Total share of the query interval served from the cache.
  double covered_fraction = 0;
  /// Stitched plan (set by BuildPartialStitch): a single branch, or a
  /// UnionAll over the cached-slice branches and the delta scan.
  PlanPtr plan;
};

/// Plans how range selection `query_node` (whose predicate decomposed
/// into `spec`) is answered from the union of overlapping cached slices
/// plus one compensated delta scan for the uncovered remainder, reading
/// only the candidates' interval-index metadata. `child_mapping` maps
/// the shared child's column names to graph space. Candidates whose
/// remaining conjuncts are not a subset of the query's are skipped (the
/// residual conjuncts become compensation filters on their piece), as
/// are candidates the sweep leaves nothing to cover. Adjacent pieces
/// meet with complementary open/closed boundaries, so shared boundary
/// values are emitted exactly once. Returns no pieces when no candidate
/// contributes.
///
/// Thread-safety: pure — reads only immutable RGNode identity fields.
PartialPlan PlanPartialStitch(
    const PlanNode& query_node, const NameMap& child_mapping,
    const RangeSpec& spec, const std::vector<IntervalIndex::Entry>& candidates);

/// Builds `stitch`'s plan: `slices[i]` is the pinned (possibly
/// range-filtered) result of `stitch->reuse_pieces[i].source`, and
/// `child_plan` feeds the delta scan.
///
/// The stitched union is a BAG equal to the selection's result as a
/// multiset, but branch order differs from cold execution (cached slices
/// stream before the delta scan) — an order-sensitive parent without a
/// sort (Limit without OrderBy) may surface different, equally valid,
/// rows.
void BuildPartialStitch(const PlanNode& query_node, const PlanPtr& child_plan,
                        const std::vector<TablePtr>& slices,
                        PartialPlan* stitch);

}  // namespace recycledb
