// Proactive recycling strategies (§IV-B): rewriting a query into a more
// expensive variant whose intermediates have higher reuse potential.
#pragma once

#include <optional>

#include "plan/plan.h"
#include "storage/catalog.h"

namespace recycledb {

/// Result of a cube-caching rewrite.
struct CubeRewrite {
  /// The full rewritten query plan (unbound).
  PlanPtr plan;
  /// The inner extended aggregate inside `plan` whose recycling potential
  /// gates whether the proactive plan is executed (§IV-B: "If a recycled
  /// result for the aggregate was found during matching, or a
  /// non-speculative store decision was made for it, we execute the
  /// proactive plan").
  PlanPtr gate;
};

/// Top-N caching: rewrites every TopN(keys, N) with N < `proactive_limit`
/// into Limit(N) over TopN(keys, proactive_limit). The enlarged top-N is
/// practically as cheap (heap of 10000 still fits the cache) and its
/// result subsumes all smaller top-Ns over the same input.
/// Returns the rewritten plan, or `plan` itself when nothing applied.
PlanPtr RewriteTopNProactive(const PlanPtr& plan, int64_t proactive_limit);

/// Cube caching threshold on the number of distinct values the pulled-up
/// selection columns add to the GROUP BY (§IV-B heuristic).
inline constexpr int64_t kCubeDistinctThreshold = 64;

/// Cube caching with selections: rewrites
///     Aggregate(γ, α, Select(p(c), X))
/// into
///     Project(Aggregate(γ, α'', Select(p(c), Aggregate(γ∪c, α', X))))
/// when the selection columns c have a combined distinct count of at most
/// `distinct_threshold` (looked up in the catalog; the paper's
/// result-size heuristic; the recycler passes kCubeDistinctThreshold).
///
/// Cube caching with binning: when p is a single upper-bounded range
/// predicate on a DATE column (c <= D or c < D), rewrites into the union
/// of a year-binned cube part and a residual recomputation part
/// (Fig. 5 right).
///
/// Tries binning first (range predicates), then plain selections. Applies
/// at the topmost matching Aggregate-over-Select. Returns nullopt when no
/// pattern applies.
std::optional<CubeRewrite> TryCubeRewrite(const PlanPtr& plan,
                                          const Catalog& catalog,
                                          int64_t distinct_threshold);

}  // namespace recycledb
