// Interval index for partial-reuse subsumption (range stitching).
//
// Cached selection slices whose predicates carry a single-column range
// (e.g. `10 < x AND x < 50` plus arbitrary non-range conjuncts) are
// indexed per (child graph-node, column). An incoming range selection
// over the same child then finds every overlapping cached slice with an
// interval query instead of a linear scan over the child's parents, and
// the stitching rewriter (PlanPartialStitch, subsumption.h) answers the
// query from the union of the overlapping slices plus compensated delta
// scans over the uncovered remainder.
//
// The interval arithmetic lives in common/interval.h and the predicate
// decomposition in expr/range.h (both included here for their historical
// call sites); this header adds only the index itself.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "expr/range.h"

namespace recycledb {

struct RGNode;

/// The interval index: cached range-selection slices keyed by
/// (child graph-node id, graph-space column name), each bucket sorted by
/// lower bound so overlap lookups stop early.
///
/// NOT thread-safe by itself: the owning Recycler guards it with its
/// cache mutex (the index tracks cache residency, so it changes exactly
/// when admission/eviction decisions do; lock order graph mutex ->
/// cache mutex -> mat shard mutex is unchanged).
class IntervalIndex {
 public:
  /// One indexed slice: the cached node, its interval on the bucket's
  /// column, and the fingerprints of its remaining conjuncts.
  struct Entry {
    RGNode* node = nullptr;
    ColumnInterval range;
    std::set<std::string> other_fps;
  };

  /// Registers `entry` under (child_id, column). Inserting the same node
  /// twice for one key is a no-op.
  void Insert(int64_t child_id, const std::string& column, Entry entry);

  /// Unregisters every entry of `node` (all keys). No-op when absent.
  void Remove(const RGNode* node);

  /// Every entry under (child_id, column) whose interval overlaps
  /// `query`, in ascending lower-bound order.
  std::vector<Entry> Overlapping(int64_t child_id, const std::string& column,
                                 const ColumnInterval& query) const;

  /// Total registered (node, key) pairs.
  int64_t num_entries() const { return num_entries_; }

 private:
  using Key = std::pair<int64_t, std::string>;

  /// Buckets sorted ascending by entry lower bound.
  std::map<Key, std::vector<Entry>> buckets_;
  /// node -> keys it is registered under (for Remove).
  std::unordered_map<const RGNode*, std::vector<Key>> registered_;
  int64_t num_entries_ = 0;
};

}  // namespace recycledb
