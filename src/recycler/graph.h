// The recycler graph: an AND-DAG of relational operators unifying all past
// optimized query plans (§II, §III-A/B of the paper).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "storage/table.h"

namespace recycledb {

/// Materialization state of a recycler-graph node's result.
enum class MatState : uint8_t {
  kNone,      // not materialized
  kInFlight,  // some query is currently computing + materializing it
  kCached,    // result available in the recycler cache (hot tier)
  kCold,      // result spilled to the on-disk cold tier; reuse lookups
              // lazily re-admit it (load -> promote -> serve)
};

/// Adds `delta` to an atomic double (C++17 has no fetch_add for doubles),
/// clamping the result at `floor`.
inline void AtomicAddClamped(std::atomic<double>& a, double delta,
                             double floor) {
  double old = a.load(std::memory_order_relaxed);
  double next = std::max(floor, old + delta);
  while (!a.compare_exchange_weak(old, next, std::memory_order_relaxed)) {
    next = std::max(floor, old + delta);
  }
}

/// Multiplies an atomic double by `factor`.
inline void AtomicScale(std::atomic<double>& a, double factor) {
  double old = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(old, old * factor,
                                  std::memory_order_relaxed)) {
  }
}

/// As-of version of one base table at the time a cached result was
/// computed: the catalog entry's replace-epoch plus its row high-water
/// mark. A cached result stamped {epoch, rows} was computed from exactly
/// rows [0, rows) of that table version (see DESIGN.md "Delta
/// maintenance").
struct TableStamp {
  uint64_t epoch = 0;
  int64_t rows = 0;
};

/// Reuse evidence for one node shape: every graph node of the same
/// (type, hash_key). Aggregate, OrderBy, TopN, Project and HashJoin keys
/// carry no literals, so their shape is the statement template; Select and
/// FunctionScan keys include literals and arguments, so each literal set is
/// its own shape. Speculation reads the tally to stop storing fresh
/// instances of shapes whose results are never matched again.
struct ShapeTally {
  /// Graph nodes of this shape inserted while the tally lived.
  std::atomic<int64_t> instances{0};
  /// Of which exactly matched by a later query at least once.
  std::atomic<int64_t> rematched{0};
  /// Graph nodes of this shape now in the graph (exclusive lock held);
  /// Truncate frees the tally when the last one goes.
  int64_t live = 0;
};

/// A node of the recycler graph: one relational operator with parameters,
/// annotated with reference statistics and its cached result (if any).
///
/// Column names inside the node (its parameter fingerprint, its
/// output_names) live in the *graph name space*: names newly assigned by
/// the operator are suffixed "#<node id>" so different queries assigning
/// the same alias never collide (the paper appends a query identifier).
///
/// Field guards (see the class comment below for the full discipline):
///  - identity fields (id..base_tables, leaf_key) are immutable once the
///    node is published under the exclusive graph lock; shared-lock
///    readers may touch them freely.
///  - `parents` and `subsumes` are structure: mutated only under the
///    exclusive graph lock, read under at least the shared lock.
///  - the statistics block is atomic: no lock is needed for individual
///    reads/writes. Node *lifetime* is what callers must respect: a
///    node pointer stays valid while holding the graph lock (any mode),
///    or between Prepare and OnComplete of the query that matched it —
///    TruncateGraph, the only node-freeing operation, requires that no
///    query be in that window (see Recycler::TruncateGraph). Concurrent
///    updates interleave per-field rather than per-record; the stats are
///    heuristic inputs, so per-record atomicity is deliberately not
///    provided.
///  - `mat_state` transitions kNone->kInFlight by lone CAS (claiming a
///    store); every other transition happens under the node's mat shard
///    mutex and signals the shard condvar.
///  - `cached` (the TablePtr itself) is read and written only under the
///    node's mat shard mutex; `cached_bytes` is atomic so Stats() and the
///    cache can read it without that mutex.
struct RGNode {
  int64_t id = 0;
  OpType type = OpType::kScan;

  /// Parameter fingerprint in graph name space (exact-match identity
  /// together with `type` and `children`).
  std::string param_fp;
  uint64_t hash_key = 0;
  uint64_t signature = 0;

  std::vector<RGNode*> children;
  /// Parent hash index (the paper's "small hash-indexes attached to each
  /// node"): hash_key -> parent node.
  std::unordered_multimap<uint64_t, RGNode*> parents;

  /// A childless copy of the defining plan node with all column references
  /// renamed to graph space. Keeps the parameters (predicates, group-by
  /// lists, aggregate items...) inspectable for subsumption and rewrites.
  PlanPtr param_node;
  /// Select only: fingerprints of param_node's predicate conjuncts,
  /// taken once at insert for subsumption matching.
  std::set<std::string> conjunct_fps;

  /// Output column names in graph space, positionally matching the
  /// defining plan node's output schema.
  std::vector<std::string> output_names;
  /// Output column types (positional).
  std::vector<TypeId> output_types;

  /// Base tables under this subtree (for update invalidation).
  std::set<std::string> base_tables;

  /// Subsumption edges: nodes whose result this node's result can derive
  /// (most-specific only; transitive relationships follow the edges).
  std::vector<RGNode*> subsumes;

  // --- statistics (atomic; shared graph lock suffices) ----------------
  /// Measured cost to compute this result from base tables (Eq. 2 input).
  std::atomic<double> bcost_ms{0};
  std::atomic<bool> has_bcost{false};
  /// Measured output cardinality (last run).
  std::atomic<int64_t> rows{-1};
  /// Estimated / measured result footprint in bytes.
  std::atomic<double> size_bytes{0};
  std::atomic<bool> has_size{false};
  /// Importance factor h_R (Eq. 3/4), stored unaged; age with h_epoch.
  std::atomic<double> h{0};
  std::atomic<int64_t> h_epoch{0};
  /// Query id that inserted this node (to exclude self-references when
  /// bumping h, §III-C).
  int64_t inserted_by = -1;
  /// Total times a query exactly-matched this node; its first increment
  /// counts the node's shape as re-matched (ShapeTally).
  std::atomic<int64_t> match_count{0};
  /// Epoch of the last match/insert touching this node (drives
  /// truncation: §II "removing subtrees that have not been accessed for
  /// some time").
  std::atomic<int64_t> last_access_epoch{0};
  /// Leaf-index key (empty for non-leaves); needed to unregister on
  /// truncation.
  std::string leaf_key;
  /// This node's shape tally, set by AddNode. A tally lives as long as
  /// any node of its shape, so the pointer stays valid for this node's
  /// lifetime.
  ShapeTally* shape = nullptr;

  // --- materialization state ------------------------------------------
  /// kNone->kInFlight is claimed by bare CAS (losers skip their store);
  /// all other transitions happen under the mat shard mutex and signal
  /// the shard condvar so stalled queries wake.
  std::atomic<MatState> mat_state{MatState::kNone};
  /// Guarded by the node's mat shard mutex.
  TablePtr cached;  // column names are graph-space output_names
  std::atomic<int64_t> cached_bytes{0};
  /// Per-base-table as-of versions of the materialized result (one entry
  /// per name in `base_tables`), written when the result is admitted and
  /// cleared when the entry drops back to kNone. Guarded by the node's
  /// mat shard mutex, like `cached`; meaningful only while mat_state is
  /// kCached/kCold (the stamp outlives `cached` across the spill tier).
  /// An empty map on a materialized entry means "stamped before delta
  /// maintenance existed" — lookups treat it as fresh and appends must
  /// hard-invalidate it.
  std::map<std::string, TableStamp> stamps;
};

/// Statistics snapshot of the graph (diagnostics & Fig. 10 bench).
struct GraphStats {
  int64_t num_nodes = 0;
  int64_t num_leaves = 0;
  int64_t num_cached = 0;
  int64_t cached_bytes = 0;
  /// Nodes whose result currently lives only in the cold tier.
  int64_t num_cold = 0;
};

/// The recycler graph container.
///
/// Locking discipline (lock order: graph mutex -> Recycler cache mutex ->
/// mat shard mutex; see DESIGN.md "Concurrency model"):
///
///  - `mutex()` (shared_mutex) guards the graph *structure*: the node
///    list, leaf index, parent indexes, subsumption edges. Matching runs
///    under the shared lock; insertion and truncation take the exclusive
///    lock and *re-validate* the match candidates before inserting (the
///    paper's backwards validation at node granularity, collapsed into
///    revalidate-under-exclusive-lock: if an exactly matching node
///    appeared since the shared-lock match, the insert aborts and adopts
///    it). Per-node statistics are atomics, so statistic updates — h
///    bumps, cost/size annotations — only need the shared lock; fully
///    matched queries never serialize on the exclusive lock.
///
///  - Materialization state transitions use an array of shard mutexes +
///    condvars (sharded by node id) so queries can stall on in-flight
///    results without holding the graph lock and without funnelling every
///    stall/wake through one global mutex.
class RecyclerGraph {
 public:
  explicit RecyclerGraph(double aging_alpha = 1.0)
      : aging_alpha_(aging_alpha) {}

  // Non-copyable.
  RecyclerGraph(const RecyclerGraph&) = delete;
  RecyclerGraph& operator=(const RecyclerGraph&) = delete;

  /// Shared lock guarding graph structure (see class comment).
  std::shared_mutex& mutex() { return mu_; }

  /// Mutex + condvar shard guarding MatState transitions and `cached` of
  /// the given node. Sharded by node id to spread contention.
  struct MatShard {
    std::mutex mu;
    std::condition_variable cv;
  };
  MatShard& mat_shard(const RGNode* node) {
    return mat_shards_[static_cast<uint64_t>(node->id) % kNumMatShards];
  }

  /// Advances the aging epoch (call once per query invocation) and
  /// returns the new epoch.
  int64_t AdvanceEpoch() { return ++epoch_; }
  int64_t epoch() const { return epoch_.load(); }
  double aging_alpha() const { return aging_alpha_; }

  /// h of `node` aged to the current epoch (Eq. 5, lazy). Caller holds at
  /// least the shared lock on mutex().
  double AgedH(const RGNode* node) const;

  /// Folds pending aging into node->h and stamps the epoch. Caller holds
  /// at least the shared lock; concurrent folds race benignly (the CAS on
  /// h_epoch elects one folder per epoch advance; an h bump landing
  /// between the election and the scale is scaled once too often — an
  /// acceptable imprecision in a decay heuristic).
  void FoldAging(RGNode* node);

  /// Leaf candidates for a scan/function-scan keyed by fingerprintable
  /// identity (table name / function+args). Caller holds a lock.
  std::vector<RGNode*> LeafCandidates(const std::string& leaf_key,
                                      uint64_t hash_key) const;

  /// Publishes a node (exclusive lock held by caller): registers it in
  /// the leaf index under its leaf_key when it has no children, else in
  /// its children's parent indexes, and counts it as an instance of its
  /// shape.
  RGNode* AddNode(std::unique_ptr<RGNode> node);

  /// Next node id. Needs no lock: nodes are built before the exclusive
  /// lock is taken, and an id whose node loses its insert race is skipped.
  int64_t NextId() { return next_id_.fetch_add(1); }

  /// All nodes (shared lock held by caller); for diagnostics and tests.
  const std::vector<std::unique_ptr<RGNode>>& nodes() const { return nodes_; }

  /// Number of nodes, kept by AddNode and Truncate. Needs no lock.
  int64_t num_nodes() const { return num_nodes_.load(); }

  /// Removes every node that (a) has not been accessed for at least
  /// `idle_epochs` epochs, (b) is not cached or in flight, and (c) has no
  /// surviving parents (subtrees are removed top-down so shared prefixes
  /// still referenced by fresh parents are kept). Returns the number of
  /// nodes removed. Caller holds the exclusive lock.
  int64_t Truncate(int64_t idle_epochs);

  GraphStats Stats() const;

 private:
  static constexpr uint64_t kNumMatShards = 16;

  mutable std::shared_mutex mu_;
  MatShard mat_shards_[kNumMatShards];

  std::vector<std::unique_ptr<RGNode>> nodes_;
  /// Global leaf hash table (the paper's "global hash table for
  /// efficiently matching table scans"): leaf key -> nodes.
  std::unordered_multimap<std::string, RGNode*> leaf_index_;

  /// Shape tallies keyed by (type, hash_key) of the live nodes. Select
  /// and FunctionScan keys carry literals, so without erasure every fresh
  /// literal set would leave a tally behind.
  struct ShapeKeyHash {
    size_t operator()(const std::pair<OpType, uint64_t>& k) const {
      return static_cast<size_t>(k.second) ^ static_cast<size_t>(k.first);
    }
  };
  std::unordered_map<std::pair<OpType, uint64_t>, ShapeTally, ShapeKeyHash>
      shapes_;

  std::atomic<int64_t> num_nodes_{0};
  std::atomic<int64_t> epoch_{0};
  std::atomic<int64_t> next_id_{1};
  double aging_alpha_;
};

}  // namespace recycledb
