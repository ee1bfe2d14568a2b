// The recycler: matching, benefit-based result selection, speculation,
// subsumption and proactive rewriting for a pipelined query engine.
// This is the paper's primary contribution (Sections II-IV).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/executor.h"
#include "recycler/cache.h"
#include "recycler/cold_tier.h"
#include "recycler/delta.h"
#include "recycler/graph.h"
#include "recycler/interval_index.h"

namespace recycledb {

/// Execution modes evaluated in the paper (§V):
///  kOff        - no recycling (the "naive"/OFF baseline).
///  kHistory    - HIST: materialize only results seen in previous queries,
///                decided at rewrite time from recorded statistics.
///  kSpeculation- SPEC: HIST + speculative stores with run-time estimates
///                on never-seen expensive/small results.
///  kProactive  - PA: SPEC + proactive query rewriting (top-N caching,
///                cube caching with selections / with binning).
enum class RecyclerMode : uint8_t { kOff, kHistory, kSpeculation, kProactive };

const char* RecyclerModeName(RecyclerMode mode);

/// Constant h used for speculative benefit estimates (§III-D).
inline constexpr double kSpeculationH = 0.001;
/// Proactive top-N limit L (§IV-B: topN(Q, 10000) subsumes topN(Q, N)).
inline constexpr int64_t kProactiveTopNLimit = 10000;
/// Minimum benefit (Eq. 1) an evicted result must retain to be worth
/// spilling; 0 spills every evicted result.
inline constexpr double kSpillMinBenefit = 0.0;
/// Speculation evidence ratio: a fresh node is stored speculatively only
/// while kSpeculationEvidence * (rematched + 1) > instances of its shape
/// (see ShapeTally), i.e. while fewer than kSpeculationEvidence instances
/// per re-matched one went unused. A fresh instance that recurs is still
/// stored on its second sighting by the history rule.
inline constexpr int64_t kSpeculationEvidence = 8;

/// Tunables for the recycler.
struct RecyclerConfig {
  RecyclerMode mode = RecyclerMode::kSpeculation;
  /// Recycler cache budget in bytes; < 0 means unlimited.
  int64_t cache_bytes = 256ll << 20;
  /// Aging factor alpha (Eq. 5); 1.0 disables aging.
  double aging_alpha = 1.0;
  /// Hard cap for speculative buffering per store operator.
  int64_t speculation_buffer_cap = 64ll << 20;
  /// Enables subsumption-based reuse (§IV-A).
  bool enable_subsumption = true;
  /// Enables partial reuse of range selections (stitching overlapping
  /// cached slices with a compensated delta scan). Independent of
  /// enable_subsumption: disabling single-superset subsumption alone
  /// does not turn stitching off.
  bool enable_partial_reuse = true;
  /// Upper bound on stalling for a concurrent materialization.
  int64_t stall_timeout_ms = 30000;
  /// Replacement policy (kBenefit = paper; others for ablations).
  CachePolicy cache_policy = CachePolicy::kBenefit;
  /// Cold-tier spill directory; empty disables the tier. When set, hot
  /// evictions spill still-beneficial results to disk, a shutdown
  /// checkpoint persists the hot cache, and Database::Open over the same
  /// directory warms the recycler up from the previous process's
  /// coverage. The directory must be private to one engine instance and
  /// must stay paired with the same base data (ReplaceTable purges).
  std::string spill_dir;
  /// Byte cap on the spill directory (second-chance replacement).
  /// Must be positive when spill_dir is set.
  int64_t cold_tier_capacity_bytes = 1ll << 30;
  /// Compress cold-tier spill payloads (per-column codecs).
  /// Stored results are bit-identical either way; compression only
  /// changes how many entries fit under cold_tier_capacity_bytes.
  bool compress_spill = true;
  // --- fleet tier (shared cold directory) ------------------------------
  /// Coordinate with other engine processes sharing spill_dir through
  /// the fleet ownership manifest (fleet/manifest.h). Off = the classic
  /// private tier (the directory must then belong to one instance).
  bool shared_spill_dir = false;
  /// This process's identity in the fleet manifest. Must be non-empty
  /// and filename-safe ([A-Za-z0-9_-]) when shared_spill_dir is set and
  /// the tier is writable; auto-derived from the pid when left empty.
  std::string fleet_instance;
  /// Adopt-only fleet member: discover and serve peers' spills but never
  /// create, delete or lock anything in the directory (standby on a
  /// read-only mount). Implies no spills and no checkpoint.
  bool spill_read_only = false;
  /// Fleet liveness lease; an instance that has not renewed within this
  /// window is presumed dead and its entries become claimable
  /// (stale-lease takeover). Must be positive when shared_spill_dir.
  int64_t fleet_lease_ms = 30000;
  /// Consult base-table zone maps to skip scan blocks that cannot match
  /// a query's range predicate. Pruning is conservative (never skips a
  /// possibly-matching block), so results are identical either way.
  bool enable_zone_map_pruning = true;
  /// Delta maintenance of cached results under append-only growth
  /// (recycler/delta.h): cached entries stale only by appended rows are
  /// served as UnionAll(cached as-of N, delta scan over [N, now)) — or an
  /// aggregate merge for decomposable Aggregate roots — and re-admitted
  /// at the new high-water mark. When off, an append hard-invalidates
  /// every dependent entry (the pre-delta behavior). Results are
  /// bit-identical either way.
  bool enable_delta_maintenance = true;
  /// Capture the post-rewrite plan's Explain text into
  /// QueryTrace::plan_explain for every query. Off by default: the text
  /// is only needed by trace recording / golden tests and rendering it
  /// per query is not free.
  bool capture_plan_explain = false;
};

/// The reuse decision the recycler made for one query, derived uniformly
/// from the QueryTrace counters (precedence: an aggregate merge outranks
/// the generic delta flag it also sets, delta outranks stitch, and so on
/// down to the plain exact hit). One value per query even when a plan
/// consumes several cached results: the most specialized mechanism wins,
/// which is also the one whose regression a golden diff should name.
enum class ReuseMode : uint8_t {
  kNone = 0,        ///< no cached result consumed (miss / cold start)
  kExact = 1,       ///< exact hot-cache hit
  kColdReadmit = 2, ///< exact hit served by re-admitting a cold-tier entry
  kSubsumption = 3, ///< single-superset subsumption rewrite
  kPartialStitch = 4, ///< stitched UnionAll of cached slices (+ delta scan)
  kDelta = 5,       ///< append-stale entry served as cached-prefix + delta
  kAggMerge = 6,    ///< delta served as an aggregate merge (no rescan)
};

/// Stable lower-case name for `mode` ("none", "exact", "cold-readmit",
/// "subsumption", "partial-stitch", "delta", "agg-merge"). Used verbatim
/// in trace files and golden snapshots — do not reword existing names.
const char* ReuseModeName(ReuseMode mode);

/// Inverse of ReuseModeName. Returns false when `name` is not a known
/// mode name (trace files from a newer engine may carry unknown modes).
bool ParseReuseMode(const std::string& name, ReuseMode* mode);

/// Derives the uniform reuse mode from a trace's counters (see ReuseMode
/// for the precedence). Exposed so replay tooling can classify traces
/// recorded before the reuse_mode field existed.
ReuseMode ReuseModeFromCounters(const struct QueryTrace& trace);

/// Per-query observability record (drives Fig. 9 traces and Fig. 10).
struct QueryTrace {
  int64_t query_id = 0;
  /// Identity of the prepared-statement template this query was bound
  /// from (0 = ad-hoc query). Copied from PlanNode::template_hash.
  uint64_t template_hash = 0;
  /// Prior executions of the same template (before this query).
  int64_t template_prior_runs = 0;
  int num_reuses = 0;              // cached results consumed
  int num_subsumption_reuses = 0;  // of which via subsumption
  int num_partial_reuses = 0;      // of which via partial-range stitching
  int num_delta_reuses = 0;        // of which via delta maintenance
  int num_agg_merges = 0;          // of which aggregate merges (no rescan)
  int num_cold_hits = 0;           // of which loaded from the cold tier
  int num_adoptions = 0;           // cold orphans adopted during Prepare
                                   // (restart images or fleet peers)
  int num_materialized = 0;        // results added to the cache
  int num_spec_aborted = 0;        // speculative stores that backed off
  int num_stalls = 0;              // waits on concurrent materializations
  bool used_proactive = false;     // a proactive rewrite was executed
  double match_ms = 0;             // matching + insertion cost (Fig. 10)
  double stall_ms = 0;
  int64_t graph_nodes_at_match = 0;
  /// Zone-map accounting for this query's scans: 1024-row blocks read
  /// vs. skipped (pruned + scanned = blocks the scans would touch
  /// without zone maps).
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
  /// The chosen reuse mode, set uniformly by Recycler::Execute from the
  /// counters above (bypass-recycler traces stay kNone).
  ReuseMode reuse_mode = ReuseMode::kNone;
  /// Fingerprint of the plan as executed (post-canonicalization,
  /// PRE-rewrite): restart-stable identity of "the same statement".
  uint64_t plan_fingerprint = 0;
  /// Explain text of the POST-rewrite plan (CachedScans, stitched
  /// unions, delta windows visible). Only filled when
  /// RecyclerConfig::capture_plan_explain is on.
  std::string plan_explain;
};

/// Reuse accounting aggregated per prepared-statement template: the unit
/// the paper's workloads share at (§V — queries differing only in
/// constants). Keyed by PlanNode::template_hash.
struct TemplateStats {
  int64_t executions = 0;
  int64_t reuses = 0;
  int64_t subsumption_reuses = 0;
  int64_t partial_reuses = 0;
  int64_t materializations = 0;
  double total_ms = 0;
};

/// Aggregate counters across all queries (reported by benches).
struct RecyclerCounters {
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> reuses{0};
  std::atomic<int64_t> subsumption_reuses{0};
  std::atomic<int64_t> partial_reuses{0};
  std::atomic<int64_t> materializations{0};
  std::atomic<int64_t> spec_aborts{0};
  std::atomic<int64_t> stalls{0};
  std::atomic<int64_t> evictions{0};
  std::atomic<int64_t> invalidations{0};
  std::atomic<int64_t> proactive_rewrites{0};
  // --- delta maintenance ----------------------------------------------
  /// Append-stale entries served by a delta rewrite instead of eviction.
  std::atomic<int64_t> delta_hits{0};
  /// Of which aggregate merges (cached aggregate state + delta-window
  /// aggregation; zero base rows before the mark rescanned).
  std::atomic<int64_t> agg_merges{0};
  // --- cold tier -------------------------------------------------------
  /// Reuses served by loading a result from the cold tier.
  std::atomic<int64_t> cold_hits{0};
  /// Spill files written (evictions + shutdown checkpoint).
  std::atomic<int64_t> cold_spills{0};
  /// Cold entries promoted back into the hot cache.
  std::atomic<int64_t> cold_readmissions{0};
  /// Cold entries dropped by the tier's second-chance sweep.
  std::atomic<int64_t> cold_evictions{0};
  /// Corrupt/unreadable spill files dropped on access.
  std::atomic<int64_t> cold_load_errors{0};
  /// Restart orphans adopted by newly inserted graph nodes.
  std::atomic<int64_t> cold_adoptions{0};
  /// Cold entries consumed as a filtered slice (the selection ran on the
  /// encoded image; only in-range rows were materialized).
  std::atomic<int64_t> cold_slice_loads{0};
  /// Uncompressed vs. on-disk bytes of spill files written (ratio =
  /// column-compression win; raw == stored when compress_spill is off).
  std::atomic<int64_t> cold_spill_raw_bytes{0};
  std::atomic<int64_t> cold_spill_stored_bytes{0};
  // --- fleet tier ------------------------------------------------------
  /// RefreshFleet rounds completed.
  std::atomic<int64_t> fleet_refreshes{0};
  /// Peer spill files discovered and tracked as adoptable orphans.
  std::atomic<int64_t> fleet_peer_entries{0};
  /// Dead-owner entries claimed via stale-lease takeover.
  std::atomic<int64_t> fleet_lease_takeovers{0};
  // --- zone maps -------------------------------------------------------
  /// Scan blocks read vs. skipped via zone-map pruning, across all
  /// queries (base-table and cached-result scans alike).
  std::atomic<int64_t> blocks_scanned{0};
  std::atomic<int64_t> blocks_pruned{0};
};

class Recycler;

/// A query prepared for execution: the (possibly rewritten) plan plus the
/// store-operator configuration, and the bookkeeping needed to annotate
/// the recycler graph after execution.
class PreparedQuery {
 public:
  PreparedQuery();
  ~PreparedQuery();  // out-of-line: MNode is defined in recycler.cc

  const PlanPtr& plan() const { return plan_; }
  const std::map<const PlanNode*, StoreRequest>& stores() const {
    return stores_;
  }
  const QueryTrace& trace() const { return trace_; }

 private:
  friend class Recycler;
  struct MNode;  // matched-tree node (internal)

  PlanPtr plan_;
  std::map<const PlanNode*, StoreRequest> stores_;
  QueryTrace trace_;
  std::unique_ptr<MNode> matched_;  // matched tree over the ORIGINAL plan
  /// Executed plan node -> graph node (for post-run annotation).
  std::map<const PlanNode*, RGNode*> exec_to_gnode_;
  /// CachedScan plan node -> bcost of the subtree it replaced (Eq. 2
  /// bookkeeping: bcost must stay cost-from-base-tables).
  std::map<const PlanNode*, double> replaced_cost_;
  /// Nodes whose result this query loaded from the cold tier (a load may
  /// promote the node to hot before the reuse that consumes it is
  /// chosen, so cold-hit accounting goes through this set rather than
  /// the node's state at consumption time).
  std::unordered_set<const RGNode*> cold_loaded_;
  /// As-of snapshots of every base table the query reads, captured once
  /// at Prepare. Freshness checks compare cached-entry stamps against
  /// these, and execution pins scans to them (pins_), so one query sees
  /// one consistent version of each table even while appends land.
  std::map<std::string, TableSnapshot> snapshots_;
  Executor::TablePins pins_;
  int64_t query_id_ = 0;
};

/// The recycler facade.
///
/// Thread-safe: Prepare/OnComplete/Execute may be called from concurrent
/// query streams. Lock order (never acquired in reverse): graph mutex
/// (shared for matching/stats, exclusive for structure changes) ->
/// cache mutex -> mat shard mutex. A query whose plan fully matches the
/// graph never takes the exclusive lock. See graph.h and DESIGN.md
/// ("Concurrency model") for the full discipline.
class Recycler {
 public:
  Recycler(const Catalog* catalog, RecyclerConfig config);

  /// Checkpoints the hot cache into the cold tier (see
  /// CheckpointColdTier); sessions/streams must already be quiescent.
  ~Recycler();

  /// Full pipeline for one query: Prepare -> Execute -> OnComplete.
  /// `trace_out` (optional) receives the query's trace record.
  ExecResult Execute(const PlanPtr& query_plan, QueryTrace* trace_out = nullptr);

  /// Matches `query_plan` against the recycler graph, inserts unseen
  /// nodes, rewrites for reuse, and injects store operators.
  /// The input plan is not modified. Binds both input and output plans.
  std::unique_ptr<PreparedQuery> Prepare(PlanPtr query_plan);

  /// Post-execution hook: annotates graph nodes with measured statistics.
  void OnComplete(PreparedQuery* prepared, const ExecResult& result);

  /// Evicts every cached result that depends on `table` (update commit).
  void InvalidateTable(const std::string& table);

  /// Append hook (Database::AppendTable, after Catalog::AppendRows):
  /// walks every materialized entry depending on `table` and keeps the
  /// ones delta maintenance can refresh (stamped, same epoch, delta-
  /// eligible shape); everything else — unstamped legacy entries, nodes
  /// with joins or non-decomposable roots — is evicted as a hard
  /// invalidation. With enable_delta_maintenance off, behaves like
  /// InvalidateTable.
  void OnTableAppended(const std::string& table);

  /// Evicts everything from the cache (simulated refresh, Fig. 6).
  void FlushCache();

  /// Removes recycler-graph subtrees not accessed for `idle_epochs` query
  /// invocations (the paper's periodic truncation for production
  /// deployments, §II). Cached / in-flight nodes and shared prefixes that
  /// fresher plans still reference are kept. Returns nodes removed.
  /// Must be called at a quiescent point (no queries between Prepare and
  /// OnComplete): prepared queries hold raw graph-node references.
  int64_t TruncateGraph(int64_t idle_epochs);

  /// Benefit of a node per Eq. 1/2 with lazily-aged h. Caller must hold
  /// at least a shared lock on graph().mutex(); exposed for tests/benches.
  double BenefitOf(const RGNode* node) const;

  /// True cost (Eq. 2): bcost minus the bcost of direct materialized
  /// descendants. Caller holds a lock on graph().mutex().
  double TrueCost(const RGNode* node) const;

  /// Per-template reuse stats for `template_hash` (zeroes if unseen).
  TemplateStats TemplateStatsFor(uint64_t template_hash) const;

  /// Number of (cached slice, column) registrations in the partial-reuse
  /// interval index (diagnostics / tests).
  int64_t interval_index_entries() const;

  /// Writes a spill file for every hot-cache entry whose benefit clears
  /// the spill threshold and that has no live file yet (results already
  /// demoted once keep their file, so this skips them). Called by the
  /// destructor so a graceful shutdown persists accumulated coverage;
  /// exposed for tests/benches. Returns the number of files written.
  /// With async spill on, drains the spill queue before returning, so
  /// every checkpointed entry is on disk when this returns.
  int64_t CheckpointColdTier();

  /// Fleet tier: one manifest refresh round — discovers peers' new
  /// spills as adoptable orphans, applies fleet-wide purge records,
  /// performs stale-lease takeover, renews this instance's lease, and
  /// demotes nodes whose entries a purge retired. `new_peer_entries`
  /// (optional) receives the number of newly discovered peer entries.
  /// No-op OK on a private tier. Called periodically by the standby
  /// tailer (fleet/standby.h) and on demand by tests/benches. Must not
  /// be called while holding engine locks.
  Status RefreshFleet(int64_t* new_peer_entries = nullptr);

  /// Canonical, restart-stable fingerprint of the graph subtree rooted
  /// at `node`: node-id suffixes inside parameter fingerprints are
  /// rewritten to subtree-relative positions, so the same logical
  /// subtree produces the same key in every process. Cold-tier identity.
  /// Caller holds at least the shared lock on graph().mutex().
  std::string CanonicalSubtreeKey(const RGNode* node) const;

  /// Snapshot of all template-level stats (hash -> aggregate).
  std::map<uint64_t, TemplateStats> TemplateStatsSnapshot() const;

  /// Test seam: `hook` runs once, in the next statement that inserts graph
  /// nodes, after those nodes are built and before the exclusive lock is
  /// taken, so a test can publish competing nodes deterministically. Set
  /// it only while no other statement runs.
  void SetBeforePublishHook(std::function<void()> hook) {
    before_publish_ = std::move(hook);
  }

  RecyclerGraph& graph() { return graph_; }
  RecyclerCache& cache() { return cache_; }
  const ColdTier& cold_tier() const { return cold_tier_; }
  ColdTier& cold_tier() { return cold_tier_; }
  const RecyclerConfig& config() const { return config_; }
  const RecyclerCounters& counters() const { return counters_; }
  const Catalog* catalog() const { return catalog_; }

 private:
  using MNode = PreparedQuery::MNode;

  // --- matching & insertion (§III-A/B) --------------------------------
  std::unique_ptr<MNode> MatchTree(const PlanPtr& plan);
  /// Inserts the nodes MatchTree left unmatched: builds them without a
  /// lock, then revalidates and publishes them under the exclusive lock.
  void InsertMissing(MNode* root, PreparedQuery* prepared);
  /// Post-order: a draft (or a twin) for every unmatched node, no lock.
  void BuildMissing(MNode* m, int64_t query_id, std::vector<MNode*>* drafted);
  /// Post-order, exclusive lock held: adopts an equal published node or
  /// publishes the draft, first rebuilding it if a child did not resolve
  /// to the draft it was built over.
  void PublishMissing(MNode* m, PreparedQuery* prepared);
  RGNode* MatchOne(const PlanNode& node, const std::vector<RGNode*>& child_g,
                   const NameMap& mapping) const;
  /// Builds the unpublished graph node for `node` over `child_g` with a
  /// fresh id. `mapping` enters as the children's query->graph names and
  /// leaves extended across the node's outputs. Needs no graph lock.
  std::unique_ptr<RGNode> BuildNode(const PlanNode& node,
                                    const std::vector<RGNode*>& child_g,
                                    NameMap* mapping, int64_t query_id);
  static std::string LeafKey(const PlanNode& node);

  // --- h maintenance (§III-C) ------------------------------------------
  void BumpImportance(MNode* m, bool has_materialized_ancestor);
  void UpdateHrOnMaterialize(RGNode* node);          // Eq. 3 / Algorithm 2
  void UpdateHrOnEvict(RGNode* node);                // Eq. 4
  void UpdateHrChildren(RGNode* node, double delta); // shared walker

  // --- rewriting --------------------------------------------------------
  PlanPtr RewriteForReuse(MNode* m, const PlanPtr& plan,
                          PreparedQuery* prepared);
  /// Append-stale exact match: builds the delta rewrite (stitch or
  /// aggregate merge) over `snapshot`, drops the superseded cache entry,
  /// and marks `m` stitched so InjectStores re-admits the refreshed
  /// result at the new high-water mark. Returns null when the entry is
  /// not delta-eligible (caller evicts and falls through to a miss).
  /// Caller must not hold the graph lock.
  PlanPtr TryDeltaRewrite(MNode* m, const PlanPtr& plan, RGNode* g,
                          TablePtr snapshot, const StaleWindow& window,
                          PreparedQuery* prepared);
  /// Drops a superseded (append-stale) entry from both tiers without
  /// eviction-side h/counter noise: its data lives on in the delta
  /// rewrite that replaces it. Caller must not hold the graph lock.
  void DropSupersededEntry(RGNode* g);
  /// Freshness of `node`'s materialized result against the query's
  /// pinned snapshots (stamps are read under the node's mat shard
  /// mutex). Caller may hold the shared graph lock but not cache_mu_.
  Freshness NodeFreshness(RGNode* node, const PreparedQuery* prepared,
                          StaleWindow* window);
  /// Satellite of cold-tier restart recovery: before a derived-reuse
  /// (subsumption/stitch) candidate scan over `child_gnode`'s parents,
  /// adopt any restart orphans those parents still have on disk so they
  /// are servable without an exact re-insertion. Caller must not hold
  /// the graph lock; takes it exclusive briefly when orphans exist.
  /// Adoptions are counted into `prepared`'s trace.
  void MaybeAdoptOrphanParents(RGNode* child_gnode, PreparedQuery* prepared);
  void InjectStores(MNode* m, PreparedQuery* prepared, bool in_store_chain);
  /// Shared admission decision for one store candidate: history-based
  /// materialization when measured (benefit admit at h >= 1, gated by
  /// `history_ok`), else a speculative store when `speculative_ok`.
  /// Returns true if a store was injected. Caller holds the shared
  /// graph lock.
  bool MaybeInjectStore(RGNode* g, const PlanNode* exec_plan, bool history_ok,
                        bool speculative_ok, PreparedQuery* prepared);
  StoreRequest MakeStoreRequest(RGNode* gnode, StoreMode mode,
                                PreparedQuery* prepared);
  /// Prepare tail (both mode paths): derives the uniform reuse_mode from
  /// the counters and captures the post-rewrite Explain when configured.
  void FinalizeTrace(PreparedQuery* prepared);

  // --- store callbacks --------------------------------------------------
  void OfferResult(RGNode* node, TablePtr result, double subtree_ms,
                   PreparedQuery* prepared);
  bool SpeculationKeepGoing(RGNode* node, const SpeculationEstimate& est);
  /// Publishes a MatState transition under the node's mat shard mutex and
  /// wakes stalled queries. `clear_cached` also drops the node's cached
  /// TablePtr inside the same critical section (eviction).
  void SetMatState(RGNode* node, MatState state, bool clear_cached = false);
  /// Claims the kNone -> kInFlight transition by CAS; the loser of a race
  /// simply skips its store. No wakeup needed: queries only stall on the
  /// transitions *out* of kInFlight, which SetMatState publishes.
  static bool TryClaimInFlight(RGNode* node);

  /// Estimated result size in bytes (measured when available, else
  /// cardinality x estimated row width; §III-C "size(R)").
  double EstimatedSize(const RGNode* node) const;

  /// Caller holds at least the shared graph lock AND cache_mu_.
  void EvictNode(RGNode* node, bool update_h);

  // --- cold tier --------------------------------------------------------
  /// Handles one hot-cache eviction: Eq. 4 h-update, then spill-or-drop —
  /// a spilled victim flips to kCold and keeps its interval-index
  /// registrations (cold slices still stitch); a dropped one goes to
  /// kNone. Caller holds at least the shared graph lock AND cache_mu_.
  void HandleHotEviction(RGNode* victim);

  /// Writes `node`'s result to the cold tier when the tier is enabled
  /// and the benefit clears the spill threshold (no-op true when a live
  /// file already exists). Caller holds at least the shared graph lock
  /// AND cache_mu_.
  bool MaybeSpill(RGNode* node);

  /// Demotes a node whose cold entry the tier's sweep dropped: a kCold
  /// node loses its registrations and becomes kNone; a node that is
  /// (also) hot keeps its hot state. Caller holds the shared graph lock
  /// AND cache_mu_.
  void OnColdEntryDropped(RGNode* node);

  /// Pinned snapshot of `node`'s result from either tier: the hot table
  /// when kCached, else a lazy re-admission from the cold tier (load ->
  /// promote-if-admittable -> serve). nullptr when the node has no
  /// result in either tier. A load is recorded in `prepared`'s
  /// cold-loaded set; `*from_cold` reports whether THIS query pulled the
  /// node from disk (now or earlier in its rewrite), so call sites count
  /// cold hits only for reuses actually consumed. Caller must NOT hold
  /// the graph lock (promotion acquires it shared).
  TablePtr SnapshotOrReadmit(RGNode* node, PreparedQuery* prepared,
                             bool* from_cold);

  /// The cold half of SnapshotOrReadmit.
  TablePtr ReadmitCold(RGNode* node);

  /// SnapshotOrReadmit variant for subsumption/stitch candidates: a hot
  /// candidate returns its snapshot as usual, but a kCold candidate with
  /// a usable range spec (`spec` non-null and its mapped_column among the
  /// node's outputs) is loaded as a *filtered slice* — the selection runs
  /// on the encoded spill image and only in-range rows materialize. The
  /// slice is NOT promoted to the hot tier (it is a partial result) and
  /// the entry stays kCold. Sound for derived reuse only: rows the filter
  /// removes are rows the rewrite's clip/residual compensation would
  /// remove anyway. Falls back to SnapshotOrReadmit when slicing is
  /// impossible. Caller must NOT hold the graph lock.
  TablePtr SnapshotOrLoadSlice(RGNode* node, const RangeSpec* spec,
                               PreparedQuery* prepared, bool* from_cold);

  /// Probes the cold tier's orphan map for a restart or fleet-peer image
  /// of the just-inserted `node` and adopts it (re-seed stats, kCold
  /// state, interval registration). Returns true on adoption. Caller
  /// holds the exclusive graph lock.
  bool TryAdoptOrphan(RGNode* node);

  /// Registers `node`'s range slices in the interval index right after
  /// cache admission. Caller holds at least the shared graph lock AND
  /// cache_mu_ (the index tracks cache residency).
  void RegisterIntervals(RGNode* node);

  const Catalog* catalog_;
  RecyclerConfig config_;
  RecyclerGraph graph_;
  /// Guards cache_ (admission, eviction planning, LRU touches) and makes
  /// admit-then-publish atomic with respect to concurrent evictions.
  /// Decoupled from the graph mutex so reuse lookups and stat updates on
  /// other streams never serialize behind replacement decisions.
  /// Lock order: graph mutex -> cache_mu_ -> mat shard mutex.
  mutable std::mutex cache_mu_;
  RecyclerCache cache_;
  /// Partial-reuse interval index over cached range-selection slices.
  /// Guarded by cache_mu_: it changes exactly when cache residency does
  /// (cold entries count as resident: their slices still stitch).
  IntervalIndex interval_index_;
  /// On-disk cold tier below the hot cache. Internally synchronized
  /// (leaf mutex); ordered after graph/cache, see DESIGN.md "Cold tier".
  ColdTier cold_tier_;
  /// Guards template_stats_ (independent of the graph/cache locks; taken
  /// last and never while holding them longer than the map update).
  mutable std::mutex template_mu_;
  std::map<uint64_t, TemplateStats> template_stats_;
  Executor executor_;
  RecyclerCounters counters_;
  std::atomic<int64_t> next_query_id_{1};
  std::function<void()> before_publish_;  // see SetBeforePublishHook
};

}  // namespace recycledb
