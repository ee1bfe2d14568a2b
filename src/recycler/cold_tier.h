// The cold tier: a size-bounded on-disk spill directory below the
// in-memory benefit cache.
//
// When the hot cache evicts a result whose benefit still exceeds the
// configured spill threshold, the recycler serializes it into a spill
// file (storage/spill_file.h) and flips the node to MatState::kCold; the
// node stays registered in the graph and the interval index, so exact,
// subsumption and partial-stitch lookups keep finding it and lazily
// re-admit it (load from disk -> promote to hot -> serve) instead of
// re-executing the subtree. On process start the tier scans its
// directory and keeps every readable entry as an *orphan* keyed by the
// canonical subtree key; newly inserted graph nodes probe that map and
// adopt matching orphans, which is how a restart warms up from disk.
//
// Replacement is second-chance at a byte cap: entries sit on a clock
// list, loads set their reference bit, and an over-cap spill sweeps the
// clock — referenced entries get one more round, unreferenced ones are
// deleted. Files survive promotion back to the hot tier (results are
// immutable, so the image never goes stale), which makes later
// demotions free and lets a shutdown checkpoint skip already-spilled
// entries; invalidation is the only path that must delete files.
//
// Fleet (shared) mode lets several engine processes share one
// directory. An ownership manifest (fleet/manifest.h) records which
// instance owns each file plus liveness leases; writers serialize
// manifest read-modify-write cycles under a flock (fleet/lock_file.h)
// while readers stay lock-free on the immutable-file + checksum
// discipline. Peer entries are tracked as *peer orphans*: adoptable by
// canonical key exactly like restart orphans, but never deleted, never
// swept, and never counted against this instance's byte cap — eviction
// rights stay with the owner. RefreshPeers() tails the manifest for new
// peer spills, fleet-wide purge records, and stale-lease takeover of a
// crashed owner's files. Read-only mode (a standby on a read-only
// mount) opens adopt-only: every file is a peer orphan and nothing is
// ever written.
//
// Spill I/O runs on a background worker: SpillAsync enqueues the pinned
// result snapshot and returns immediately, Load serves still-pending
// entries straight from that snapshot (no miss window), and Drain() is
// the barrier checkpoints and shutdown use. A failed or swept-while-pending
// spill reports the node through the drop callback, which runs with no
// cold-tier lock held so the recycler can take its graph/cache locks to
// demote.
//
// Thread-safety: internally synchronized by one leaf mutex, acquired
// after the recycler's graph/cache locks and never held across calls
// back into them (lock order: graph mutex -> cache mutex -> cold-tier
// mutex, with the mat shard mutex independent below the cache mutex;
// see DESIGN.md "Cold tier"). Loads open their file under the mutex and
// read it after releasing it; spill writes run on the worker with the
// mutex released.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "fleet/manifest.h"
#include "storage/spill_file.h"

namespace recycledb {

struct RGNode;

/// Point-in-time snapshot of the tier (diagnostics, tests, benches).
struct ColdTierStats {
  int64_t entries = 0;        // live + orphan, owned + peer
  int64_t orphans = 0;        // entries not yet adopted by a graph node
  int64_t used_bytes = 0;     // owned bytes only (peer files are the
                              // owner's budget)
  int64_t capacity_bytes = 0;
  /// Uncompressed size of the stored entries (what used_bytes would be
  /// without column compression).
  int64_t raw_bytes = 0;
  /// Fleet mode: entries owned by other instances (tracked, adoptable,
  /// never swept locally).
  int64_t peer_entries = 0;
  /// Async spills accepted but not yet committed to disk.
  int64_t pending_spills = 0;
};

/// How a ColdTier opens its directory (built by the recycler from
/// RecyclerConfig; defaults preserve the private single-process tier).
struct ColdTierOptions {
  std::string dir;
  int64_t capacity_bytes = 0;
  /// Fleet mode: coordinate with other processes through the ownership
  /// manifest + flock.
  bool shared = false;
  /// Adopt-only: never create, delete or lock anything in the directory
  /// (standby on a read-only mount). Implies no spills and no spill
  /// worker.
  bool read_only = false;
  /// This process's identity in the manifest. Required non-empty when
  /// shared and writable.
  std::string instance_id;
  /// Liveness lease duration; an instance whose lease expires forfeits
  /// its entries to stale-lease takeover.
  int64_t lease_ms = 30000;
};

class ColdTier {
 public:
  ColdTier() = default;
  ~ColdTier();

  // Non-copyable (owns file-backed state).
  ColdTier(const ColdTier&) = delete;
  ColdTier& operator=(const ColdTier&) = delete;

  /// Validates that `dir` can be created and written (probe file). Used
  /// by Database::Open so an unusable spill_dir surfaces as a
  /// recoverable, actionable Status before the engine is constructed.
  static Status ValidateSpillDir(const std::string& dir);

  /// Read-only variant: validates that `dir` exists and is a readable
  /// directory WITHOUT creating or writing anything (adopt-only opens
  /// on a read-only mount must probe without side effects).
  static Status ValidateSpillDirReadable(const std::string& dir);

  /// Opens the tier over `options.dir` with a byte cap: creates the
  /// directory, deletes stale .tmp files, and scans *.spill into the
  /// orphan map (unreadable or duplicate-key files are deleted, newest
  /// key wins). In shared mode the manifest decides which scanned files
  /// are claimable (unlisted, unowned, ours, or a dead owner's) versus
  /// peer-owned; claims and this instance's lease are written back. An
  /// empty dir leaves the tier disabled and returns OK.
  Status Open(const ColdTierOptions& options);

  /// Back-compat convenience: private single-process tier.
  Status Open(const std::string& dir, int64_t capacity_bytes);

  bool enabled() const { return enabled_; }
  bool read_only() const { return read_only_; }
  const std::string& instance_id() const { return instance_; }

  /// Whether spills compress columns (per-column codec selection). Set
  /// once at engine construction, before any spill.
  void set_compress(bool v) { compress_ = v; }
  bool compress() const { return compress_; }

  /// Callback for entries dropped off the recycler's paths (spill
  /// failures and commit-time sweeps): invoked with NO cold-tier lock
  /// held, so it may take the graph/cache locks to demote the
  /// nodes. Set once at engine construction.
  void set_drop_callback(
      std::function<void(const std::vector<const RGNode*>&)> cb) {
    drop_cb_ = std::move(cb);
  }

  /// Callback invoked once per committed spill file with its on-disk
  /// and uncompressed sizes (counter accounting). Runs on the spill
  /// worker with no cold-tier lock held.
  void set_spilled_callback(
      std::function<void(const RGNode*, int64_t, int64_t)> cb) {
    spilled_cb_ = std::move(cb);
  }

  /// Cheap pre-check for the adoption probe on graph insertion.
  bool has_orphans() const {
    return num_orphans_.load(std::memory_order_relaxed) > 0;
  }

  /// True when `node` has a live spill file or a pending async spill.
  bool Has(const RGNode* node) const;

  /// On-disk and uncompressed sizes of `node`'s committed entry; false
  /// when it has none (spill-byte accounting in the recycler's
  /// counters). Pending async spills report false.
  bool EntrySizes(const RGNode* node, int64_t* stored_bytes,
                  int64_t* raw_bytes) const;

  /// Enqueues the pinned `snapshot` as `node`'s spill file for the
  /// background worker and returns immediately (true = accepted, or a
  /// file is already live or pending; the entry serves loads from the
  /// snapshot until the file commits). The worker runs the
  /// second-chance sweep to fit the byte cap before committing. False
  /// when the result can never fit or the tier is disabled or
  /// read-only — the caller degrades to memory-only behavior. Write
  /// failures and commit-time sweep victims are reported through the
  /// drop callback.
  bool SpillAsync(const RGNode* node, const std::string& canon_key,
                  TablePtr snapshot, const SpillFileMeta& meta);

  /// Blocks until the async spill queue is empty and the worker idle
  /// (checkpoint/shutdown barrier; also used by deterministic tests).
  /// Callers must NOT hold the recycler's cache mutex: the worker's
  /// drop callback acquires it.
  void Drain();

  /// Loads `node`'s spilled result and sets its second-chance bit; a
  /// pending async spill is served directly from its in-memory
  /// snapshot. NotFound when the node has no live entry (e.g. it was
  /// swept between the state check and the load); other errors mean a
  /// corrupt or vanished file — the caller should Remove(node) and treat
  /// it as a miss. The file is opened under the tier mutex but read and decoded
  /// after releasing it, so concurrent loads, spill commits and sweeps
  /// do not queue behind one another's disk reads.
  Status Load(const RGNode* node, TablePtr* out);

  /// Like Load, but materializes only the rows whose value in column
  /// `filter_column` falls in `range` (ReadSpillTableFiltered: the
  /// selection runs on the encoded image before any decode). Reads
  /// outside the tier mutex like Load and sets the second-chance bit on
  /// success. The slice is a partial result and must never be promoted
  /// to the hot tier or re-spilled by the caller.
  /// Fails recoverably for pending spills (the caller falls back to the
  /// full in-memory snapshot).
  Status LoadSlice(const RGNode* node, int filter_column,
                   const ColumnInterval& range, TablePtr* out);

  /// Claims the orphan under `canon_key` for `node` (making it live) and
  /// returns its metadata. False when no orphan has that key. Adopting
  /// a peer orphan never takes ownership of the file: the entry serves
  /// reads here while eviction rights stay with the owning instance.
  bool AdoptOrphan(const std::string& canon_key, const RGNode* node,
                   SpillFileMeta* meta, int64_t* bytes);

  /// Deletes `node`'s entry and file (invalidation, corrupt file); a
  /// pending async spill is canceled. Peer entries are only forgotten
  /// locally — the owner keeps the file.
  void Remove(const RGNode* node);

  /// Deletes every entry (live or orphan) whose subtree reads `table`
  /// (update invalidation: stale cold results must never be re-admitted).
  /// Live nodes whose entries were purged are appended to
  /// `dropped_nodes` for graph-state demotion by the caller. In shared
  /// mode a purge record is published so peers retire their copies at
  /// their next refresh.
  void PurgeTable(const std::string& table,
                  std::vector<const RGNode*>* dropped_nodes);

  /// Append-time variant of PurgeTable: deletes only orphans over
  /// `table` WITHOUT row stamps (images of unstamped nodes —
  /// indistinguishable from stale under appends). Stamped entries
  /// survive: orphans
  /// re-anchor their marks on adoption, and live entries are judged by
  /// the recycler against their in-memory stamps.
  void PurgeUnversionedOrphans(const std::string& table,
                               std::vector<const RGNode*>* dropped_nodes);

  /// Fleet refresh: lock-free manifest read, then (a) applies purge
  /// records published since the last refresh, (b) tracks new peer
  /// entries as adoptable peer orphans, (c) drops peer entries their
  /// owner retired, (d) claims entries whose owner's lease expired
  /// (stale-lease takeover; skipped in read-only mode), and (e) renews
  /// this instance's lease. Live nodes dropped by (a)/(c) are appended
  /// to `dropped_nodes`. Returns the number of newly discovered peer
  /// entries via `new_peer_entries` (optional). No-op OK when the tier
  /// is private.
  Status RefreshPeers(std::vector<const RGNode*>* dropped_nodes,
                      int64_t* new_peer_entries = nullptr,
                      int64_t* lease_takeovers = nullptr);

  ColdTierStats Stats() const;

 private:
  struct Rec {
    std::string path;
    std::string canon_key;
    int64_t bytes = 0;
    bool second_chance = false;
    /// This instance owns the file (may delete/sweep it and lists it in
    /// the manifest). Peer entries are read-only here.
    bool owned = true;
    /// Manifest sequence at admission (vs. purge records); 0 until the
    /// first manifest sync in shared mode.
    int64_t admit_seq = 0;
    /// Owning graph node; nullptr for orphans awaiting adoption.
    const RGNode* node = nullptr;
    SpillFileMeta meta;  // header copy (adoption re-seeds node stats)
  };
  using ClockIt = std::list<Rec>::iterator;

  /// A spill accepted by SpillAsync but not yet committed. The snapshot
  /// pins the result so loads can serve it while the write is in
  /// flight.
  struct PendingSpill {
    const RGNode* node = nullptr;
    std::string canon_key;
    TablePtr snapshot;
    SpillFileMeta meta;
    bool canceled = false;  // Remove/purge raced the worker
  };
  using PendingIt = std::list<PendingSpill>::iterator;

  /// Erases `it` from every map, deletes its file (owned entries only),
  /// adjusts accounting. Caller holds mu_.
  void EvictRec(ClockIt it, std::vector<const RGNode*>* dropped_nodes);

  /// Second-chance sweep over OWNED entries until `need_bytes` fit under
  /// the cap. Caller holds mu_. Returns false when the clock ran dry
  /// without fitting.
  bool SweepToFit(int64_t need_bytes,
                  std::vector<const RGNode*>* dropped_nodes);

  /// Commits one written spill file into the maps (dedupe, sweep, link).
  /// Caller (the spill worker) holds mu_.
  bool CommitSpillLocked(const RGNode* node, const std::string& canon_key,
                         const std::string& path, int64_t bytes,
                         SpillFileMeta stored,
                         std::vector<const RGNode*>* dropped_nodes);

  /// Shared-mode manifest read-modify-write under the flock: renews this
  /// instance's lease, republishes the owned entry set, appends pending
  /// purge records, and prunes dead-owner entries whose file is gone.
  /// Caller holds mu_; no-op outside writable shared mode.
  void SyncManifestLocked();

  /// Inserts a scanned/discovered file as an orphan Rec. Caller holds
  /// mu_.
  ClockIt AddOrphanLocked(const std::string& path, int64_t bytes,
                          SpillFileMeta meta, bool owned, int64_t admit_seq);

  /// Sets the second-chance bit of `node`'s live entry after a load, if
  /// the entry is still live. Takes mu_.
  void MarkLoaded(const RGNode* node);

  /// Applies one manifest purge record to local state. Caller holds mu_.
  void ApplyPurgeLocked(const fleet::ManifestPurge& purge,
                        std::vector<const RGNode*>* dropped_nodes);

  void WorkerLoop();

  std::string FilePath(uint64_t name_hash);

  mutable std::mutex mu_;
  bool enabled_ = false;
  bool compress_ = true;
  bool shared_ = false;
  bool read_only_ = false;
  std::string instance_;
  int64_t lease_ms_ = 30000;
  std::string dir_;
  int64_t capacity_bytes_ = 0;
  int64_t used_bytes_ = 0;
  uint64_t next_file_id_ = 0;
  /// Clock order over OWNED entries (front = next sweep victim).
  std::list<Rec> clock_;
  /// Peer-owned entries (fleet mode): adoptable, never swept or deleted.
  std::list<Rec> peers_;
  std::unordered_map<const RGNode*, ClockIt> live_;
  std::unordered_map<std::string, ClockIt> by_key_;
  std::atomic<int64_t> num_orphans_{0};

  // --- fleet state (guarded by mu_) ------------------------------------
  /// Manifest seq/purge high-water marks already applied locally.
  int64_t last_seen_seq_ = 0;
  int64_t last_applied_purge_seq_ = 0;
  /// Our lease expiry as of the last manifest write (renew-ahead check).
  int64_t lease_expiry_ms_ = 0;
  /// Owned-entry set changed since the last manifest sync.
  bool manifest_dirty_ = false;
  /// Purges issued locally, to publish at the next manifest sync.
  std::vector<fleet::ManifestPurge> pending_purges_;

  // --- spill queue (guarded by mu_) ------------------------------------
  bool stop_worker_ = false;
  bool worker_busy_ = false;
  std::list<PendingSpill> pending_;
  std::unordered_map<const RGNode*, PendingIt> pending_by_node_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  std::thread worker_;

  std::function<void(const std::vector<const RGNode*>&)> drop_cb_;
  std::function<void(const RGNode*, int64_t, int64_t)> spilled_cb_;
};

}  // namespace recycledb
