#include "recycler/cold_tier.h"

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <system_error>
#include <unordered_set>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "fleet/lock_file.h"

namespace fs = std::filesystem;

namespace recycledb {

namespace {

/// File name relative to the spill directory (manifest entries must be
/// path-independent: the directory may be mounted differently per
/// process).
std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Status ColdTier::ValidateSpillDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s cannot be created: %s", dir.c_str(),
                  ec.message().c_str()));
  }
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s is not a directory", dir.c_str()));
  }
  const std::string probe = dir + "/.rdb-probe";
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s is not writable", dir.c_str()));
  }
  std::fclose(f);
  std::remove(probe.c_str());
  return Status::OK();
}

Status ColdTier::ValidateSpillDirReadable(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s does not exist or is not a directory "
                  "(read-only adoption mode never creates it)",
                  dir.c_str()));
  }
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s is not readable: %s", dir.c_str(),
                  ec.message().c_str()));
  }
  return Status::OK();
}

ColdTier::~ColdTier() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_worker_ = true;
    work_cv_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
  if (enabled_ && shared_ && !read_only_) {
    // Graceful shutdown: publish our entries one last time and drop our
    // owner record. A missing owner record reads as an expired lease,
    // so the next opener (any instance id) can reclaim the files.
    std::lock_guard<std::mutex> lock(mu_);
    SyncManifestLocked();
    fleet::DirLock dlock;
    if (fleet::DirLock::Acquire(fleet::ManifestLockPath(dir_), &dlock).ok()) {
      fleet::Manifest m;
      if (fleet::ReadManifestFile(fleet::ManifestPath(dir_), &m).ok()) {
        for (auto it = m.owners.begin(); it != m.owners.end();) {
          it = it->id == instance_ ? m.owners.erase(it) : std::next(it);
        }
        ++m.seq;
        fleet::WriteManifestFile(fleet::ManifestPath(dir_), m).ok();
      }
    }
  }
}

Status ColdTier::Open(const std::string& dir, int64_t capacity_bytes) {
  ColdTierOptions options;
  options.dir = dir;
  options.capacity_bytes = capacity_bytes;
  return Open(options);
}

Status ColdTier::Open(const ColdTierOptions& options) {
  if (options.dir.empty()) return Status::OK();
  if (options.read_only) {
    RDB_RETURN_NOT_OK(ValidateSpillDirReadable(options.dir));
  } else {
    RDB_RETURN_NOT_OK(ValidateSpillDir(options.dir));
  }
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = options.dir;
  capacity_bytes_ = options.capacity_bytes;
  shared_ = options.shared;
  read_only_ = options.read_only;
  instance_ = options.instance_id;
  lease_ms_ = options.lease_ms;
  if (shared_ && !read_only_ && instance_.empty()) {
    return Status::InvalidArgument(
        "shared cold tier requires a non-empty instance id");
  }

  // Shared mode: the manifest decides which scanned files are claimable
  // versus peer-owned. A corrupt / truncated / version-skewed manifest
  // degrades to the empty manifest — every file is then claimable from
  // the directory re-scan, and the next sync rewrites a fresh manifest.
  fleet::Manifest manifest;
  bool have_manifest = false;
  if (shared_) {
    have_manifest =
        fleet::ReadManifestFile(fleet::ManifestPath(dir_), &manifest).ok();
  }
  const int64_t now_ms = fleet::UnixMillisNow();
  std::unordered_map<std::string, const fleet::ManifestEntry*> by_file;
  for (const fleet::ManifestEntry& e : manifest.entries) {
    by_file[e.file] = &e;
  }

  // Scan: drop torn writes, keep readable spill files as orphans. A
  // duplicate canonical key keeps the later-scanned file when both are
  // ours (both images are equivalent; results are immutable) and the
  // owned file when ownership differs.
  std::error_code ec;
  std::vector<fs::path> to_delete;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const fs::path& p = entry.path();
    if (p.extension() == ".tmp") {
      if (!read_only_) to_delete.push_back(p);
      continue;
    }
    if (p.extension() != ".spill") continue;
    SpillFileMeta meta;
    if (!ReadSpillMeta(p.string(), &meta).ok()) {
      if (!read_only_) to_delete.push_back(p);  // unreadable: never adoptable
      continue;
    }
    std::error_code size_ec;
    int64_t bytes = static_cast<int64_t>(fs::file_size(p, size_ec));
    if (size_ec) {
      if (!read_only_) to_delete.push_back(p);
      continue;
    }
    // Ownership: private tiers own everything they scan. In shared mode
    // a file listed under a live peer lease is that peer's; everything
    // else (unlisted, unowned, ours from a prior incarnation, or a dead
    // owner's) is claimed — except in read-only mode, where every file
    // is a peer's.
    bool owned = true;
    int64_t admit_seq = manifest.seq;
    if (shared_) {
      auto mit = by_file.find(Basename(p.string()));
      if (mit != by_file.end()) {
        admit_seq = mit->second->admit_seq;
        owned = mit->second->owner == instance_ ||
                !manifest.OwnerLive(mit->second->owner, now_ms);
      }
      if (read_only_) owned = false;
    }
    auto dup = by_key_.find(meta.canon_key);
    if (dup != by_key_.end()) {
      // Duplicate canonical key. A peer copy never displaces what we
      // already track; an owned copy displaces anything (newest-wins
      // among our own files — the images are equivalent — and a local
      // image beats a peer's). Displaced peer copies are only untracked;
      // their file is not ours to delete.
      if (!owned) continue;
      if (dup->second->owned) {
        to_delete.push_back(dup->second->path);
        used_bytes_ -= dup->second->bytes;
        clock_.erase(dup->second);
      } else {
        peers_.erase(dup->second);
      }
      by_key_.erase(dup);
      num_orphans_.fetch_sub(1, std::memory_order_relaxed);
    }
    AddOrphanLocked(p.string(), bytes, std::move(meta), owned, admit_seq);
    // File counter must clear existing names so a fresh spill never
    // collides with (and silently overwrites) a recovered file.
    ++next_file_id_;
  }
  if (!read_only_) {
    for (const fs::path& p : to_delete) fs::remove(p, ec);
  }

  // Purge records published before this open retire files whose owner
  // crashed between invalidating and deleting them.
  if (have_manifest) {
    std::vector<const RGNode*> dropped;
    for (const fleet::ManifestPurge& p : manifest.purges) {
      ApplyPurgeLocked(p, &dropped);
      last_applied_purge_seq_ = std::max(last_applied_purge_seq_, p.seq);
    }
    RDB_CHECK(dropped.empty());  // nothing is live yet
    last_seen_seq_ = manifest.seq;
  }

  // An over-cap directory (cap lowered across restarts) is trimmed
  // immediately, oldest-scanned first.
  std::vector<const RGNode*> dropped;
  SweepToFit(0, &dropped);
  RDB_CHECK(dropped.empty());  // nothing is live yet

  enabled_ = true;
  if (shared_ && !read_only_) SyncManifestLocked();
  if (!read_only_) worker_ = std::thread([this] { WorkerLoop(); });
  return Status::OK();
}

ColdTier::ClockIt ColdTier::AddOrphanLocked(const std::string& path,
                                            int64_t bytes, SpillFileMeta meta,
                                            bool owned, int64_t admit_seq) {
  Rec rec;
  rec.path = path;
  rec.canon_key = meta.canon_key;
  rec.bytes = bytes;
  rec.second_chance = true;  // recovered entries get one grace round
  rec.owned = owned;
  rec.admit_seq = admit_seq;
  rec.meta = std::move(meta);
  std::list<Rec>& list = owned ? clock_ : peers_;
  list.push_back(std::move(rec));
  ClockIt it = std::prev(list.end());
  by_key_[it->canon_key] = it;
  if (owned) used_bytes_ += bytes;
  num_orphans_.fetch_add(1, std::memory_order_relaxed);
  return it;
}

std::string ColdTier::FilePath(uint64_t name_hash) {
  const uint64_t id = next_file_id_++;
  if (shared_) {
    // The writer's instance id keeps concurrent processes from ever
    // racing on one file name.
    return StrFormat("%s/r%016llx-%s-%llu.spill", dir_.c_str(),
                     static_cast<unsigned long long>(name_hash),
                     instance_.c_str(), static_cast<unsigned long long>(id));
  }
  return StrFormat("%s/r%016llx-%llu.spill", dir_.c_str(),
                   static_cast<unsigned long long>(name_hash),
                   static_cast<unsigned long long>(id));
}

bool ColdTier::Has(const RGNode* node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.count(node) > 0 || pending_by_node_.count(node) > 0;
}

bool ColdTier::EntrySizes(const RGNode* node, int64_t* stored_bytes,
                          int64_t* raw_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(node);
  if (it == live_.end()) return false;
  *stored_bytes = it->second->bytes;
  *raw_bytes = it->second->meta.raw_bytes;
  return true;
}

void ColdTier::EvictRec(ClockIt it, std::vector<const RGNode*>* dropped_nodes) {
  if (it->node != nullptr) {
    live_.erase(it->node);
    if (dropped_nodes != nullptr) dropped_nodes->push_back(it->node);
  } else {
    num_orphans_.fetch_sub(1, std::memory_order_relaxed);
  }
  auto key_it = by_key_.find(it->canon_key);
  if (key_it != by_key_.end() && key_it->second == it) by_key_.erase(key_it);
  if (it->owned) {
    used_bytes_ -= it->bytes;
    std::remove(it->path.c_str());
    manifest_dirty_ = shared_;
    clock_.erase(it);
  } else {
    // A peer's entry: forget it locally, the owner keeps the file.
    peers_.erase(it);
  }
}

bool ColdTier::SweepToFit(int64_t need_bytes,
                          std::vector<const RGNode*>* dropped_nodes) {
  // Second chance over owned entries only (peer files neither count
  // against the cap nor may be deleted here): referenced entries get
  // their bit cleared and one more round at the back; each entry is
  // re-queued at most once per sweep, so the loop terminates.
  size_t requeues_left = clock_.size();
  while (used_bytes_ + need_bytes > capacity_bytes_ && !clock_.empty()) {
    ClockIt front = clock_.begin();
    if (front->second_chance && requeues_left > 0) {
      front->second_chance = false;
      --requeues_left;
      clock_.splice(clock_.end(), clock_, front);  // iterators stay valid
      continue;
    }
    EvictRec(front, dropped_nodes);
  }
  return used_bytes_ + need_bytes <= capacity_bytes_;
}

bool ColdTier::CommitSpillLocked(const RGNode* node,
                                 const std::string& canon_key,
                                 const std::string& path, int64_t bytes,
                                 SpillFileMeta stored,
                                 std::vector<const RGNode*>* dropped_nodes) {
  if (bytes > capacity_bytes_) {
    std::remove(path.c_str());
    return false;
  }
  auto dup = by_key_.find(canon_key);
  if (dup != by_key_.end()) EvictRec(dup->second, dropped_nodes);
  if (!SweepToFit(bytes, dropped_nodes)) {
    std::remove(path.c_str());
    return false;
  }
  Rec rec;
  rec.path = path;
  rec.canon_key = canon_key;
  rec.bytes = bytes;
  rec.second_chance = false;  // earns its bit on first cold hit
  rec.owned = true;
  rec.admit_seq = 0;  // assigned at the next manifest sync
  rec.node = node;
  rec.meta = std::move(stored);
  clock_.push_back(std::move(rec));
  ClockIt it = std::prev(clock_.end());
  live_[node] = it;
  by_key_[it->canon_key] = it;
  used_bytes_ += bytes;
  manifest_dirty_ = shared_;
  return true;
}

bool ColdTier::SpillAsync(const RGNode* node, const std::string& canon_key,
                          TablePtr snapshot, const SpillFileMeta& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_ || read_only_) return false;
  if (live_.count(node) > 0 || pending_by_node_.count(node) > 0) return true;
  if (snapshot == nullptr) return false;
  if (snapshot->ByteSize() > capacity_bytes_) return false;  // can never fit
  PendingSpill ps;
  ps.node = node;
  ps.canon_key = canon_key;
  ps.snapshot = std::move(snapshot);
  ps.meta = meta;
  pending_.push_back(std::move(ps));
  pending_by_node_[node] = std::prev(pending_.end());
  work_cv_.notify_one();
  return true;
}

void ColdTier::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_worker_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_worker_) return;
      continue;
    }
    worker_busy_ = true;
    // Move the front job to a local list: it leaves the queue but its
    // iterator (held by pending_by_node_) stays valid, so loads keep
    // serving the snapshot and Remove/purge can still cancel it.
    std::list<PendingSpill> inflight;
    inflight.splice(inflight.begin(), pending_, pending_.begin());
    PendingSpill& ps = inflight.front();
    const RGNode* node = ps.node;
    const std::string path = FilePath(HashString(ps.canon_key));
    const bool compress = compress_;
    SpillFileMeta stored = ps.meta;
    TablePtr snapshot = ps.snapshot;

    lock.unlock();
    // The in-memory copy carries the writer-computed raw_bytes
    // (compression-ratio accounting).
    const bool wrote =
        WriteSpillFile(path, *snapshot, stored, compress, &stored.raw_bytes)
            .ok();
    std::error_code ec;
    int64_t bytes = wrote ? static_cast<int64_t>(fs::file_size(path, ec)) : 0;
    if (wrote && ec) bytes = snapshot->ByteSize();
    lock.lock();

    std::vector<const RGNode*> dropped;
    bool committed = false;
    int64_t cb_stored = 0, cb_raw = 0;
    const bool canceled = ps.canceled;
    {
      auto pit = pending_by_node_.find(node);
      if (pit != pending_by_node_.end() && &*pit->second == &ps) {
        pending_by_node_.erase(pit);
      }
    }
    if (!wrote) {
      if (!canceled) dropped.push_back(node);
    } else if (canceled) {
      std::remove(path.c_str());
    } else {
      committed =
          CommitSpillLocked(node, ps.canon_key, path, bytes, stored, &dropped);
      if (committed) {
        cb_stored = bytes;
        cb_raw = stored.raw_bytes;
      } else {
        dropped.push_back(node);
      }
    }
    if (manifest_dirty_) SyncManifestLocked();
    inflight.clear();

    // Callbacks run with no cold-tier lock held: the drop callback
    // takes the recycler's graph/cache locks to demote.
    lock.unlock();
    if (committed && spilled_cb_) spilled_cb_(node, cb_stored, cb_raw);
    if (!dropped.empty() && drop_cb_) drop_cb_(dropped);
    lock.lock();
    worker_busy_ = false;
    if (pending_.empty()) drain_cv_.notify_all();
  }
}

void ColdTier::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return pending_.empty() && !worker_busy_; });
}

Status ColdTier::Load(const RGNode* node, TablePtr* out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = live_.find(node);
  if (it == live_.end()) {
    auto pit = pending_by_node_.find(node);
    if (pit != pending_by_node_.end()) {
      // Spill still in flight: serve the pinned snapshot directly (the
      // write commits later; there is no miss window).
      *out = pit->second->snapshot;
      return Status::OK();
    }
    return Status::NotFound("no live cold-tier entry for node");
  }
  SpillFile file;
  if (Status st = OpenSpillFile(it->second->path, &file); !st.ok()) {
    // A live entry whose file is gone (removed outside the tier) is dead,
    // not swept: report it like a corrupt file so the caller drops it.
    return Status::Internal(st.message());
  }
  const std::string path = it->second->path;
  lock.unlock();
  SpillFileMeta meta;
  RDB_RETURN_NOT_OK(ReadSpillTable(std::move(file), path, &meta, out));
  MarkLoaded(node);
  return Status::OK();
}

Status ColdTier::LoadSlice(const RGNode* node, int filter_column,
                           const ColumnInterval& range, TablePtr* out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = live_.find(node);
  if (it == live_.end()) {
    if (pending_by_node_.count(node) > 0) {
      // Pending async spill: no encoded image to filter yet; the caller
      // falls back to the full in-memory snapshot.
      return Status::InvalidArgument("spill pending, no encoded image");
    }
    return Status::NotFound("no live cold-tier entry for node");
  }
  SpillFile file;
  RDB_RETURN_NOT_OK(OpenSpillFile(it->second->path, &file));
  const std::string path = it->second->path;
  lock.unlock();
  SpillFileMeta meta;
  RDB_RETURN_NOT_OK(ReadSpillTableFiltered(std::move(file), path, &meta,
                                           filter_column, range, out));
  MarkLoaded(node);
  return Status::OK();
}

void ColdTier::MarkLoaded(const RGNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(node);
  if (it != live_.end()) it->second->second_chance = true;
}

bool ColdTier::AdoptOrphan(const std::string& canon_key, const RGNode* node,
                           SpillFileMeta* meta, int64_t* bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(canon_key);
  if (it == by_key_.end() || it->second->node != nullptr) return false;
  it->second->node = node;
  live_[node] = it->second;
  num_orphans_.fetch_sub(1, std::memory_order_relaxed);
  *meta = it->second->meta;
  *bytes = it->second->bytes;
  return true;
}

void ColdTier::Remove(const RGNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto pit = pending_by_node_.find(node);
  if (pit != pending_by_node_.end()) {
    // Cancel the queued/in-flight spill; the worker discards the file
    // if the write already started.
    PendingIt ps = pit->second;
    ps->canceled = true;
    pending_by_node_.erase(pit);
    for (auto qit = pending_.begin(); qit != pending_.end(); ++qit) {
      if (&*qit == &*ps) {
        pending_.erase(qit);
        if (pending_.empty()) drain_cv_.notify_all();
        break;
      }
    }
  }
  auto it = live_.find(node);
  if (it == live_.end()) return;
  EvictRec(it->second, /*dropped_nodes=*/nullptr);
  if (manifest_dirty_) SyncManifestLocked();
}

void ColdTier::ApplyPurgeLocked(const fleet::ManifestPurge& purge,
                                std::vector<const RGNode*>* dropped_nodes) {
  auto matches = [&purge](const Rec& r) {
    if (r.admit_seq > purge.seq) return false;  // postdates the purge
    if (purge.unversioned_only &&
        (r.node != nullptr || !r.meta.table_versions.empty())) {
      return false;  // live: the recycler judges it; stamped: adoptable
    }
    for (const std::string& t : r.meta.base_tables) {
      if (t == purge.table) return true;
    }
    return false;
  };
  for (std::list<Rec>* list : {&clock_, &peers_}) {
    for (auto it = list->begin(); it != list->end();) {
      ClockIt cur = it++;
      if (matches(*cur)) EvictRec(cur, dropped_nodes);
    }
  }
  // Pending async spills over the table are stale the same way; cancel
  // them so they never commit (full purges only: pending spills belong
  // to live nodes, which the unversioned-only variant spares).
  if (!purge.unversioned_only) {
    for (auto pit = pending_by_node_.begin(); pit != pending_by_node_.end();) {
      PendingSpill& ps = *pit->second;
      bool hit = false;
      for (const std::string& t : ps.meta.base_tables) {
        hit |= t == purge.table;
      }
      if (!hit) {
        ++pit;
        continue;
      }
      if (dropped_nodes != nullptr) dropped_nodes->push_back(ps.node);
      ps.canceled = true;
      for (auto qit = pending_.begin(); qit != pending_.end(); ++qit) {
        if (&*qit == &ps) {
          pending_.erase(qit);
          if (pending_.empty()) drain_cv_.notify_all();
          break;
        }
      }
      pit = pending_by_node_.erase(pit);
    }
  }
}

void ColdTier::PurgeTable(const std::string& table,
                          std::vector<const RGNode*>* dropped_nodes) {
  std::lock_guard<std::mutex> lock(mu_);
  fleet::ManifestPurge purge;
  purge.table = table;
  purge.seq = std::numeric_limits<int64_t>::max();  // everything local
  purge.unversioned_only = false;
  ApplyPurgeLocked(purge, dropped_nodes);
  if (shared_ && !read_only_) {
    pending_purges_.push_back(fleet::ManifestPurge{table, 0, false});
    SyncManifestLocked();
  }
}

void ColdTier::PurgeUnversionedOrphans(
    const std::string& table, std::vector<const RGNode*>* dropped_nodes) {
  std::lock_guard<std::mutex> lock(mu_);
  fleet::ManifestPurge purge;
  purge.table = table;
  purge.seq = std::numeric_limits<int64_t>::max();
  purge.unversioned_only = true;
  ApplyPurgeLocked(purge, dropped_nodes);
  if (shared_ && !read_only_) {
    pending_purges_.push_back(fleet::ManifestPurge{table, 0, true});
    SyncManifestLocked();
  }
}

void ColdTier::SyncManifestLocked() {
  if (!shared_ || read_only_ || dir_.empty()) return;
  fleet::DirLock dlock;
  if (!fleet::DirLock::Acquire(fleet::ManifestLockPath(dir_), &dlock).ok()) {
    return;  // degrade: retried at the next mutation/refresh
  }
  fleet::Manifest m;
  fleet::ReadManifestFile(fleet::ManifestPath(dir_), &m).ok();
  m.seq = std::max(m.seq, last_seen_seq_) + 1;
  const int64_t now_ms = fleet::UnixMillisNow();

  // Renew our lease.
  fleet::ManifestOwner* self = m.FindOwner(instance_);
  if (self == nullptr) {
    m.owners.push_back(fleet::ManifestOwner{instance_, 0});
    self = &m.owners.back();
  }
  self->lease_expiry_ms = now_ms + lease_ms_;

  // Republish the owned entry set; keep peers' records. A record naming
  // one of OUR files under a different live owner means we lost a claim
  // race (or our lease expired and the file was taken over): forfeit it
  // locally rather than fight over deletion rights.
  std::unordered_map<std::string, ClockIt> ours;
  for (auto it = clock_.begin(); it != clock_.end(); ++it) {
    ours[Basename(it->path)] = it;
  }
  std::vector<ClockIt> forfeited;
  std::vector<fleet::ManifestEntry> entries;
  std::error_code ec;
  for (fleet::ManifestEntry& e : m.entries) {
    if (e.owner == instance_) continue;  // rebuilt below
    auto oit = ours.find(e.file);
    if (oit != ours.end()) {
      if (m.OwnerLive(e.owner, now_ms)) {
        forfeited.push_back(oit->second);
        ours.erase(oit);
        entries.push_back(std::move(e));
      }
      continue;  // dead owner's record for a file we claimed
    }
    // Prune garbage: a dead owner's record whose file is gone.
    if (!m.OwnerLive(e.owner, now_ms) &&
        !fs::exists(dir_ + "/" + e.file, ec)) {
      continue;
    }
    entries.push_back(std::move(e));
  }
  for (auto& [file, it] : ours) {
    if (it->admit_seq == 0) it->admit_seq = m.seq;
    entries.push_back(
        fleet::ManifestEntry{it->canon_key, file, instance_, it->admit_seq});
  }
  m.entries = std::move(entries);
  for (fleet::ManifestPurge& p : pending_purges_) {
    m.AddPurge(p.table, p.unversioned_only);
  }
  pending_purges_.clear();

  if (fleet::WriteManifestFile(fleet::ManifestPath(dir_), m).ok()) {
    manifest_dirty_ = false;
    last_seen_seq_ = m.seq;
    last_applied_purge_seq_ = std::max(last_applied_purge_seq_, m.seq);
    lease_expiry_ms_ = self->lease_expiry_ms;
  }

  for (ClockIt it : forfeited) {
    used_bytes_ -= it->bytes;
    it->owned = false;
    it->second_chance = true;
    peers_.splice(peers_.end(), clock_, it);
  }
}

Status ColdTier::RefreshPeers(std::vector<const RGNode*>* dropped_nodes,
                              int64_t* new_peer_entries,
                              int64_t* lease_takeovers) {
  if (new_peer_entries != nullptr) *new_peer_entries = 0;
  if (lease_takeovers != nullptr) *lease_takeovers = 0;
  std::string manifest_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_ || !shared_) return Status::OK();
    manifest_path = fleet::ManifestPath(dir_);
  }
  // Lock-free read: rename atomicity + the checksum make a concurrent
  // writer harmless (we see the old or the new manifest, never a torn
  // one; a torn read fails parse and is retried next refresh).
  fleet::Manifest m;
  Status read_st = fleet::ReadManifestFile(manifest_path, &m);

  std::lock_guard<std::mutex> lock(mu_);
  if (!read_st.ok()) {
    // Missing or torn manifest: nothing to apply. A writable instance
    // rewrites it from its own state, which is also the corruption
    // recovery path (peers republish theirs on their next sync).
    if (!read_only_ && read_st.code() != StatusCode::kNotFound) {
      SyncManifestLocked();
    }
    return Status::OK();
  }
  const int64_t now_ms = fleet::UnixMillisNow();

  if (m.seq != last_seen_seq_) {
    // (a) Purges published since the last refresh.
    for (const fleet::ManifestPurge& p : m.purges) {
      if (p.seq <= last_applied_purge_seq_) continue;
      ApplyPurgeLocked(p, dropped_nodes);
      last_applied_purge_seq_ = std::max(last_applied_purge_seq_, p.seq);
    }

    std::unordered_set<std::string> manifest_files;
    for (const fleet::ManifestEntry& e : m.entries) {
      manifest_files.insert(e.file);
    }

    // (b)/(d) New entries: live peers' spills become adoptable peer
    // orphans; a dead owner's entries are claimed (stale-lease
    // takeover) unless we are read-only.
    for (const fleet::ManifestEntry& e : m.entries) {
      if (e.owner == instance_) continue;
      auto known = by_key_.find(e.canon_key);
      if (known != by_key_.end()) {
        // Already tracked as a peer entry, but the owner's lease has
        // since lapsed: claim the file in place. Deletion rights pass
        // to us, and the entry starts counting against our budget.
        ClockIt rec = known->second;
        if (!rec->owned && !read_only_ && !m.OwnerLive(e.owner, now_ms)) {
          used_bytes_ += rec->bytes;
          rec->owned = true;
          clock_.splice(clock_.end(), peers_, rec);
          manifest_dirty_ = true;
          if (lease_takeovers != nullptr) ++(*lease_takeovers);
        }
        continue;
      }
      const std::string path = dir_ + "/" + e.file;
      SpillFileMeta meta;
      if (!ReadSpillMeta(path, &meta).ok()) continue;  // torn/deleted: skip
      std::error_code size_ec;
      int64_t bytes = static_cast<int64_t>(fs::file_size(path, size_ec));
      if (size_ec) continue;
      const bool peer_live = m.OwnerLive(e.owner, now_ms);
      if (peer_live || read_only_) {
        AddOrphanLocked(path, bytes, std::move(meta), /*owned=*/false,
                        e.admit_seq);
        if (new_peer_entries != nullptr) ++(*new_peer_entries);
      } else {
        AddOrphanLocked(path, bytes, std::move(meta), /*owned=*/true,
                        e.admit_seq);
        manifest_dirty_ = true;
        if (lease_takeovers != nullptr) ++(*lease_takeovers);
      }
    }

    // (c) Peer entries their owner retired (evicted/purged): drop our
    // tracking before a load trips over the missing file. Our own
    // un-synced spills are not in the manifest yet — only judge peers.
    for (auto it = peers_.begin(); it != peers_.end();) {
      ClockIt cur = it++;
      if (manifest_files.count(Basename(cur->path)) == 0) {
        EvictRec(cur, dropped_nodes);
      }
    }

    // Forfeit owned entries a live peer took over after our lease
    // lapsed (deletion rights must never be shared; see
    // SyncManifestLocked for the write-side handling).
    for (const fleet::ManifestEntry& e : m.entries) {
      if (e.owner == instance_ || !m.OwnerLive(e.owner, now_ms)) continue;
      for (auto it = clock_.begin(); it != clock_.end(); ++it) {
        if (Basename(it->path) != e.file) continue;
        used_bytes_ -= it->bytes;
        it->owned = false;
        peers_.splice(peers_.end(), clock_, it);
        break;
      }
    }
    last_seen_seq_ = m.seq;
  }

  if (!read_only_ &&
      (manifest_dirty_ || now_ms + lease_ms_ / 2 > lease_expiry_ms_)) {
    SyncManifestLocked();
  }
  return Status::OK();
}

ColdTierStats ColdTier::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ColdTierStats s;
  s.entries = static_cast<int64_t>(clock_.size() + peers_.size());
  s.orphans = num_orphans_.load(std::memory_order_relaxed);
  s.used_bytes = used_bytes_;
  s.capacity_bytes = capacity_bytes_;
  s.peer_entries = static_cast<int64_t>(peers_.size());
  s.pending_spills = static_cast<int64_t>(pending_.size());
  for (const std::list<Rec>* list : {&clock_, &peers_}) {
    for (const Rec& r : *list) s.raw_bytes += r.meta.raw_bytes;
  }
  return s;
}

}  // namespace recycledb
