#include "recycler/cache.h"

#include <algorithm>

#include "common/macros.h"

namespace recycledb {

RecyclerCache::RecyclerCache(int64_t capacity_bytes,
                             std::function<double(const RGNode*)> benefit_fn,
                             CachePolicy policy)
    : capacity_bytes_(capacity_bytes),
      benefit_fn_(std::move(benefit_fn)),
      policy_(policy) {
  RDB_CHECK(benefit_fn_ != nullptr);
}

int RecyclerCache::SizeGroup(int64_t size_bytes) {
  int g = 0;
  int64_t s = std::max<int64_t>(size_bytes, 1);
  while (s > 1) {
    s >>= 1;
    ++g;
  }
  return g;
}

int64_t RecyclerCache::num_entries() const {
  int64_t n = 0;
  for (const auto& [g, entries] : groups_) {
    n += static_cast<int64_t>(entries.size());
  }
  return n;
}

std::vector<RGNode*> RecyclerCache::Entries() const {
  std::vector<RGNode*> out;
  for (const auto& [g, entries] : groups_) {
    for (const auto& e : entries) out.push_back(e.node);
  }
  return out;
}

std::vector<std::pair<double, RGNode*>> RecyclerCache::ByBenefit(
    const std::vector<Entry>& entries) const {
  std::vector<std::pair<double, RGNode*>> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) out.emplace_back(benefit_fn_(e.node), e.node);
  std::sort(out.begin(), out.end(),
            [](const std::pair<double, RGNode*>& a,
               const std::pair<double, RGNode*>& b) {
              return a.first < b.first;
            });
  return out;
}

bool RecyclerCache::PlanEviction(double benefit, int64_t size_bytes,
                                 std::vector<RGNode*>* victims) const {
  int64_t free_bytes = unlimited()
                           ? size_bytes  // always enough
                           : capacity_bytes_ - used_bytes_;
  if (free_bytes >= size_bytes) return true;  // fits without eviction
  if (!unlimited() && size_bytes > capacity_bytes_) return false;

  if (policy_ == CachePolicy::kLru) {
    // Ablation: evict globally in LRU order until the result fits.
    std::vector<Entry> all;
    for (const auto& [g, entries] : groups_) {
      all.insert(all.end(), entries.begin(), entries.end());
    }
    std::sort(all.begin(), all.end(),
              [](const Entry& a, const Entry& b) {
                return a.lru_stamp < b.lru_stamp;
              });
    int64_t freed = 0;
    for (const auto& e : all) {
      if (free_bytes + freed >= size_bytes) break;
      victims->push_back(e.node);
      freed += e.node->cached_bytes.load();
    }
    return free_bytes + freed >= size_bytes;
  }

  if (policy_ == CachePolicy::kAdmitAll) {
    // Ablation: evict smallest-benefit entries globally, unconditionally.
    std::vector<Entry> all;
    for (const auto& [g, entries] : groups_) {
      all.insert(all.end(), entries.begin(), entries.end());
    }
    int64_t freed = 0;
    for (const auto& [b, node] : ByBenefit(all)) {
      if (free_bytes + freed >= size_bytes) break;
      victims->push_back(node);
      freed += node->cached_bytes.load();
    }
    return free_bytes + freed >= size_bytes;
  }

  // The paper's policy: only consider victims in the candidate's own
  // log2-size group, scanned in increasing benefit order, stopping when
  // the victims' average benefit exceeds the candidate's.
  auto git = groups_.find(SizeGroup(size_bytes));
  if (git == groups_.end()) return false;
  int64_t freed = 0;
  double benefit_sum = 0;
  int count = 0;
  for (const auto& [b, node] : ByBenefit(git->second)) {
    // (a) average benefit of the victim set must stay below the
    // candidate's benefit.
    if (count > 0 && (benefit_sum + b) / (count + 1) >= benefit) break;
    if (count == 0 && b >= benefit) break;
    victims->push_back(node);
    benefit_sum += b;
    ++count;
    freed += node->cached_bytes.load();
    // (b) victims together large enough.
    if (free_bytes + freed >= size_bytes) return true;
  }
  return false;
}

bool RecyclerCache::WouldAdmit(double benefit, int64_t size_bytes) const {
  std::vector<RGNode*> victims;
  return PlanEviction(benefit, size_bytes, &victims);
}

bool RecyclerCache::Admit(RGNode* node, double benefit,
                          std::vector<RGNode*>* evicted) {
  const int64_t size = node->cached_bytes.load();
  RDB_CHECK(size > 0);
  std::vector<RGNode*> victims;
  if (!PlanEviction(benefit, size, &victims)) return false;
  for (RGNode* v : victims) {
    EvictOne(v);
    evicted->push_back(v);
  }
  groups_[SizeGroup(size)].push_back({node, ++lru_counter_});
  used_bytes_ += size;
  return true;
}

void RecyclerCache::EvictOne(RGNode* node) {
  const int64_t size = node->cached_bytes.load();
  auto git = groups_.find(SizeGroup(size));
  RDB_CHECK(git != groups_.end());
  auto& entries = git->second;
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it->node == node) {
      used_bytes_ -= size;
      entries.erase(it);
      return;
    }
  }
  RDB_UNREACHABLE("evicting node not present in its size group");
}

void RecyclerCache::Remove(RGNode* node) {
  const int64_t size = node->cached_bytes.load();
  auto git = groups_.find(SizeGroup(size));
  if (git == groups_.end()) return;
  auto& entries = git->second;
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it->node == node) {
      used_bytes_ -= size;
      entries.erase(it);
      return;
    }
  }
}

void RecyclerCache::Flush(std::vector<RGNode*>* evicted) {
  for (auto& [g, entries] : groups_) {
    for (const auto& e : entries) evicted->push_back(e.node);
  }
  groups_.clear();
  used_bytes_ = 0;
}

void RecyclerCache::TouchForLru(RGNode* node) {
  for (auto& [g, entries] : groups_) {
    for (auto& e : entries) {
      if (e.node == node) {
        e.lru_stamp = ++lru_counter_;
        return;
      }
    }
  }
}

}  // namespace recycledb
