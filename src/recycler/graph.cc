#include "recycler/graph.h"

#include <algorithm>
#include <cmath>

namespace recycledb {

double RecyclerGraph::AgedH(const RGNode* node) const {
  double h = node->h.load(std::memory_order_relaxed);
  if (aging_alpha_ >= 1.0) return h;
  int64_t delta =
      epoch_.load() - node->h_epoch.load(std::memory_order_relaxed);
  if (delta <= 0) return h;
  return h * std::pow(aging_alpha_, static_cast<double>(delta));
}

void RecyclerGraph::FoldAging(RGNode* node) {
  if (aging_alpha_ >= 1.0) return;
  int64_t now = epoch_.load();
  int64_t stamp = node->h_epoch.load(std::memory_order_relaxed);
  // Elect one folder per epoch advance via CAS on the stamp; losers see
  // the refreshed stamp and stop.
  while (stamp < now) {
    if (node->h_epoch.compare_exchange_weak(stamp, now,
                                            std::memory_order_relaxed)) {
      AtomicScale(node->h,
                  std::pow(aging_alpha_, static_cast<double>(now - stamp)));
      return;
    }
  }
}

std::vector<RGNode*> RecyclerGraph::LeafCandidates(const std::string& leaf_key,
                                                   uint64_t hash_key) const {
  std::vector<RGNode*> out;
  auto range = leaf_index_.equal_range(leaf_key);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second->hash_key == hash_key) out.push_back(it->second);
  }
  return out;
}

RGNode* RecyclerGraph::AddNode(std::unique_ptr<RGNode> node) {
  RGNode* raw = node.get();
  raw->last_access_epoch = epoch_.load();
  raw->shape = &shapes_[{raw->type, raw->hash_key}];
  raw->shape->instances.fetch_add(1);
  ++raw->shape->live;
  nodes_.push_back(std::move(node));
  num_nodes_.fetch_add(1);
  if (raw->children.empty()) {
    leaf_index_.emplace(raw->leaf_key, raw);
  } else {
    for (RGNode* child : raw->children) {
      child->parents.emplace(raw->hash_key, raw);
    }
  }
  return raw;
}

int64_t RecyclerGraph::Truncate(int64_t idle_epochs) {
  const int64_t cutoff = epoch_.load() - idle_epochs;
  int64_t removed_total = 0;
  // Iterate to a fixpoint: removing a stale parent may expose a stale
  // child (subtrees disappear top-down; shared prefixes that still have
  // fresh parents survive).
  for (;;) {
    std::vector<RGNode*> victims;
    for (const auto& n : nodes_) {
      if (n->last_access_epoch.load() > cutoff) continue;
      if (n->mat_state.load() != MatState::kNone) continue;
      if (!n->parents.empty()) continue;
      victims.push_back(n.get());
    }
    if (victims.empty()) break;
    for (RGNode* v : victims) {
      // Unlink from children's parent indexes.
      for (RGNode* child : v->children) {
        auto range = child->parents.equal_range(v->hash_key);
        for (auto it = range.first; it != range.second;) {
          it = it->second == v ? child->parents.erase(it) : std::next(it);
        }
      }
      // Drop dangling subsumption edges pointing at the victim.
      for (const auto& n : nodes_) {
        auto& subs = n->subsumes;
        subs.erase(std::remove(subs.begin(), subs.end(), v), subs.end());
      }
      // Unregister from the leaf index.
      if (v->children.empty()) {
        auto range = leaf_index_.equal_range(v->leaf_key);
        for (auto it = range.first; it != range.second;) {
          it = it->second == v ? leaf_index_.erase(it) : std::next(it);
        }
      }
      // Free the node itself, and its shape tally if it was the last
      // node of its shape.
      if (--v->shape->live == 0) shapes_.erase({v->type, v->hash_key});
      for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
        if (it->get() == v) {
          nodes_.erase(it);
          num_nodes_.fetch_sub(1);
          break;
        }
      }
      ++removed_total;
    }
  }
  return removed_total;
}

GraphStats RecyclerGraph::Stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GraphStats s;
  s.num_nodes = static_cast<int64_t>(nodes_.size());
  for (const auto& n : nodes_) {
    if (n->children.empty()) ++s.num_leaves;
    MatState ms = n->mat_state.load();
    if (ms == MatState::kCached) {
      ++s.num_cached;
      s.cached_bytes += n->cached_bytes.load();
    } else if (ms == MatState::kCold) {
      ++s.num_cold;
    }
  }
  return s;
}

}  // namespace recycledb
