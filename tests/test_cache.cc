// Tests for the recycler cache: Danzig-style group-local replacement,
// admission checks, flush/remove, and the ablation policies (§III-E).
#include <gtest/gtest.h>

#include <map>

#include "recycler/cache.h"

namespace recycledb {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  /// Creates a node with a cached table of roughly `bytes` bytes.
  RGNode* MakeNode(int64_t bytes, double benefit) {
    auto node = std::make_unique<RGNode>();
    node->id = next_id_++;
    TablePtr t = MakeTable(Schema({{"x", TypeId::kInt64}}));
    for (int64_t i = 0; i < bytes / 8; ++i) t->AppendRow({i});
    node->cached = t;
    node->cached_bytes = bytes;
    benefits_[node.get()] = benefit;
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
  }

  std::function<double(const RGNode*)> BenefitFn() {
    return [this](const RGNode* n) { return benefits_.at(n); };
  }

  std::map<const RGNode*, double> benefits_;
  std::vector<std::unique_ptr<RGNode>> nodes_;
  int64_t next_id_ = 1;
};

TEST_F(CacheTest, AdmitWhileSpaceAvailable) {
  RecyclerCache cache(10000, BenefitFn());
  std::vector<RGNode*> evicted;
  EXPECT_TRUE(cache.Admit(MakeNode(4000, 1.0), 1.0, &evicted));
  EXPECT_TRUE(cache.Admit(MakeNode(4000, 0.1), 0.1, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.used_bytes(), 8000);
  EXPECT_EQ(cache.num_entries(), 2);
}

TEST_F(CacheTest, RejectsResultLargerThanCapacity) {
  RecyclerCache cache(1000, BenefitFn());
  std::vector<RGNode*> evicted;
  EXPECT_FALSE(cache.Admit(MakeNode(5000, 100.0), 100.0, &evicted));
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST_F(CacheTest, ReplacementEvictsLowerBenefitInSameGroup) {
  RecyclerCache cache(10000, BenefitFn());
  std::vector<RGNode*> evicted;
  RGNode* weak = MakeNode(6000, 0.1);
  ASSERT_TRUE(cache.Admit(weak, 0.1, &evicted));
  // Same log2-size group (4096..8191), higher benefit: replaces.
  RGNode* strong = MakeNode(6000, 5.0);
  ASSERT_TRUE(cache.Admit(strong, 5.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], weak);
  EXPECT_EQ(cache.num_entries(), 1);
}

TEST_F(CacheTest, ReplacementRefusesWhenIncumbentsAreBetter) {
  RecyclerCache cache(10000, BenefitFn());
  std::vector<RGNode*> evicted;
  ASSERT_TRUE(cache.Admit(MakeNode(6000, 5.0), 5.0, &evicted));
  EXPECT_FALSE(cache.Admit(MakeNode(6000, 0.5), 0.5, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.num_entries(), 1);
}

TEST_F(CacheTest, PaperPolicyIsGroupLocal) {
  // The paper's replacement policy only scans the candidate's own
  // log2-size group: low-benefit entries in OTHER groups do not help.
  RecyclerCache cache(10000, BenefitFn());
  std::vector<RGNode*> evicted;
  ASSERT_TRUE(cache.Admit(MakeNode(900, 0.01), 0.01, &evicted));   // group 9
  ASSERT_TRUE(cache.Admit(MakeNode(8200, 0.02), 0.02, &evicted));  // group 13
  // Candidate of ~2000 bytes (group 10): its own group is empty, so the
  // 900-byte low-benefit entry in group 9 cannot be considered -> refuse.
  EXPECT_FALSE(cache.WouldAdmit(99.0, 2000));
  // A same-group candidate, however, can displace the group-9 entry
  // (frees 900 + 900 free bytes >= 990).
  EXPECT_TRUE(cache.WouldAdmit(99.0, 990));
}

TEST_F(CacheTest, AverageBenefitStopRule) {
  // Victims are accumulated only while their average benefit stays below
  // the candidate's. Full cache: both group-12 entries must be evicted to
  // fit the 6000-byte candidate.
  RecyclerCache cache(10000, BenefitFn());
  std::vector<RGNode*> evicted;
  ASSERT_TRUE(cache.Admit(MakeNode(5000, 1.0), 1.0, &evicted));
  ASSERT_TRUE(cache.Admit(MakeNode(5000, 10.0), 10.0, &evicted));
  // avg(1, 10) = 5.5 >= 5.0 -> the scan stops before enough is freed.
  EXPECT_FALSE(cache.WouldAdmit(5.0, 6000));
  // A candidate above the victims' average is admitted.
  EXPECT_TRUE(cache.WouldAdmit(6.0, 6000));
}

TEST_F(CacheTest, UnlimitedCacheAdmitsEverything) {
  RecyclerCache cache(-1, BenefitFn());
  std::vector<RGNode*> evicted;
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(cache.Admit(MakeNode(1 << 16, 0.001), 0.001, &evicted));
  }
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.num_entries(), 32);
}

TEST_F(CacheTest, RemoveAndFlush) {
  RecyclerCache cache(100000, BenefitFn());
  std::vector<RGNode*> evicted;
  RGNode* a = MakeNode(1000, 1.0);
  RGNode* b = MakeNode(1000, 2.0);
  ASSERT_TRUE(cache.Admit(a, 1.0, &evicted));
  ASSERT_TRUE(cache.Admit(b, 2.0, &evicted));
  cache.Remove(a);
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_EQ(cache.used_bytes(), 1000);
  cache.Remove(a);  // double remove is a no-op
  EXPECT_EQ(cache.num_entries(), 1);
  std::vector<RGNode*> flushed;
  cache.Flush(&flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], b);
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST_F(CacheTest, LruPolicyEvictsOldest) {
  RecyclerCache cache(10000, BenefitFn(), CachePolicy::kLru);
  std::vector<RGNode*> evicted;
  RGNode* oldest = MakeNode(4000, 100.0);  // high benefit but old
  RGNode* newer = MakeNode(4000, 0.1);
  ASSERT_TRUE(cache.Admit(oldest, 100.0, &evicted));
  ASSERT_TRUE(cache.Admit(newer, 0.1, &evicted));
  ASSERT_TRUE(cache.Admit(MakeNode(4000, 0.2), 0.2, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], oldest);  // LRU ignores benefit
}

TEST_F(CacheTest, LruTouchProtectsEntry) {
  RecyclerCache cache(10000, BenefitFn(), CachePolicy::kLru);
  std::vector<RGNode*> evicted;
  RGNode* a = MakeNode(4000, 1.0);
  RGNode* b = MakeNode(4000, 1.0);
  ASSERT_TRUE(cache.Admit(a, 1.0, &evicted));
  ASSERT_TRUE(cache.Admit(b, 1.0, &evicted));
  cache.TouchForLru(a);  // a becomes most recent
  ASSERT_TRUE(cache.Admit(MakeNode(4000, 1.0), 1.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], b);
}

TEST_F(CacheTest, EvictionPlanningReadsEachBenefitOnce) {
  // Benefits are atomics other streams update while one stream plans an
  // eviction. Model that with a benefit that changes on every read: the
  // planner must read each once and sort by those reads (re-reading them
  // inside std::sort's comparator is undefined behaviour and can run
  // past the range).
  constexpr int kEntries = 200;
  RecyclerCache cache(kEntries * 4000, BenefitFn());
  std::vector<RGNode*> evicted;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(cache.Admit(MakeNode(4000, 0.0), 0.0, &evicted));
  }
  uint64_t state = 42;
  int64_t reads = 0;
  RecyclerCache drifting(kEntries * 4000, [&](const RGNode*) {
    ++reads;
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  });
  for (RGNode* n : cache.Entries()) {
    ASSERT_TRUE(drifting.Admit(n, 0.0, &evicted));
  }
  ASSERT_EQ(reads, 0);  // admitted without eviction: no benefit read
  EXPECT_TRUE(drifting.Admit(MakeNode(4000, 2.0), 2.0, &evicted));
  EXPECT_EQ(reads, kEntries);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(drifting.num_entries(), kEntries);
}

TEST_F(CacheTest, AdmitAllPolicyEvictsAcrossGroups) {
  RecyclerCache cache(10000, BenefitFn(), CachePolicy::kAdmitAll);
  std::vector<RGNode*> evicted;
  ASSERT_TRUE(cache.Admit(MakeNode(900, 0.5), 0.5, &evicted));    // small group
  ASSERT_TRUE(cache.Admit(MakeNode(8200, 0.9), 0.9, &evicted));   // big group
  // 2000-byte candidate: admit-all evicts the globally worst entries
  // regardless of group.
  EXPECT_TRUE(cache.WouldAdmit(0.001, 2000));
}

}  // namespace
}  // namespace recycledb
