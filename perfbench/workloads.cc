#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "skyserver/skyserver.h"
#include "tpch/dbgen.h"
#include "tpch/qgen.h"
#include "tpch/queries.h"
#include "workload/rollup.h"

namespace perfbench {

using namespace recycledb;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// ---------------------------------------------------------------------------
// TPC-H: 4 throughput-test streams. SF 0.01 keeps one pass of 88
// statements around a quarter second on 4 cores, so a 10 s window holds
// thousands of latency samples (enough for a p99 with 10 beyond it).
// ---------------------------------------------------------------------------

constexpr double kTpchScale = 0.01;

class TpchSource : public Source {
 public:
  TpchSource(int client, uint64_t seed) : client_(client), rng_(seed) {}

  Statement Next() override {
    if (pos_ == stream_.size()) {
      stream_ = tpch::GenerateStream(client_, &rng_, kTpchScale);
      pos_ = 0;
    }
    const tpch::StreamQuery& q = stream_[pos_++];
    Statement s;
    s.kind = Statement::Kind::kPlan;
    s.plan = tpch::BuildQuery(q.query, q.params, kTpchScale);
    return s;
  }

 private:
  int client_;
  Rng rng_;
  std::vector<tpch::StreamQuery> stream_;
  size_t pos_ = 0;
};

std::unique_ptr<Workload> MakeTpch(std::string name, RecyclerMode mode,
                                   uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = std::move(name);
  w->options.recycler.mode = mode;
  // Large enough that the whole working set fits (evictions stay 0).
  w->options.recycler.cache_bytes = 1ll << 30;
  uint64_t data_seed = MixSeed(seed, 11);
  w->setup = [data_seed](Database* db) {
    tpch::Generate(kTpchScale, &db->catalog(), data_seed);
  };
  w->source = [](int client, uint64_t s) -> std::unique_ptr<Source> {
    return std::make_unique<TpchSource>(client, s);
  };
  w->warmup_statements = tpch::kNumQueries;
  w->check_statements = 4 * tpch::kNumQueries;
  return w;
}

// ---------------------------------------------------------------------------
// SkyServer exploration: prepared cone searches (dominant exact repeats
// plus nearest-neighbour variants over a small pool of centres) mixed
// with an overlapping RA sweep issued as SQL text. The hot cache is far
// smaller than the distinct sweep results, so entries spill to the cold
// tier and are read back when a client's sweep wraps around. The
// dominant repeat is 75% of the statements so the median latency sits
// inside one class (a cached hit) instead of on the edge between two.
// ---------------------------------------------------------------------------

constexpr int64_t kSkyObjects = 200000;
constexpr int kSkyCones = 12;
constexpr int kSkySweepWindows = 128;
/// Hot-cache budget; NOTES.md gives the measured distinct-result bytes.
constexpr int64_t kSkyHotCacheBytes = 256ll << 10;

const char* const kConeSql =
    "SELECT * FROM fGetNearbyObjEq(:ra, :dec, :radius)";
const char* const kNearestSql =
    "SELECT nearby_objID, distance FROM fGetNearbyObjEq(:ra, :dec, :radius)"
    " ORDER BY distance LIMIT 10";

struct Cone {
  double ra, dec, radius;
};

class SkySource : public Source {
 public:
  SkySource(int client, uint64_t seed,
            std::shared_ptr<const std::vector<Cone>> cones,
            std::shared_ptr<const std::vector<std::string>> sweep)
      : rng_(seed),
        cones_(std::move(cones)),
        sweep_(std::move(sweep)),
        sweep_pos_(static_cast<size_t>(client) * sweep_->size() / kClients) {}

  Statement Next() override {
    Statement s;
    double pick = rng_.NextDouble();
    if (pick < 0.15) {
      // The overlapping sweep: each client walks the window pool from its
      // own offset, so neighbours and revisits arrive from other clients.
      s.kind = Statement::Kind::kSql;
      s.sql = (*sweep_)[sweep_pos_];
      sweep_pos_ = (sweep_pos_ + 1) % sweep_->size();
      return s;
    }
    s.kind = Statement::Kind::kPrepared;
    Cone c{195.0, 2.5, 0.5};  // the dominant request
    s.template_index = 0;
    if (pick >= 0.9) {
      c = (*cones_)[rng_.Uniform(0, static_cast<int64_t>(cones_->size()) - 1)];
      s.template_index = pick >= 0.95 ? 1 : 0;
    }
    s.params = {{"ra", c.ra}, {"dec", c.dec}, {"radius", c.radius}};
    return s;
  }

 private:
  Rng rng_;
  std::shared_ptr<const std::vector<Cone>> cones_;
  std::shared_ptr<const std::vector<std::string>> sweep_;
  size_t sweep_pos_;
};

std::unique_ptr<Workload> MakeSky(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "sky-explore";
  w->options.recycler.mode = RecyclerMode::kSpeculation;
  w->options.recycler.cache_bytes = kSkyHotCacheBytes;
  w->spill = true;
  uint64_t data_seed = MixSeed(seed, 21);
  w->setup = [data_seed](Database* db) {
    skyserver::Setup(kSkyObjects, &db->catalog(), data_seed);
  };
  w->templates = {kConeSql, kNearestSql};
  Rng rng(MixSeed(seed, 22));
  auto cones = std::make_shared<std::vector<Cone>>();
  // A 4 x 3 grid over the clustered region with seeded jitter: every seed
  // gets cones of the same sizes and densities.
  for (int i = 0; i < kSkyCones; ++i) {
    cones->push_back({195.0 + (i % 4 - 1.5) * 4.0 + (rng.NextDouble() - 0.5),
                      2.5 + (i / 4 - 1) * 3.0 + (rng.NextDouble() - 0.5),
                      i % 2 == 0 ? 0.5 : 1.0});
  }
  auto sweep = std::make_shared<std::vector<std::string>>(
      skyserver::GenerateRegionSweepSql(kSkySweepWindows, &rng,
                                        /*window_deg=*/0.5,
                                        /*step_deg=*/0.125));
  w->source = [cones, sweep](int client,
                             uint64_t s) -> std::unique_ptr<Source> {
    return std::make_unique<SkySource>(client, s, cones, sweep);
  };
  w->warmup_statements = 40;
  w->check_statements = 200;
  return w;
}

// ---------------------------------------------------------------------------
// Rollup with appends: three readers loop over the fixed rollup statement
// set in a seeded order; the fourth client appends one batch per
// kRollupReadsPerAppend completed reads.
// ---------------------------------------------------------------------------

constexpr int64_t kRollupInitialRows = 40000;
constexpr int64_t kRollupBatchRows = 200;
constexpr int64_t kRollupReadsPerAppend = 800;

class RollupSource : public Source {
 public:
  RollupSource(uint64_t seed,
               std::shared_ptr<const std::vector<std::string>> sql)
      : rng_(seed), sql_(std::move(sql)) {}

  Statement Next() override {
    if (pos_ == order_.size()) {
      order_.resize(sql_->size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng_.Uniform(0, static_cast<int64_t>(i))]);
      }
      pos_ = 0;
    }
    Statement s;
    s.kind = Statement::Kind::kSql;
    s.sql = (*sql_)[order_[pos_++]];
    return s;
  }

 private:
  Rng rng_;
  std::shared_ptr<const std::vector<std::string>> sql_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

std::unique_ptr<Workload> MakeRollup(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "rollup-appends";
  w->options.recycler.mode = RecyclerMode::kSpeculation;
  w->options.recycler.cache_bytes = 1ll << 30;
  rollup::RollupOptions ro;
  ro.initial_rows = kRollupInitialRows;
  ro.seed = MixSeed(seed, 31);
  w->setup = [ro](Database* db) {
    Status st = rollup::Setup(db, ro);
    if (!st.ok()) {
      std::fprintf(stderr, "rollup setup: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  };
  auto sql = std::make_shared<std::vector<std::string>>(rollup::RollupSql(ro));
  w->source = [sql](int, uint64_t s) -> std::unique_ptr<Source> {
    return std::make_unique<RollupSource>(s, sql);
  };
  w->warmup_statements = 2 * static_cast<int>(sql->size());
  // Enough reads for the writer to commit several batches mid-check.
  w->check_statements = 4 * kRollupReadsPerAppend;
  w->reads_per_append = kRollupReadsPerAppend;
  w->append_table = "events";
  // Event rows are a function of their timestamp alone, so a run of
  // batches generated at once equals the batches appended one by one.
  w->make_batch = [ro](int64_t first, int64_t count) {
    return rollup::MakeBatch(count * kRollupBatchRows,
                             ro.initial_rows + first * kRollupBatchRows, ro);
  };
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "tpch-off", "tpch-recycle", "sky-explore", "rollup-appends"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tpch-off") return MakeTpch(name, RecyclerMode::kOff, seed);
  if (name == "tpch-recycle") {
    return MakeTpch(name, RecyclerMode::kSpeculation, seed);
  }
  if (name == "sky-explore") return MakeSky(seed);
  if (name == "rollup-appends") return MakeRollup(seed);
  return nullptr;
}

}  // namespace perfbench
