// The benchmark's four workloads: what each client sends and how the
// engine is configured for it. NOTES.md says why each workload exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "plan/plan.h"

namespace perfbench {

/// One read a client sends.
struct Statement {
  enum class Kind { kPlan, kSql, kPrepared };
  Kind kind = Kind::kPlan;
  /// kPlan: the plan, built fresh for this statement.
  recycledb::PlanPtr plan;
  /// kSql: the statement text.
  std::string sql;
  /// kPrepared: index into Workload::templates, and the bindings.
  int template_index = -1;
  recycledb::ParamMap params;
};

/// Draws one client's statements, in order, from a seeded generator.
class Source {
 public:
  virtual ~Source() = default;
  virtual Statement Next() = 0;
};

/// The benchmark's clients (closed loop, one thread and Session each).
inline constexpr int kClients = 4;

struct Workload {
  std::string name;
  /// Engine configuration. The benchmark fills in recycler.spill_dir when
  /// `spill` is set.
  recycledb::DatabaseOptions options;
  bool spill = false;
  /// Generates the data and registers it; timed as set-up.
  std::function<void(recycledb::Database*)> setup;
  /// SQL templates every client prepares once, before any timing.
  std::vector<std::string> templates;
  /// Statement source of reading client `client`, seeded by `seed`.
  std::function<std::unique_ptr<Source>(int client, uint64_t seed)> source;
  /// Statements one warm-up client issues.
  int warmup_statements = 0;
  /// Statements one client issues in the check phase the oracle verifies.
  int check_statements = 0;

  // --- writes (rollup-appends only) -----------------------------------
  /// > 0: the last client is a writer that appends one batch each time
  /// the readers have completed this many more statements.
  int64_t reads_per_append = 0;
  std::string append_table;
  /// Batches first .. first + count - 1 (0-based) of the append
  /// sequence as one table; deterministic, and equal to appending the
  /// batches one at a time.
  std::function<recycledb::TablePtr(int64_t first, int64_t count)> make_batch;
};

/// Builds the named workload for bench seed `seed`; nullptr when the name
/// is unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The workload names, for usage messages.
const std::vector<std::string>& WorkloadNames();

/// Derives an independent 64-bit seed from (`seed`, `salt`).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench
