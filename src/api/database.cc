#include "api/database.h"

#include <algorithm>

#include "common/string_util.h"

namespace recycledb {

Status ValidateRecyclerConfig(const RecyclerConfig& config) {
  if (config.stall_timeout_ms <= 0) {
    return Status::InvalidArgument(
        StrFormat("stall_timeout_ms must be positive (got %lld)",
                  (long long)config.stall_timeout_ms));
  }
  // cache_bytes: < 0 means unlimited and 0 disables caching; a positive
  // budget smaller than one vector of rows cannot hold any result and is
  // almost certainly a bytes-vs-megabytes mistake.
  if (config.cache_bytes > 0 && config.cache_bytes < 4096) {
    return Status::InvalidArgument(
        StrFormat("cache_bytes of %lld cannot hold any result; use 0 to "
                  "disable caching or < 0 for unlimited",
                  (long long)config.cache_bytes));
  }
  if (!(config.aging_alpha > 0.0) || config.aging_alpha > 1.0) {
    return Status::InvalidArgument(
        StrFormat("aging_alpha must be in (0, 1] (got %g)",
                  config.aging_alpha));
  }
  if (config.speculation_buffer_cap <= 0) {
    return Status::InvalidArgument(
        StrFormat("speculation_buffer_cap must be positive (got %lld)",
                  (long long)config.speculation_buffer_cap));
  }
  // Cold-tier capacity only matters once a spill_dir enables the tier.
  if (!config.spill_dir.empty() && config.cold_tier_capacity_bytes <= 0) {
    return Status::InvalidArgument(
        StrFormat("cold_tier_capacity_bytes must be positive when "
                  "spill_dir is set (got %lld); leave spill_dir empty to "
                  "disable the cold tier",
                  (long long)config.cold_tier_capacity_bytes));
  }
  // Fleet tier: both flags are properties of the spill directory and are
  // meaningless without one.
  if (config.spill_dir.empty()) {
    if (config.shared_spill_dir) {
      return Status::InvalidArgument(
          "shared_spill_dir requires spill_dir to be set");
    }
    if (config.spill_read_only) {
      return Status::InvalidArgument(
          "spill_read_only requires spill_dir to be set");
    }
  }
  if (config.spill_read_only && !config.shared_spill_dir) {
    return Status::InvalidArgument(
        "spill_read_only requires shared_spill_dir (a private tier that "
        "can never write is useless)");
  }
  if (config.shared_spill_dir) {
    if (config.fleet_lease_ms <= 0) {
      return Status::InvalidArgument(
          StrFormat("fleet_lease_ms must be positive (got %lld)",
                    (long long)config.fleet_lease_ms));
    }
    for (char c : config.fleet_instance) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
      if (!ok) {
        return Status::InvalidArgument(
            StrFormat("fleet_instance %s is not filename-safe (allowed: "
                      "[A-Za-z0-9_-])",
                      config.fleet_instance.c_str()));
      }
    }
  }
  return Status::OK();
}

Status Database::Open(DatabaseOptions options, std::unique_ptr<Database>* out) {
  RDB_RETURN_NOT_OK(ValidateRecyclerConfig(options.recycler));
  if (options.max_concurrent <= 0) {
    return Status::InvalidArgument(
        StrFormat("max_concurrent must be positive (got %d)",
                  options.max_concurrent));
  }
  if (options.async_threads <= 0) {
    return Status::InvalidArgument(
        StrFormat("async_threads must be positive (got %d)",
                  options.async_threads));
  }
  if (!options.recycler.spill_dir.empty()) {
    // Probe the directory now so an unusable spill_dir surfaces here as
    // an actionable Status instead of silently degrading later. The
    // probe matches the mode: an adopt-only standby on a read-only
    // mount must open cleanly (no create, no write), while a writable
    // tier over a genuinely unwritable directory is still an error.
    if (options.recycler.spill_read_only) {
      RDB_RETURN_NOT_OK(
          ColdTier::ValidateSpillDirReadable(options.recycler.spill_dir));
    } else {
      RDB_RETURN_NOT_OK(
          ColdTier::ValidateSpillDir(options.recycler.spill_dir));
    }
  }
  out->reset(new Database(std::move(options)));
  return Status::OK();
}

std::unique_ptr<Database> Database::OpenOrDie(DatabaseOptions options) {
  std::unique_ptr<Database> db;
  Status st = Open(std::move(options), &db);
  RDB_CHECK_MSG(st.ok(), st.ToString().c_str());
  return db;
}

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      recycler_(&catalog_, options_.recycler),
      raw_executor_(&catalog_),
      gate_(options_.max_concurrent),
      pool_(options_.async_threads) {
  raw_executor_.set_zone_map_pruning(options_.recycler.enable_zone_map_pruning);
  SessionOptions session_options;
  session_options.name = "default";
  default_session_.reset(new Session(this, std::move(session_options)));
}

Database::~Database() {
  // pool_ is declared last and therefore destroyed first; its destructor
  // drains in-flight submissions while catalog/recycler/sessions are
  // still alive.
}

Status Database::CreateTable(const std::string& name, TablePtr table) {
  return catalog_.RegisterTable(name, std::move(table));
}

Status Database::ReplaceTable(const std::string& name, TablePtr table) {
  RDB_RETURN_NOT_OK(catalog_.ReplaceTable(name, std::move(table)));
  recycler_.InvalidateTable(name);
  return Status::OK();
}

Status Database::AppendTable(const std::string& name, const Table& delta) {
  RDB_RETURN_NOT_OK(catalog_.AppendRows(name, delta));
  recycler_.OnTableAppended(name);
  return Status::OK();
}

std::unique_ptr<Session> Database::Connect(SessionOptions options) {
  return std::unique_ptr<Session>(new Session(this, std::move(options)));
}

void Database::InvalidateTable(const std::string& table) {
  recycler_.InvalidateTable(table);
}

void Database::FlushCache() { recycler_.FlushCache(); }

int64_t Database::TruncateGraph(int64_t idle_epochs) {
  return recycler_.TruncateGraph(idle_epochs);
}

Status Database::RefreshFleet(int64_t* new_peer_entries) {
  return recycler_.RefreshFleet(new_peer_entries);
}

std::future<Result> Database::SubmitTask(std::function<Result()> fn,
                                         bool* accepted) {
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> future = promise->get_future();
  bool ok = pool_.Submit([this, promise, fn = std::move(fn)] {
    AdmissionSlot slot(&gate_);
    promise->set_value(fn());
  });
  if (!ok) {
    promise->set_value(
        Result::Error(Status::Internal("database is shutting down")));
  }
  if (accepted != nullptr) *accepted = ok;
  return future;
}

}  // namespace recycledb
