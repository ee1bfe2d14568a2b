#include "storage/catalog.h"

#include <unordered_set>

namespace recycledb {

Status Catalog::RegisterTable(const std::string& name, TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  Entry entry;
  entry.table = table;
  ComputeStats(*table, &entry.column_stats);
  tables_[name] = std::move(entry);
  return Status::OK();
}

Status Catalog::ReplaceTable(const std::string& name, TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table not registered: " + name);
  }
  it->second.table = table;
  ++it->second.epoch;
  it->second.column_stats.clear();
  ComputeStats(*table, &it->second.column_stats);
  return Status::OK();
}

Status Catalog::AppendRows(const std::string& name, const Table& delta) {
  // Serialize appends; the O(n) copy and stats pass run outside mu_ so
  // concurrent readers never stall behind an append.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  TablePtr base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table not registered: " + name);
    }
    base = it->second.table;
  }
  if (!(delta.schema() == base->schema())) {
    return Status::InvalidArgument("append schema mismatch for table " + name);
  }
  auto grown = MakeTable(base->schema());
  // Exact capacity: appending the delta to a copy sized for the old rows
  // would reallocate (and copy) every column to twice its size.
  for (int c = 0; c < grown->num_columns(); ++c) {
    grown->column(c)->Reserve(base->num_rows() + delta.num_rows());
  }
  if (base->num_rows() > 0) {
    Batch old_rows;
    old_rows.num_rows = base->num_rows();
    for (int c = 0; c < base->num_columns(); ++c) {
      old_rows.columns.push_back(base->column(c));
    }
    grown->AppendBatch(old_rows);
  }
  if (delta.num_rows() > 0) {
    Batch delta_rows;
    delta_rows.num_rows = delta.num_rows();
    for (int c = 0; c < delta.num_columns(); ++c) {
      delta_rows.columns.push_back(delta.column(c));
    }
    grown->AppendBatch(delta_rows);
  }
  std::map<std::string, ColumnStats> stats;
  ComputeStats(*grown, &stats);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end() || it->second.table != base) {
      // The entry was dropped or ReplaceTable swapped the base out from
      // under the copy; resurrecting pre-replace rows would corrupt it.
      return Status::Internal("table replaced during append: " + name);
    }
    it->second.table = std::move(grown);
    it->second.column_stats = std::move(stats);
  }
  return Status::OK();
}

TablePtr Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.table;
}

TableSnapshot Catalog::Snapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return TableSnapshot{};
  TableSnapshot snap;
  snap.table = it->second.table;
  snap.epoch = it->second.epoch;
  snap.rows = it->second.table->num_rows();
  return snap;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

const ColumnStats* Catalog::GetColumnStats(const std::string& table,
                                           const std::string& column) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  auto cit = it->second.column_stats.find(column);
  return cit == it->second.column_stats.end() ? nullptr : &cit->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

void Catalog::ComputeStats(const Table& table,
                           std::map<std::string, ColumnStats>* out) {
  for (int c = 0; c < table.num_columns(); ++c) {
    const auto& field = table.schema().field(c);
    ColumnStats stats;
    std::unordered_set<uint64_t> distinct;
    const ColumnVector& col = *table.column(c);
    int64_t n = col.size();
    for (int64_t r = 0; r < n; ++r) {
      distinct.insert(col.HashRow(r, 0));
      Datum d = col.GetDatum(r);
      if (r == 0) {
        stats.min_value = d;
        stats.max_value = d;
      } else {
        if (DatumCompare(d, stats.min_value) < 0) stats.min_value = d;
        if (DatumCompare(d, stats.max_value) > 0) stats.max_value = d;
      }
    }
    stats.distinct_count = static_cast<int64_t>(distinct.size());
    (*out)[field.name] = stats;
  }
}

}  // namespace recycledb
