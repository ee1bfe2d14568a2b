#include "storage/table.h"

#include <sstream>

namespace recycledb {

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int Schema::IndexOfChecked(const std::string& name) const {
  int idx = IndexOf(name);
  RDB_CHECK_MSG(idx >= 0, ("column not found: " + name).c_str());
  return idx;
}

std::vector<std::string> Schema::Names() const {
  std::vector<std::string> names;
  names.reserve(fields_.size());
  for (const auto& f : fields_) names.push_back(f.name);
  return names;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += TypeName(fields_[i].type);
  }
  out += ")";
  return out;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  zone_maps_.reserve(schema_.num_fields());
  for (const auto& f : schema_.fields()) {
    columns_.push_back(MakeColumn(f.type));
    zone_maps_.push_back(std::make_shared<ZoneMap>(f.type));
  }
}

void Table::AppendBatch(const Batch& batch) {
  RDB_CHECK(static_cast<int>(batch.columns.size()) == num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[i]->AppendAll(*batch.columns[i]);
    zone_maps_[i]->Update(*columns_[i]);
  }
  num_rows_ += batch.num_rows;
}

void Table::AppendRow(const std::vector<Datum>& row) {
  RDB_CHECK(static_cast<int>(row.size()) == num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[i]->Append(row[i]);
    zone_maps_[i]->Update(*columns_[i]);
  }
  ++num_rows_;
}

void Table::ShrinkToFit() {
  for (const auto& c : columns_) c->ShrinkToFit();
}

int64_t Table::SlackBytes() const {
  int64_t total = 0;
  for (const auto& c : columns_) total += c->SlackBytes();
  return total;
}

int64_t Table::ByteSize() const {
  int64_t total = 0;
  for (const auto& c : columns_) total += c->ByteSize();
  return total;
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << " rows=" << num_rows_ << "\n";
  int64_t n = std::min(num_rows_, max_rows);
  for (int64_t r = 0; r < n; ++r) {
    os << "  ";
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) os << " | ";
      os << DatumToString(Get(r, c));
    }
    os << "\n";
  }
  if (n < num_rows_) os << "  ... (" << (num_rows_ - n) << " more)\n";
  return os.str();
}

TablePtr Table::RenameColumns(const std::vector<std::string>& names) const {
  RDB_CHECK(static_cast<int>(names.size()) == num_columns());
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (int i = 0; i < num_columns(); ++i) {
    fields.push_back({names[i], schema_.field(i).type});
  }
  auto out = std::make_shared<Table>(Schema(std::move(fields)));
  out->columns_ = columns_;
  out->zone_maps_ = zone_maps_;
  out->num_rows_ = num_rows_;
  return out;
}

TablePtr Table::SelectColumns(const std::vector<std::string>& names) const {
  std::vector<Field> fields;
  std::vector<ColumnPtr> cols;
  std::vector<ZoneMapPtr> zones;
  for (const auto& name : names) {
    int idx = schema_.IndexOfChecked(name);
    fields.push_back(schema_.field(idx));
    cols.push_back(columns_[idx]);
    zones.push_back(zone_maps_[idx]);
  }
  auto out = std::make_shared<Table>(Schema(std::move(fields)));
  out->columns_ = std::move(cols);
  out->zone_maps_ = std::move(zones);
  out->num_rows_ = num_rows_;
  return out;
}

TablePtr MakeTable(Schema schema) {
  return std::make_shared<Table>(std::move(schema));
}

}  // namespace recycledb
