// Schema, Batch and Table: row-set containers over ColumnVectors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "storage/column.h"

namespace recycledb {

/// A named, typed column slot.
struct Field {
  std::string name;
  TypeId type;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// An ordered list of fields describing a row shape.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of `name`, or -1 if absent.
  int IndexOf(const std::string& name) const;

  /// Index of `name`; RDB_CHECK-fails if absent.
  int IndexOfChecked(const std::string& name) const;

  bool Has(const std::string& name) const { return IndexOf(name) >= 0; }

  /// Column names in schema order.
  std::vector<std::string> Names() const;

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_;
  }

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// A batch of rows flowing between operators (vector-at-a-time unit).
/// Column order matches the producing operator's output schema.
struct Batch {
  std::vector<ColumnPtr> columns;
  int64_t num_rows = 0;

  bool empty() const { return num_rows == 0; }
  void Clear() {
    columns.clear();
    num_rows = 0;
  }
};

/// Default number of rows per batch (Vectorwise-style vector size).
inline constexpr int64_t kDefaultBatchRows = 1024;

class Table;
using TablePtr = std::shared_ptr<Table>;

/// A fully materialized row set: schema + full-length columns.
/// Used for base tables, recycler-cache entries, and query results.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const ColumnPtr& column(int i) const { return columns_[i]; }
  const ColumnPtr& ColumnByName(const std::string& name) const {
    return columns_[schema_.IndexOfChecked(name)];
  }

  /// Appends a batch whose columns positionally match the schema.
  void AppendBatch(const Batch& batch);

  /// Appends one row of boxed values (slow path for tests/builders).
  void AppendRow(const std::vector<Datum>& row);

  /// Boxed cell access (slow path).
  Datum Get(int64_t row, int col) const { return columns_[col]->GetDatum(row); }

  /// Releases every column's spare capacity (see ColumnVector::ShrinkToFit).
  void ShrinkToFit();

  /// Sum of the columns' ColumnVector::SlackBytes.
  int64_t SlackBytes() const;

  /// Total heap footprint of all columns in bytes.
  int64_t ByteSize() const;

  /// Renders up to `max_rows` rows for debugging.
  std::string ToString(int64_t max_rows = 20) const;

  /// Builds a new table with columns renamed positionally to `names`.
  /// Shares the underlying column data (zero copy).
  TablePtr RenameColumns(const std::vector<std::string>& names) const;

  /// Builds a new table containing only `names`, in that order (zero copy).
  TablePtr SelectColumns(const std::vector<std::string>& names) const;

  /// Zone map of column `i`, kept current by AppendBatch/AppendRow (per
  /// kZoneMapBlockRows block min/max + sortedness). Shared zero-copy by
  /// RenameColumns/SelectColumns along with the column data. Never null.
  const ZoneMap& zone_map(int i) const { return *zone_maps_[i]; }

 private:
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  std::vector<ZoneMapPtr> zone_maps_;
  int64_t num_rows_ = 0;
};

/// Creates an empty table with the given schema.
TablePtr MakeTable(Schema schema);

}  // namespace recycledb
