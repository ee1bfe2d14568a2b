// Columnar vector: the unit of data flow in the vector-at-a-time engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/interval.h"
#include "common/macros.h"
#include "common/types.h"

namespace recycledb {

class ColumnVector;
using ColumnPtr = std::shared_ptr<ColumnVector>;

/// A type-erased columnar value vector.
///
/// Storage per TypeId:
///   kBool   -> std::vector<uint8_t>
///   kInt32  -> std::vector<int32_t>
///   kInt64  -> std::vector<int64_t>
///   kDouble -> std::vector<double>
///   kString -> std::vector<std::string>
///   kDate   -> std::vector<int32_t> (days since epoch)
///
/// ColumnVectors serve both as batch payloads (typically ~1024 rows) and
/// as full table columns / materialized recycler-cache results.
///
/// A column is either *owning* (holds its own storage) or a *view*: an
/// O(1) (source, offset, length) window into another, immutable column
/// created with Slice(). Scans emit views of table columns instead of
/// copies; all read paths (Raw, GetDatum, HashRow, RowEquals, Append*
/// sources) resolve views transparently.
///
/// Aliasing rule: slicing a column marks the source as shared, and shared
/// or view columns reject every mutation with RDB_CHECK (see DESIGN.md,
/// "Zero-copy views and result lifetime"). Clear() is the one exception on
/// views: it detaches the view and leaves an empty owning column, so batch
/// columns can be recycled across Next() calls.
class ColumnVector {
 public:
  explicit ColumnVector(TypeId type);

  RDB_DISALLOW_COPY_AND_ASSIGN(ColumnVector);

  /// O(1) view of rows [offset, offset+length) of `src`. Marks `src` as
  /// shared (permanently immutable). Slicing a view re-targets the root
  /// source, so chains never deepen.
  static ColumnPtr Slice(std::shared_ptr<const ColumnVector> src,
                         int64_t offset, int64_t length);

  TypeId type() const { return type_; }
  int64_t size() const {
    return is_view() ? view_length_ : OwnedSize();
  }

  bool is_view() const { return view_src_ != nullptr; }
  /// True once the column has been used as a Slice() source; shared
  /// columns are immutable for the rest of their life.
  bool shared() const { return shared_.load(std::memory_order_relaxed); }

  /// Span-style read access: pointer to this column's first row. T must
  /// match the storage type for type(); checked. Valid for size() rows.
  /// Resolves views, so callers are oblivious to view vs. owned storage.
  template <typename T>
  const T* Raw() const {
    const ColumnVector& p = payload();
    RDB_CHECK_MSG(std::holds_alternative<std::vector<T>>(p.data_),
                  "ColumnVector type mismatch");
    return std::get<std::vector<T>>(p.data_).data() + view_offset_;
  }

  /// Typed builder access to the owning storage. T must match the storage
  /// type for type(); checked. Aborts on views and on shared sources —
  /// use Raw() to read.
  template <typename T>
  std::vector<T>& Data() {
    CheckMutable();
    RDB_CHECK_MSG(std::holds_alternative<std::vector<T>>(data_),
                  "ColumnVector type mismatch");
    return std::get<std::vector<T>>(data_);
  }

  /// Boxed row access (slow path; used by tests, sorting, fingerprints).
  Datum GetDatum(int64_t row) const;

  /// Appends a boxed value (type-checked against the column type).
  void Append(const Datum& value);

  /// Appends rows of `src` selected by `sel` (vectorized gather). Aborts
  /// unless every index lies inside `src`'s rows (checked once per call
  /// on the selection's min/max).
  void AppendSelected(const ColumnVector& src, const std::vector<int32_t>& sel);
  /// Same gather over `n` 64-bit row ids (hash-join build-side
  /// selections).
  void AppendSelected(const ColumnVector& src, const int64_t* sel, int64_t n);

  /// Appends the contiguous row range [offset, offset+count) of `src`.
  void AppendRange(const ColumnVector& src, int64_t offset, int64_t count);

  /// Appends all rows of `src`.
  void AppendAll(const ColumnVector& src) { AppendRange(src, 0, src.size()); }

  void Reserve(int64_t n);

  /// Releases spare capacity of the owning storage (vector growth leaves
  /// up to 2x slack), so ByteSize() reports the bytes actually held.
  void ShrinkToFit();

  /// Bytes of spare capacity in the owning storage (0 for views): what
  /// ShrinkToFit would release, string payloads not counted.
  int64_t SlackBytes() const;

  /// Calls `fn(std::vector<T>& storage)` on the owning storage. Aborts on
  /// views and shared sources, like Data<T>().
  template <typename Fn>
  void VisitStorage(Fn&& fn) {
    CheckMutable();
    std::visit(std::forward<Fn>(fn), data_);
  }

  /// Empties the column. On a view this detaches the source and reverts to
  /// an empty owning column of the same type; aborts on a shared source.
  void Clear();

  /// Approximate heap footprint in bytes (used for recycler-cache sizing).
  /// For a view: the logical byte size of the viewed range (a view owns
  /// nothing, but downstream materialization of it would cost this much).
  int64_t ByteSize() const;

  /// Hashes row `row` into `seed`.
  uint64_t HashRow(int64_t row, uint64_t seed) const;

  /// Batch form of HashRow: hashes[i] = HashRow(i, hashes[i]) for every
  /// row i in [0, n), one typed loop (used by hash join/aggregate).
  /// Aborts when n exceeds size().
  void HashRows(int64_t n, uint64_t* hashes) const;

  /// True if rows a (in this) and b (in other) hold equal values.
  bool RowEquals(int64_t a, const ColumnVector& other, int64_t b) const;

 private:
  ColumnVector(std::shared_ptr<const ColumnVector> src, int64_t offset,
               int64_t length);

  const ColumnVector& payload() const {
    return is_view() ? *view_src_ : *this;
  }
  int64_t OwnedSize() const;
  template <typename Idx>
  void Gather(const ColumnVector& src, const Idx* sel, int64_t n);
  void CheckMutable() const {
    RDB_CHECK_MSG(!is_view(), "mutating a view column");
    RDB_CHECK_MSG(!shared(), "mutating a shared column source");
  }

  TypeId type_;
  std::variant<std::vector<uint8_t>, std::vector<int32_t>,
               std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
  /// View state: non-null view_src_ makes this a window of
  /// [view_offset_, view_offset_ + view_length_) into an owning column.
  /// The shared_ptr keeps the source alive past cache eviction.
  std::shared_ptr<const ColumnVector> view_src_;
  int64_t view_offset_ = 0;
  int64_t view_length_ = 0;
  /// Sticky: set the first time this column is sliced (atomic because
  /// concurrent query streams slice the same cached result).
  mutable std::atomic<bool> shared_{false};
};

/// Creates an empty column of the given type.
ColumnPtr MakeColumn(TypeId type);

// ---------------------------------------------------------------------------
// Zone maps (per-block min/max pruning metadata).
// ---------------------------------------------------------------------------

/// Rows per zone-map block. Equal to kDefaultBatchRows on purpose: ScanOp
/// emits batches aligned to the same 1024-row grid (pos_ only ever
/// advances by full batches), so one zone-map block maps 1:1 to one scan
/// batch and pruning can skip whole Next() emissions.
inline constexpr int64_t kZoneMapBlockRows = 1024;

/// Per-block summary. `null_free` is trivially true in this engine (the
/// value domain is NULL-free by design, see DESIGN.md) but is kept per
/// block so the format does not change if NULLs ever appear.
struct ZoneEntry {
  Datum min{};
  Datum max{};
  /// Rows within the block are non-decreasing.
  bool sorted = true;
  bool null_free = true;
};

/// Per-column block summaries, maintained incrementally by Table on
/// append (single-writer; tables are immutable once published to the
/// catalog or the recycler cache, so readers never race an update).
class ZoneMap {
 public:
  explicit ZoneMap(TypeId type) : type_(type) {}

  /// Folds rows [rows_covered(), col.size()) of `col` into the block
  /// summaries. Appends never shrink, so maintenance is strictly
  /// incremental; the last (partial) block is re-tightened in place as
  /// it fills.
  void Update(const ColumnVector& col);

  TypeId type() const { return type_; }
  int64_t rows_covered() const { return rows_covered_; }
  int64_t num_blocks() const { return static_cast<int64_t>(blocks_.size()); }
  const ZoneEntry& block(int64_t b) const { return blocks_[b]; }
  /// The whole column is non-decreasing across all covered rows.
  bool sorted() const { return sorted_; }

  /// True when block `b` may hold a value inside `query` (conservative:
  /// never prunes a block that overlaps). Blocks beyond num_blocks() are
  /// reported as possibly-overlapping so stale maps only lose pruning,
  /// never correctness.
  bool MayOverlap(int64_t b, const ColumnInterval& query) const;

 private:
  TypeId type_;
  std::vector<ZoneEntry> blocks_;
  int64_t rows_covered_ = 0;
  bool sorted_ = true;
};

using ZoneMapPtr = std::shared_ptr<ZoneMap>;

}  // namespace recycledb
