#include "storage/column.h"

#include <algorithm>

namespace recycledb {

namespace {
template <typename T>
std::vector<T> EmptyVec() {
  return {};
}
}  // namespace

ColumnVector::ColumnVector(TypeId type) : type_(type) {
  switch (type) {
    case TypeId::kBool:
      data_ = EmptyVec<uint8_t>();
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      data_ = EmptyVec<int32_t>();
      break;
    case TypeId::kInt64:
      data_ = EmptyVec<int64_t>();
      break;
    case TypeId::kDouble:
      data_ = EmptyVec<double>();
      break;
    case TypeId::kString:
      data_ = EmptyVec<std::string>();
      break;
  }
}

ColumnVector::ColumnVector(std::shared_ptr<const ColumnVector> src,
                           int64_t offset, int64_t length)
    : ColumnVector(src->type()) {
  view_src_ = std::move(src);
  view_offset_ = offset;
  view_length_ = length;
}

ColumnPtr ColumnVector::Slice(std::shared_ptr<const ColumnVector> src,
                              int64_t offset, int64_t length) {
  RDB_CHECK(src != nullptr);
  RDB_CHECK_MSG(offset >= 0 && length >= 0 && offset + length <= src->size(),
                "slice out of range");
  if (src->is_view()) {
    // Flatten: view the root source directly (it is already shared).
    return ColumnPtr(new ColumnVector(src->view_src_,
                                      src->view_offset_ + offset, length));
  }
  src->shared_.store(true, std::memory_order_relaxed);
  return ColumnPtr(new ColumnVector(std::move(src), offset, length));
}

int64_t ColumnVector::OwnedSize() const {
  return std::visit([](const auto& v) { return static_cast<int64_t>(v.size()); },
                    data_);
}

Datum ColumnVector::GetDatum(int64_t row) const {
  switch (type_) {
    case TypeId::kBool:
      return static_cast<bool>(Raw<uint8_t>()[row]);
    case TypeId::kInt32:
    case TypeId::kDate:
      return Raw<int32_t>()[row];
    case TypeId::kInt64:
      return Raw<int64_t>()[row];
    case TypeId::kDouble:
      return Raw<double>()[row];
    case TypeId::kString:
      return Raw<std::string>()[row];
  }
  RDB_UNREACHABLE("bad type");
}

void ColumnVector::Append(const Datum& value) {
  switch (type_) {
    case TypeId::kBool:
      Data<uint8_t>().push_back(std::get<bool>(value) ? 1 : 0);
      return;
    case TypeId::kInt32:
    case TypeId::kDate:
      if (std::holds_alternative<int32_t>(value)) {
        Data<int32_t>().push_back(std::get<int32_t>(value));
      } else {
        Data<int32_t>().push_back(static_cast<int32_t>(DatumAsInt64(value)));
      }
      return;
    case TypeId::kInt64:
      Data<int64_t>().push_back(DatumAsInt64(value));
      return;
    case TypeId::kDouble:
      Data<double>().push_back(DatumAsDouble(value));
      return;
    case TypeId::kString:
      Data<std::string>().push_back(std::get<std::string>(value));
      return;
  }
  RDB_UNREACHABLE("bad type");
}

template <typename Idx>
void ColumnVector::Gather(const ColumnVector& src, const Idx* sel, int64_t n) {
  RDB_CHECK(src.type_ == type_);
  CheckMutable();
  if (n == 0) return;
  // Selection indexes are window-relative; on a view an index past the
  // window would silently read the root column, so bound the whole
  // selection once before gathering.
  const auto [lo, hi] = std::minmax_element(sel, sel + n);
  RDB_CHECK_MSG(*lo >= 0 && *hi < src.size(), "selection index out of bounds");
  const ColumnVector& sp = src.payload();
  const int64_t off = src.view_offset_;
  std::visit(
      [&](auto& dst) {
        using Vec = std::decay_t<decltype(dst)>;
        const auto* s = std::get<Vec>(sp.data_).data() + off;
        const size_t base = dst.size();
        dst.resize(base + n);
        auto* d = dst.data() + base;
        for (int64_t i = 0; i < n; ++i) d[i] = s[sel[i]];
      },
      data_);
}

void ColumnVector::AppendSelected(const ColumnVector& src,
                                  const std::vector<int32_t>& sel) {
  Gather(src, sel.data(), static_cast<int64_t>(sel.size()));
}

void ColumnVector::AppendSelected(const ColumnVector& src, const int64_t* sel,
                                  int64_t n) {
  Gather(src, sel, n);
}

void ColumnVector::AppendRange(const ColumnVector& src, int64_t offset,
                               int64_t count) {
  RDB_CHECK(src.type_ == type_);
  RDB_CHECK_MSG(offset >= 0 && count >= 0 && offset + count <= src.size(),
                "append range out of bounds");
  CheckMutable();
  const ColumnVector& sp = src.payload();
  const int64_t off = src.view_offset_ + offset;
  std::visit(
      [&](auto& dst) {
        using Vec = std::decay_t<decltype(dst)>;
        const Vec& s = std::get<Vec>(sp.data_);
        dst.insert(dst.end(), s.begin() + off, s.begin() + off + count);
      },
      data_);
}

void ColumnVector::Reserve(int64_t n) {
  CheckMutable();
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

void ColumnVector::ShrinkToFit() {
  VisitStorage([](auto& v) { v.shrink_to_fit(); });
}

int64_t ColumnVector::SlackBytes() const {
  if (is_view()) return 0;
  return std::visit(
      [](const auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        return static_cast<int64_t>((v.capacity() - v.size()) * sizeof(T));
      },
      data_);
}

void ColumnVector::Clear() {
  RDB_CHECK_MSG(!shared(), "clearing a shared column source");
  view_src_.reset();
  view_offset_ = 0;
  view_length_ = 0;
  std::visit([](auto& v) { v.clear(); }, data_);
}

int64_t ColumnVector::ByteSize() const {
  const int64_t n = size();
  // Owning columns account for their allocated capacity; views account for
  // the logical size of the viewed range (they own nothing, but
  // materializing them downstream would cost this much).
  if (type_ == TypeId::kString) {
    int64_t slots = is_view()
                        ? n
                        : static_cast<int64_t>(
                              std::get<std::vector<std::string>>(data_)
                                  .capacity());
    int64_t total = slots * static_cast<int64_t>(sizeof(std::string));
    const std::string* s = Raw<std::string>();
    for (int64_t i = 0; i < n; ++i) {
      total += static_cast<int64_t>(s[i].capacity());
    }
    return total;
  }
  int64_t width = 0;
  switch (type_) {
    case TypeId::kBool:
      width = 1;
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      width = 4;
      break;
    case TypeId::kInt64:
    case TypeId::kDouble:
      width = 8;
      break;
    case TypeId::kString:
      RDB_UNREACHABLE("handled above");
  }
  if (is_view()) return n * width;
  int64_t capacity = std::visit(
      [](const auto& v) { return static_cast<int64_t>(v.capacity()); }, data_);
  return capacity * width;
}

uint64_t ColumnVector::HashRow(int64_t row, uint64_t seed) const {
  switch (type_) {
    case TypeId::kBool: {
      uint64_t v = Raw<uint8_t>()[row];
      return HashCombine(seed, HashMix(v + 1));
    }
    case TypeId::kInt32:
    case TypeId::kDate: {
      uint64_t v = static_cast<uint64_t>(
          static_cast<int64_t>(Raw<int32_t>()[row]));
      return HashCombine(seed, HashMix(v));
    }
    case TypeId::kInt64: {
      uint64_t v = static_cast<uint64_t>(Raw<int64_t>()[row]);
      return HashCombine(seed, HashMix(v));
    }
    case TypeId::kDouble: {
      double d = Raw<double>()[row];
      uint64_t v;
      static_assert(sizeof(v) == sizeof(d));
      __builtin_memcpy(&v, &d, sizeof(v));
      return HashCombine(seed, HashMix(v));
    }
    case TypeId::kString:
      return HashCombine(seed, HashString(Raw<std::string>()[row]));
  }
  RDB_UNREACHABLE("bad type");
}

void ColumnVector::HashRows(int64_t n, uint64_t* hashes) const {
  RDB_CHECK_MSG(n >= 0 && n <= size(), "hash range out of bounds");
  // Each case must reproduce HashRow's per-type mixing exactly.
  switch (type_) {
    case TypeId::kBool: {
      const uint8_t* v = Raw<uint8_t>();
      for (int64_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(hashes[i], HashMix(uint64_t{v[i]} + 1));
      }
      return;
    }
    case TypeId::kInt32:
    case TypeId::kDate: {
      const int32_t* v = Raw<int32_t>();
      for (int64_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(
            hashes[i],
            HashMix(static_cast<uint64_t>(static_cast<int64_t>(v[i]))));
      }
      return;
    }
    case TypeId::kInt64: {
      const int64_t* v = Raw<int64_t>();
      for (int64_t i = 0; i < n; ++i) {
        hashes[i] =
            HashCombine(hashes[i], HashMix(static_cast<uint64_t>(v[i])));
      }
      return;
    }
    case TypeId::kDouble: {
      const double* v = Raw<double>();
      for (int64_t i = 0; i < n; ++i) {
        uint64_t bits;
        __builtin_memcpy(&bits, &v[i], sizeof(bits));
        hashes[i] = HashCombine(hashes[i], HashMix(bits));
      }
      return;
    }
    case TypeId::kString: {
      const std::string* v = Raw<std::string>();
      for (int64_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(hashes[i], HashString(v[i]));
      }
      return;
    }
  }
  RDB_UNREACHABLE("bad type");
}

bool ColumnVector::RowEquals(int64_t a, const ColumnVector& other,
                             int64_t b) const {
  RDB_CHECK(type_ == other.type_);
  switch (type_) {
    case TypeId::kBool:
      return Raw<uint8_t>()[a] == other.Raw<uint8_t>()[b];
    case TypeId::kInt32:
    case TypeId::kDate:
      return Raw<int32_t>()[a] == other.Raw<int32_t>()[b];
    case TypeId::kInt64:
      return Raw<int64_t>()[a] == other.Raw<int64_t>()[b];
    case TypeId::kDouble:
      return Raw<double>()[a] == other.Raw<double>()[b];
    case TypeId::kString:
      return Raw<std::string>()[a] == other.Raw<std::string>()[b];
  }
  RDB_UNREACHABLE("bad type");
}

ColumnPtr MakeColumn(TypeId type) { return std::make_shared<ColumnVector>(type); }

namespace {

/// Folds rows [from, to) of a typed column into block summaries. `D` is
/// the Datum alternative used for the stored min/max (bool for kBool,
/// int32_t for kInt32/kDate, ...).
template <typename D, typename T>
void FoldRows(const T* data, int64_t from, int64_t to,
              std::vector<ZoneEntry>* blocks, bool* column_sorted) {
  // Binds rows by reference when D == T (no per-row std::string copy);
  // converts only kBool's uint8_t storage.
  auto at = [data](int64_t i) -> decltype(auto) {
    if constexpr (std::is_same_v<D, T>) {
      return (data[i]);
    } else {
      return static_cast<D>(data[i]);
    }
  };
  for (int64_t r = from; r < to;) {
    const int64_t b = r / kZoneMapBlockRows;
    const int64_t block_end = std::min(to, (b + 1) * kZoneMapBlockRows);
    if (b >= static_cast<int64_t>(blocks->size())) {
      blocks->push_back(ZoneEntry{Datum(at(r)), Datum(at(r)), true, true});
    }
    ZoneEntry& e = (*blocks)[b];
    // One variant access per block; per-row updates stay sequential, so
    // NaN behaves as with per-row Datum comparisons. Sortedness folds
    // branch-free (unsorted data would mispredict half the rows).
    bool block_sorted = e.sorted;
    bool column = *column_sorted;
    auto fold = [&](D& lo, D& hi) {
      for (; r < block_end; ++r) {
        const auto& v = at(r);
        if (v < lo) lo = v;
        if (v > hi) hi = v;
        if (r > 0) {
          const bool descends = v < at(r - 1);
          column &= !descends;
          if (r % kZoneMapBlockRows != 0) block_sorted &= !descends;
        }
      }
    };
    if constexpr (std::is_same_v<D, std::string>) {
      fold(std::get<D>(e.min), std::get<D>(e.max));  // in place, no copies
    } else {
      D lo = std::get<D>(e.min);
      D hi = std::get<D>(e.max);
      fold(lo, hi);
      e.min = lo;
      e.max = hi;
    }
    e.sorted = block_sorted;
    *column_sorted = column;
  }
}

}  // namespace

void ZoneMap::Update(const ColumnVector& col) {
  RDB_CHECK(col.type() == type_);
  const int64_t n = col.size();
  if (n <= rows_covered_) return;
  switch (type_) {
    case TypeId::kBool:
      FoldRows<bool>(col.Raw<uint8_t>(), rows_covered_, n, &blocks_, &sorted_);
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      FoldRows<int32_t>(col.Raw<int32_t>(), rows_covered_, n, &blocks_,
                        &sorted_);
      break;
    case TypeId::kInt64:
      FoldRows<int64_t>(col.Raw<int64_t>(), rows_covered_, n, &blocks_,
                        &sorted_);
      break;
    case TypeId::kDouble:
      FoldRows<double>(col.Raw<double>(), rows_covered_, n, &blocks_,
                       &sorted_);
      break;
    case TypeId::kString:
      FoldRows<std::string>(col.Raw<std::string>(), rows_covered_, n,
                            &blocks_, &sorted_);
      break;
  }
  rows_covered_ = n;
}

bool ZoneMap::MayOverlap(int64_t b, const ColumnInterval& query) const {
  if (b < 0 || b >= num_blocks()) return true;  // uncovered: never prune
  const ZoneEntry& e = blocks_[b];
  // The block's value set lies within [min, max] (both closed); it can
  // only match when that envelope intersects the query interval.
  ColumnInterval envelope{{false, e.min, true}, {false, e.max, true}};
  return Overlaps(envelope, query);
}

}  // namespace recycledb
