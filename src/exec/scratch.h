// Per-thread recycling of large execution scratch: hash-table arrays,
// join build columns and aggregate state (see DESIGN.md, "Execution hash
// tables and scratch memory").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/column.h"

namespace recycledb {

/// Bytes of idle scratch storage one thread keeps for its next query.
/// A constant, not a setting: it bounds what recycling may add to the
/// resident set (threads x this), and no workload needs another value.
inline constexpr int64_t kScratchRetainBytes = int64_t{4} << 20;

/// Takes a cleared vector from the calling thread's free list (possibly
/// with capacity from an earlier query), or an empty one.
template <typename T>
std::vector<T> AcquireScratch();

/// Clears `v` and keeps its storage on the calling thread's free list
/// while the thread's retained bytes stay within kScratchRetainBytes;
/// frees it otherwise. The calling thread need not be the acquiring one.
template <typename T>
void ReleaseScratch(std::vector<T>&& v);

/// A std::vector whose storage comes from and returns to the scratch
/// free lists (of the constructing and the destroying thread).
template <typename T>
class ScratchVector {
 public:
  ScratchVector() : v_(AcquireScratch<T>()) {}
  ~ScratchVector() { ReleaseScratch(std::move(v_)); }
  ScratchVector(ScratchVector&&) noexcept = default;
  ScratchVector& operator=(ScratchVector&&) = delete;

  std::vector<T>& operator*() { return v_; }
  const std::vector<T>& operator*() const { return v_; }
  std::vector<T>* operator->() { return &v_; }
  const std::vector<T>* operator->() const { return &v_; }

 private:
  std::vector<T> v_;
};

/// An owning column private to one operator (never sliced, so never
/// shared), whose storage comes from and returns to the scratch free
/// lists.
class ScratchColumn {
 public:
  explicit ScratchColumn(TypeId type);
  ~ScratchColumn();
  ScratchColumn(ScratchColumn&&) noexcept = default;
  ScratchColumn& operator=(ScratchColumn&&) = delete;

  ColumnVector& operator*() const { return *col_; }
  ColumnVector* operator->() const { return col_.get(); }

 private:
  std::unique_ptr<ColumnVector> col_;
};

}  // namespace recycledb
