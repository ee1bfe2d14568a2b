#include "exec/scratch.h"

#include <string>

namespace recycledb {

namespace {

// Bytes held by this thread's free lists, across element types.
thread_local int64_t retained_bytes = 0;

template <typename T>
std::vector<std::vector<T>>& FreeList() {
  thread_local std::vector<std::vector<T>> list;
  return list;
}

template <typename T>
int64_t StorageBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

}  // namespace

template <typename T>
std::vector<T> AcquireScratch() {
  std::vector<std::vector<T>>& list = FreeList<T>();
  if (list.empty()) return {};
  std::vector<T> v = std::move(list.back());
  list.pop_back();
  retained_bytes -= StorageBytes(v);
  return v;
}

template <typename T>
void ReleaseScratch(std::vector<T>&& v) {
  std::vector<T> owned = std::move(v);
  const int64_t bytes = StorageBytes(owned);
  if (bytes == 0 || retained_bytes + bytes > kScratchRetainBytes) return;
  owned.clear();
  retained_bytes += bytes;
  FreeList<T>().push_back(std::move(owned));
}

#define RDB_SCRATCH_TYPE(T)                         \
  template std::vector<T> AcquireScratch<T>();      \
  template void ReleaseScratch<T>(std::vector<T>&&);
RDB_SCRATCH_TYPE(uint8_t)
RDB_SCRATCH_TYPE(int32_t)
RDB_SCRATCH_TYPE(int64_t)
RDB_SCRATCH_TYPE(uint64_t)
RDB_SCRATCH_TYPE(double)
RDB_SCRATCH_TYPE(std::string)
#undef RDB_SCRATCH_TYPE

ScratchColumn::ScratchColumn(TypeId type)
    : col_(std::make_unique<ColumnVector>(type)) {
  col_->VisitStorage([](auto& v) {
    using T = typename std::decay_t<decltype(v)>::value_type;
    v = AcquireScratch<T>();
  });
}

ScratchColumn::~ScratchColumn() {
  if (col_ == nullptr) return;  // moved from
  col_->VisitStorage([](auto& v) { ReleaseScratch(std::move(v)); });
}

}  // namespace recycledb
