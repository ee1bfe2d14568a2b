#include "exec/operators.h"

#include <algorithm>

#include "common/hash.h"
#include "common/macros.h"

namespace recycledb {

Datum PadValue(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return false;
    case TypeId::kInt32:
    case TypeId::kDate:
      return static_cast<int32_t>(0);
    case TypeId::kInt64:
      return static_cast<int64_t>(0);
    case TypeId::kDouble:
      return 0.0;
    case TypeId::kString:
      return std::string();
  }
  RDB_UNREACHABLE("bad type");
}

namespace {

// Emits O(1) views of rows [pos, pos+count) of the indexed table columns;
// the views keep the columns alive even if the table is dropped (or
// evicted from the recycler cache) mid-scan.
void EmitTableViews(const Table& table, const std::vector<int>& indices,
                    int64_t pos, int64_t count, Batch* out) {
  out->Clear();
  out->columns.reserve(indices.size());
  for (int idx : indices) {
    out->columns.push_back(ColumnVector::Slice(table.column(idx), pos, count));
  }
  out->num_rows = count;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScanOp
// ---------------------------------------------------------------------------

ScanOp::ScanOp(Schema output_schema, TablePtr table,
               std::vector<int> column_indices)
    : Operator(std::move(output_schema)),
      table_(std::move(table)),
      column_indices_(std::move(column_indices)) {
  RDB_CHECK(table_ != nullptr);
}

void ScanOp::SetPruneHints(std::vector<PruneHint> hints) {
  hints_ = std::move(hints);
}

void ScanOp::SetRowWindow(int64_t begin, int64_t end) {
  RDB_CHECK_MSG(begin >= 0 && (end < 0 || end >= begin),
                "invalid scan row window");
  begin_ = begin;
  end_ = end;
}

void ScanOp::Open() {
  limit_ = end_ < 0 ? table_->num_rows() : std::min(end_, table_->num_rows());
  pos_ = std::min(begin_, limit_);
}

bool ScanOp::BlockPruned(int64_t block) const {
  // A block is skippable when any hinted column's zone excludes the
  // hint's interval (conjunctive predicate: one dead conjunct kills the
  // whole block).
  for (const PruneHint& h : hints_) {
    const ZoneMap& zm = table_->zone_map(column_indices_[h.output_column]);
    if (!zm.MayOverlap(block, h.range)) return true;
  }
  return false;
}

bool ScanOp::Next(Batch* out) {
  // pos_ stays on the table's global kZoneMapBlockRows (== kDefaultBatchRows)
  // grid: a row window whose begin is mid-block emits one short batch up to
  // the next block boundary, after which every emission is exactly one
  // zone-map block, so block pruning keeps its 1:1 block/batch mapping.
  while (pos_ < limit_) {
    int64_t block = pos_ / kZoneMapBlockRows;
    int64_t block_end = (block + 1) * kZoneMapBlockRows;
    int64_t count = std::min(block_end, limit_) - pos_;
    if (!hints_.empty() && BlockPruned(block)) {
      ++stats_.blocks_pruned;
      pos_ += count;
      continue;
    }
    ++stats_.blocks_scanned;
    EmitTableViews(*table_, column_indices_, pos_, count, out);
    pos_ += count;
    return true;
  }
  return false;
}

double ScanOp::Progress() const {
  const int64_t span = limit_ - std::min(begin_, limit_);
  if (span == 0) return 1.0;
  return static_cast<double>(pos_ - std::min(begin_, limit_)) /
         static_cast<double>(span);
}

// ---------------------------------------------------------------------------
// FunctionScanOp
// ---------------------------------------------------------------------------

FunctionScanOp::FunctionScanOp(Schema output_schema, const TableFunction* fn,
                               std::vector<Datum> args, const Catalog* catalog)
    : Operator(std::move(output_schema)),
      fn_(fn),
      args_(std::move(args)),
      catalog_(catalog) {
  RDB_CHECK(fn_ != nullptr && catalog_ != nullptr);
}

void FunctionScanOp::Open() {
  result_ = fn_->eval_fn(*catalog_, args_);
  RDB_CHECK(result_ != nullptr);
  column_indices_.clear();
  for (int i = 0; i < result_->num_columns(); ++i) column_indices_.push_back(i);
  pos_ = 0;
}

bool FunctionScanOp::Next(Batch* out) {
  if (pos_ >= result_->num_rows()) return false;
  int64_t count = std::min(kDefaultBatchRows, result_->num_rows() - pos_);
  EmitTableViews(*result_, column_indices_, pos_, count, out);
  pos_ += count;
  return true;
}

double FunctionScanOp::Progress() const {
  if (result_ == nullptr || result_->num_rows() == 0) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(result_->num_rows());
}

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

FilterOp::FilterOp(Schema output_schema, OperatorPtr child,
                   const ExprPtr& predicate)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      predicate_(*predicate, child_->output_schema()) {}

bool FilterOp::Next(Batch* out) {
  Batch in;
  while (child_->NextTimed(&in)) {
    predicate_.Select(in, &sel_);
    if (sel_.empty()) continue;
    if (static_cast<int64_t>(sel_.size()) == in.num_rows) {
      // Every row passed: forward the input batch untouched (zero copy).
      *out = std::move(in);
      return true;
    }
    InitBatch(output_schema_, out);
    for (size_t c = 0; c < in.columns.size(); ++c) {
      out->columns[c]->AppendSelected(*in.columns[c], sel_);
    }
    out->num_rows = static_cast<int64_t>(sel_.size());
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

ProjectOp::ProjectOp(Schema output_schema, OperatorPtr child,
                     const std::vector<ProjItem>& items)
    : Operator(std::move(output_schema)), child_(std::move(child)) {
  items_.reserve(items.size());
  for (const ProjItem& item : items) {
    items_.emplace_back(*item.expr, child_->output_schema());
  }
}

bool ProjectOp::Next(Batch* out) {
  Batch in;
  if (!child_->NextTimed(&in)) return false;
  out->Clear();
  out->columns.reserve(items_.size());
  for (ExprProgram& item : items_) {
    // Bare column refs forward the input column untouched (view or owned,
    // without copying); other items yield freshly owned columns.
    out->columns.push_back(item.Eval(in));
  }
  out->num_rows = in.num_rows;
  return true;
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

LimitOp::LimitOp(Schema output_schema, OperatorPtr child, int64_t n)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      remaining_(n),
      n_(n) {}

bool LimitOp::Next(Batch* out) {
  if (remaining_ <= 0) return false;
  Batch in;
  if (!child_->NextTimed(&in)) return false;
  int64_t take = std::min(remaining_, in.num_rows);
  if (take == in.num_rows) {
    *out = std::move(in);
  } else {
    // Truncate by slicing the input columns (zero copy).
    out->Clear();
    out->columns.reserve(in.columns.size());
    for (const auto& c : in.columns) {
      out->columns.push_back(ColumnVector::Slice(c, 0, take));
    }
    out->num_rows = take;
  }
  remaining_ -= take;
  return true;
}

double LimitOp::Progress() const {
  if (n_ <= 0) return 1.0;
  return static_cast<double>(n_ - remaining_) / static_cast<double>(n_);
}

// ---------------------------------------------------------------------------
// UnionAllOp
// ---------------------------------------------------------------------------

UnionAllOp::UnionAllOp(Schema output_schema, std::vector<OperatorPtr> children)
    : Operator(std::move(output_schema)), children_(std::move(children)) {}

void UnionAllOp::Open() {
  for (auto& c : children_) c->Open();
  current_ = 0;
}

bool UnionAllOp::Next(Batch* out) {
  while (current_ < children_.size()) {
    if (children_[current_]->NextTimed(out)) return true;
    ++current_;
  }
  return false;
}

void UnionAllOp::Close() {
  for (auto& c : children_) c->Close();
}

double UnionAllOp::Progress() const {
  if (children_.empty()) return 1.0;
  double sum = 0;
  for (size_t i = 0; i < children_.size(); ++i) {
    sum += i < current_ ? 1.0 : children_[i]->Progress();
  }
  return sum / static_cast<double>(children_.size());
}

// ---------------------------------------------------------------------------
// Sort helpers
// ---------------------------------------------------------------------------

namespace {

// Compares rows a and b of `table` on `keys` (column indexes + direction).
struct RowComparator {
  const Table* table;
  const std::vector<int>* key_idx;
  const std::vector<SortKey>* keys;

  bool operator()(int64_t a, int64_t b) const {
    for (size_t k = 0; k < key_idx->size(); ++k) {
      const ColumnVector& col = *table->column((*key_idx)[k]);
      int c = DatumCompare(col.GetDatum(a), col.GetDatum(b));
      if (c != 0) return (*keys)[k].ascending ? c < 0 : c > 0;
    }
    return a < b;  // stable tie-break
  }
};

std::vector<int> ResolveKeys(const Schema& schema,
                             const std::vector<SortKey>& keys) {
  std::vector<int> idx;
  idx.reserve(keys.size());
  for (const auto& k : keys) idx.push_back(schema.IndexOfChecked(k.column));
  return idx;
}

// Emits rows `order[pos..pos+batch)` of `table` into `out`.
bool EmitOrdered(const Schema& schema, const Table& table,
                 const std::vector<int64_t>& order, int64_t* pos, Batch* out) {
  int64_t total = static_cast<int64_t>(order.size());
  if (*pos >= total) return false;
  int64_t count = std::min(kDefaultBatchRows, total - *pos);
  InitBatch(schema, out);
  std::vector<int32_t> sel(count);
  for (int64_t i = 0; i < count; ++i) {
    sel[i] = static_cast<int32_t>(order[*pos + i]);
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    out->columns[c]->AppendSelected(*table.column(c), sel);
  }
  out->num_rows = count;
  *pos += count;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

SortOp::SortOp(Schema output_schema, OperatorPtr child,
               std::vector<SortKey> keys)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

void SortOp::Open() {
  child_->Open();
  consumed_ = false;
  pos_ = 0;
}

void SortOp::Consume() {
  buffer_ = MakeTable(output_schema_);
  Batch in;
  while (child_->NextTimed(&in)) buffer_->AppendBatch(in);
  order_.resize(buffer_->num_rows());
  for (int64_t i = 0; i < buffer_->num_rows(); ++i) order_[i] = i;
  std::vector<int> key_idx = ResolveKeys(output_schema_, keys_);
  RowComparator cmp{buffer_.get(), &key_idx, &keys_};
  std::sort(order_.begin(), order_.end(), cmp);
  consumed_ = true;
}

bool SortOp::Next(Batch* out) {
  if (!consumed_) Consume();
  return EmitOrdered(output_schema_, *buffer_, order_, &pos_, out);
}

double SortOp::Progress() const {
  if (!consumed_) return 0.0;
  if (order_.empty()) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(order_.size());
}

// ---------------------------------------------------------------------------
// TopNOp
// ---------------------------------------------------------------------------

TopNOp::TopNOp(Schema output_schema, OperatorPtr child,
               std::vector<SortKey> keys, int64_t n)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      keys_(std::move(keys)),
      n_(n) {
  RDB_CHECK(n_ > 0);
}

void TopNOp::Open() {
  child_->Open();
  consumed_ = false;
  pos_ = 0;
}

void TopNOp::Consume() {
  candidates_ = MakeTable(output_schema_);
  std::vector<int> key_idx = ResolveKeys(output_schema_, keys_);

  // Max-heap of row ids into candidates_: the root is the *worst* of the
  // currently-best N rows, so an incoming better row replaces it.
  std::vector<int64_t> heap;
  heap.reserve(n_ + 1);
  RowComparator less{candidates_.get(), &key_idx, &keys_};
  auto heap_cmp = [&](int64_t a, int64_t b) { return less(a, b); };

  Batch in;
  while (child_->NextTimed(&in)) {
    for (int64_t r = 0; r < in.num_rows; ++r) {
      // Append the row, then keep it only if it improves the heap.
      std::vector<Datum> row;
      row.reserve(in.columns.size());
      for (const auto& c : in.columns) row.push_back(c->GetDatum(r));
      candidates_->AppendRow(row);
      int64_t rid = candidates_->num_rows() - 1;
      if (static_cast<int64_t>(heap.size()) < n_) {
        heap.push_back(rid);
        std::push_heap(heap.begin(), heap.end(), heap_cmp);
      } else if (less(rid, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), heap_cmp);
        heap.back() = rid;
        std::push_heap(heap.begin(), heap.end(), heap_cmp);
      }
      // Compact the candidate pool when it has grown well past the heap.
      if (candidates_->num_rows() > 4 * n_ + 1024) {
        TablePtr live = MakeTable(output_schema_);
        std::vector<int64_t> remap(heap.size());
        for (size_t h = 0; h < heap.size(); ++h) {
          std::vector<Datum> lr;
          lr.reserve(candidates_->num_columns());
          for (int c = 0; c < candidates_->num_columns(); ++c) {
            lr.push_back(candidates_->Get(heap[h], c));
          }
          live->AppendRow(lr);
          remap[h] = static_cast<int64_t>(h);
        }
        candidates_ = live;
        heap = remap;
        less.table = candidates_.get();  // must precede make_heap
        std::make_heap(heap.begin(), heap.end(), heap_cmp);
      }
    }
  }

  order_ = heap;
  RowComparator final_cmp{candidates_.get(), &key_idx, &keys_};
  std::sort(order_.begin(), order_.end(), final_cmp);
  consumed_ = true;
}

bool TopNOp::Next(Batch* out) {
  if (!consumed_) Consume();
  return EmitOrdered(output_schema_, *candidates_, order_, &pos_, out);
}

double TopNOp::Progress() const {
  if (!consumed_) return 0.0;
  if (order_.empty()) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(order_.size());
}

// ---------------------------------------------------------------------------
// Hash-table helpers
// ---------------------------------------------------------------------------

namespace {

// Seed of every row hash: the chain of ColumnVector::HashRow over the key
// columns, computed per batch with HashRows.
constexpr uint64_t kRowHashSeed = 0x9e3779b97f4a7c15ULL;

void HashKeys(const Batch& batch, const std::vector<int>& key_idx,
              std::vector<uint64_t>* hashes) {
  hashes->assign(batch.num_rows, kRowHashSeed);
  for (int k : key_idx) {
    batch.columns[k]->HashRows(batch.num_rows, hashes->data());
  }
}

const void* Storage(const ColumnVector& c) {
  switch (c.type()) {
    case TypeId::kBool:
      return c.Raw<uint8_t>();
    case TypeId::kInt32:
    case TypeId::kDate:
      return c.Raw<int32_t>();
    case TypeId::kInt64:
      return c.Raw<int64_t>();
    case TypeId::kDouble:
      return c.Raw<double>();
    case TypeId::kString:
      return c.Raw<std::string>();
  }
  RDB_UNREACHABLE("bad type");
}

KeyPair BindKeys(const ColumnVector& a, const ColumnVector& b) {
  RDB_CHECK_MSG(a.type() == b.type(), "hash key type mismatch");
  return {a.type(), Storage(a), Storage(b)};
}

template <typename T>
bool CellsEqual(const KeyPair& k, int64_t a, int64_t b) {
  return static_cast<const T*>(k.a)[a] == static_cast<const T*>(k.b)[b];
}

bool KeysEqual(const std::vector<KeyPair>& keys, int64_t a, int64_t b) {
  for (const KeyPair& k : keys) {
    bool equal = false;
    switch (k.type) {
      case TypeId::kBool:
        equal = CellsEqual<uint8_t>(k, a, b);
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        equal = CellsEqual<int32_t>(k, a, b);
        break;
      case TypeId::kInt64:
        equal = CellsEqual<int64_t>(k, a, b);
        break;
      case TypeId::kDouble:
        equal = CellsEqual<double>(k, a, b);
        break;
      case TypeId::kString:
        equal = CellsEqual<std::string>(k, a, b);
        break;
    }
    if (!equal) return false;
  }
  return true;
}

// Smallest power of two >= max(n, 1).
size_t BucketCount(size_t n) {
  size_t b = 1;
  while (b < n) b <<= 1;
  return b;
}

// Appends typed results, converting like ColumnVector::Append when the
// output column has another type.
void AppendInt64s(ColumnVector* col, const int64_t* v, int64_t n) {
  if (col->type() == TypeId::kInt64) {
    col->Data<int64_t>().insert(col->Data<int64_t>().end(), v, v + n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) col->Append(v[i]);
}

void AppendDoubles(ColumnVector* col, const double* v, int64_t n) {
  if (col->type() == TypeId::kDouble) {
    col->Data<double>().insert(col->Data<double>().end(), v, v + n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) col->Append(v[i]);
}

// MIN/MAX order: DatumCompare's, so numerics compare as doubles (int64
// values beyond 2^53 may tie, and NaN never replaces nor is replaced).
template <typename T>
bool ExtremeLess(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, std::string>) {
    return a < b;
  } else {
    return static_cast<double>(a) < static_cast<double>(b);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// HashAggOp
// ---------------------------------------------------------------------------

HashAggOp::HashAggOp(Schema output_schema, OperatorPtr child,
                     std::vector<std::string> group_by,
                     std::vector<AggItem> aggs)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  const Schema& in = child_->output_schema();
  for (const auto& g : group_by_) group_idx_.push_back(in.IndexOfChecked(g));
  agg_args_.reserve(aggs_.size());
  for (const auto& a : aggs_) agg_args_.emplace_back(*a.arg, in);
}

void HashAggOp::Open() {
  child_->Open();
  consumed_ = false;
  pos_ = 0;
}

void HashAggOp::Link(int64_t group) {
  int64_t& head = (*heads_)[(*group_hashes_)[group] & (heads_->size() - 1)];
  (*next_)[group] = head;
  head = group;
}

void HashAggOp::AddGroupSlots() {
  group_rows_->push_back(0);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggState& st = states_[a];
    if (aggs_[a].fn == AggFunc::kSum || aggs_[a].fn == AggFunc::kAvg) {
      if (st.double_sum) {
        st.dsum->push_back(0);
      } else {
        st.isum->push_back(0);
      }
    }
  }
}

int64_t HashAggOp::AddGroup(const Batch& batch,
                            const std::vector<ColumnPtr>& args, int64_t row,
                            uint64_t hash) {
  for (size_t k = 0; k < group_idx_.size(); ++k) {
    group_keys_[k]->AppendRange(*batch.columns[group_idx_[k]], row, 1);
  }
  group_hashes_->push_back(hash);
  next_->push_back(-1);
  AddGroupSlots();
  for (size_t a = 0; a < aggs_.size(); ++a) {
    // The group's first value; folding the same row again is a no-op.
    std::optional<ScratchColumn>& extreme = states_[a].extreme;
    if (extreme) (*extreme)->AppendRange(*args[a], row, 1);
  }
  const int64_t g = num_groups_++;
  if (static_cast<size_t>(num_groups_) <= heads_->size()) {
    Link(g);
  } else {
    // Load factor above 1: double the buckets and relink every group
    // from its stored hash (keys are unique, so chain order is free).
    heads_->assign(heads_->size() * 2, -1);
    for (int64_t i = 0; i < num_groups_; ++i) Link(i);
  }
  return g;
}

void HashAggOp::AssignGroups(const Batch& batch,
                             const std::vector<ColumnPtr>& args) {
  HashKeys(batch, group_idx_, &batch_hashes_);
  batch_groups_.resize(batch.num_rows);
  // Group key storage moves as groups are appended: rebind after each.
  auto bind = [&] {
    keys_.clear();
    for (size_t k = 0; k < group_idx_.size(); ++k) {
      keys_.push_back(
          BindKeys(*batch.columns[group_idx_[k]], *group_keys_[k]));
    }
  };
  bind();
  for (int64_t r = 0; r < batch.num_rows; ++r) {
    const uint64_t h = batch_hashes_[r];
    int64_t g = (*heads_)[h & (heads_->size() - 1)];
    while (g >= 0 && !((*group_hashes_)[g] == h && KeysEqual(keys_, r, g))) {
      g = (*next_)[g];
    }
    if (g < 0) {
      g = AddGroup(batch, args, r, h);
      bind();
    }
    batch_groups_[r] = g;
  }
}

void HashAggOp::Accumulate(size_t agg, const ColumnVector& arg, int64_t n) {
  AggState& st = states_[agg];
  const int64_t* group = batch_groups_.data();
  switch (aggs_[agg].fn) {
    case AggFunc::kCount:
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (agg_args_[agg].type() == TypeId::kDouble) {
        const double* v = arg.Raw<double>();
        // Integral SUM output over a double argument stays 0 (isum).
        if (!st.double_sum) return;
        double* sum = st.dsum->data();
        for (int64_t r = 0; r < n; ++r) sum[group[r]] += v[r];
        return;
      }
      auto fold = [&](const auto* v) {
        if (st.double_sum) {
          double* sum = st.dsum->data();
          for (int64_t r = 0; r < n; ++r) {
            sum[group[r]] += static_cast<double>(v[r]);
          }
        } else {
          int64_t* sum = st.isum->data();
          for (int64_t r = 0; r < n; ++r) sum[group[r]] += v[r];
        }
      };
      if (agg_args_[agg].type() == TypeId::kInt64) {
        fold(arg.Raw<int64_t>());
      } else {
        fold(arg.Raw<int32_t>());
      }
      return;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = aggs_[agg].fn == AggFunc::kMin;
      // The global group starts empty: seed it with its first value.
      if ((*st.extreme)->size() < num_groups_) {
        (*st.extreme)->AppendRange(arg, 0, 1);
      }
      (*st.extreme)->VisitStorage([&](auto& vals) {
        using T = typename std::decay_t<decltype(vals)>::value_type;
        const T* v = arg.Raw<T>();
        for (int64_t r = 0; r < n; ++r) {
          T& cur = vals[group[r]];
          if (is_min ? ExtremeLess(v[r], cur) : ExtremeLess(cur, v[r])) {
            cur = v[r];
          }
        }
      });
      return;
    }
  }
}

void HashAggOp::Consume() {
  const bool global = group_by_.empty();
  group_keys_.clear();
  for (size_t k = 0; k < group_by_.size(); ++k) {
    group_keys_.emplace_back(output_schema_.field(static_cast<int>(k)).type);
  }
  group_hashes_->clear();
  group_rows_->clear();
  next_->clear();
  heads_->assign(global ? 1 : 256, -1);
  states_.clear();
  states_.reserve(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggState& st = states_.emplace_back();
    const TypeId out =
        output_schema_.field(static_cast<int>(group_by_.size() + a)).type;
    switch (aggs_[a].fn) {
      case AggFunc::kSum:
        st.double_sum = out == TypeId::kDouble;
        break;
      case AggFunc::kAvg:
        st.double_sum = true;
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        st.extreme.emplace(agg_args_[a].type());
        break;
      case AggFunc::kCount:
        break;
    }
  }
  num_groups_ = 0;
  if (global) {
    // The single implicit group exists even for empty input.
    AddGroupSlots();
    num_groups_ = 1;
  }

  Batch batch;
  std::vector<ColumnPtr> args(aggs_.size());
  while (child_->NextTimed(&batch)) {
    const int64_t n = batch.num_rows;
    if (n == 0) continue;
    // COUNT never reads its argument, so it is not evaluated.
    for (size_t a = 0; a < aggs_.size(); ++a) {
      args[a] = aggs_[a].fn == AggFunc::kCount
                    ? nullptr
                    : agg_args_[a].Eval(batch);
    }
    if (global) {
      batch_groups_.assign(n, 0);
    } else {
      AssignGroups(batch, args);
    }
    int64_t* rows = group_rows_->data();
    for (int64_t r = 0; r < n; ++r) ++rows[batch_groups_[r]];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (args[a] != nullptr) Accumulate(a, *args[a], n);
    }
  }
  consumed_ = true;
}

bool HashAggOp::Next(Batch* out) {
  if (!consumed_) Consume();
  if (pos_ >= num_groups_) return false;
  int64_t count = std::min(kDefaultBatchRows, num_groups_ - pos_);
  InitBatch(output_schema_, out);
  const int ng = static_cast<int>(group_by_.size());
  for (int k = 0; k < ng; ++k) {
    out->columns[k]->AppendRange(*group_keys_[k], pos_, count);
  }
  const int64_t* rows = group_rows_->data() + pos_;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ColumnVector* col = out->columns[ng + static_cast<int>(a)].get();
    const AggState& st = states_[a];
    switch (aggs_[a].fn) {
      case AggFunc::kSum:
        if (st.double_sum) {
          AppendDoubles(col, st.dsum->data() + pos_, count);
        } else {
          AppendInt64s(col, st.isum->data() + pos_, count);
        }
        break;
      case AggFunc::kCount:
        AppendInt64s(col, rows, count);
        break;
      case AggFunc::kAvg: {
        std::vector<double> avg(count);
        const double* sum = st.dsum->data() + pos_;
        for (int64_t i = 0; i < count; ++i) {
          avg[i] = rows[i] == 0 ? 0.0 : sum[i] / rows[i];
        }
        AppendDoubles(col, avg.data(), count);
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const ColumnVector& vals = **st.extreme;
        if (col->type() == vals.type() && vals.size() >= pos_ + count) {
          col->AppendRange(vals, pos_, count);
          break;
        }
        // Another output type, or the global group over empty input.
        for (int64_t i = 0; i < count; ++i) {
          col->Append(rows[i] == 0 ? PadValue(col->type())
                                   : vals.GetDatum(pos_ + i));
        }
        break;
      }
    }
  }
  out->num_rows = count;
  pos_ += count;
  return true;
}

double HashAggOp::Progress() const {
  if (!consumed_) return 0.0;
  if (num_groups_ == 0) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(num_groups_);
}

// ---------------------------------------------------------------------------
// HashJoinOp
// ---------------------------------------------------------------------------

HashJoinOp::HashJoinOp(Schema output_schema, OperatorPtr left,
                       OperatorPtr right, JoinKind kind,
                       std::vector<std::string> left_keys,
                       std::vector<std::string> right_keys)
    : Operator(std::move(output_schema)),
      left_(std::move(left)),
      right_(std::move(right)),
      kind_(kind),
      emit_right_(kind == JoinKind::kInner || kind == JoinKind::kLeftOuter ||
                  kind == JoinKind::kSingle) {
  for (const auto& k : left_keys) {
    left_key_idx_.push_back(left_->output_schema().IndexOfChecked(k));
  }
  for (const auto& k : right_keys) {
    right_key_idx_.push_back(right_->output_schema().IndexOfChecked(k));
  }
}

void HashJoinOp::Open() {
  left_->Open();
  right_->Open();
  built_ = false;
}

void HashJoinOp::Build() {
  const Schema& rs = right_->output_schema();
  // Kept columns, as indexes into the right schema.
  std::vector<int> kept;
  if (emit_right_) {
    for (int c = 0; c < rs.num_fields(); ++c) kept.push_back(c);
    build_key_col_ = right_key_idx_;
  } else {
    kept = right_key_idx_;
    build_key_col_.clear();
    for (size_t k = 0; k < kept.size(); ++k) {
      build_key_col_.push_back(static_cast<int>(k));
    }
  }
  build_cols_.clear();
  for (int c : kept) build_cols_.emplace_back(rs.field(c).type);

  build_hashes_->clear();
  Batch in;
  while (right_->NextTimed(&in)) {
    for (size_t i = 0; i < kept.size(); ++i) {
      build_cols_[i]->AppendAll(*in.columns[kept[i]]);
    }
    const size_t base = build_hashes_->size();
    build_hashes_->resize(base + in.num_rows, kRowHashSeed);
    for (int k : right_key_idx_) {
      in.columns[k]->HashRows(in.num_rows, build_hashes_->data() + base);
    }
  }
  const int64_t n = static_cast<int64_t>(build_hashes_->size());
  heads_->assign(BucketCount(build_hashes_->size()), -1);
  mask_ = heads_->size() - 1;
  next_->resize(n);
  // Head insertion in row order: each chain lists its rows newest first,
  // the order the node-based multimap this table replaced gave equal keys.
  for (int64_t r = 0; r < n; ++r) {
    int64_t& head = (*heads_)[(*build_hashes_)[r] & mask_];
    (*next_)[r] = head;
    head = r;
  }
  if (kind_ == JoinKind::kLeftOuter) {
    // Row n pads probe rows without a match.
    for (size_t i = 0; i < kept.size(); ++i) {
      build_cols_[i]->Append(PadValue(rs.field(kept[i]).type));
    }
  }
  built_ = true;
}

bool HashJoinOp::Next(Batch* out) {
  if (!built_) Build();
  Batch in;
  const int ncols_left = left_->output_schema().num_fields();
  const int64_t pad_row = static_cast<int64_t>(build_hashes_->size());
  const uint64_t* build_hash = build_hashes_->data();
  const int64_t* heads = heads_->data();
  const int64_t* next = next_->data();
  while (left_->NextTimed(&in)) {
    HashKeys(in, left_key_idx_, &probe_hashes_);
    keys_.clear();
    for (size_t k = 0; k < left_key_idx_.size(); ++k) {
      keys_.push_back(BindKeys(*in.columns[left_key_idx_[k]],
                               *build_cols_[build_key_col_[k]]));
    }
    // Gather (probe_row, build_row) pairs.
    probe_sel_.clear();
    build_sel_.clear();
    for (int64_t r = 0; r < in.num_rows; ++r) {
      const uint64_t h = probe_hashes_[r];
      int match_count = 0;
      for (int64_t br = heads[h & mask_]; br >= 0; br = next[br]) {
        if (build_hash[br] != h || !KeysEqual(keys_, r, br)) continue;
        ++match_count;
        // Semi and anti joins only need existence.
        if (!emit_right_) break;
        probe_sel_.push_back(static_cast<int32_t>(r));
        build_sel_.push_back(br);
        RDB_CHECK_MSG(kind_ != JoinKind::kSingle || match_count <= 1,
                      "kSingle join found multiple matches");
      }
      switch (kind_) {
        case JoinKind::kSemi:
          if (match_count > 0) probe_sel_.push_back(static_cast<int32_t>(r));
          break;
        case JoinKind::kAnti:
          if (match_count == 0) probe_sel_.push_back(static_cast<int32_t>(r));
          break;
        case JoinKind::kLeftOuter:
          if (match_count == 0) {
            probe_sel_.push_back(static_cast<int32_t>(r));
            build_sel_.push_back(pad_row);
          }
          break;
        default:
          break;
      }
    }
    if (probe_sel_.empty()) continue;
    // Every probe row kept once, in order (a foreign-key join, or a semi
    // or anti join passing the whole batch): forward the probe columns
    // untouched (zero copy) instead of gathering them.
    bool identity = static_cast<int64_t>(probe_sel_.size()) == in.num_rows;
    for (size_t i = 0; identity && i < probe_sel_.size(); ++i) {
      identity = probe_sel_[i] == static_cast<int32_t>(i);
    }
    if (identity && !emit_right_) {
      *out = std::move(in);
      return true;
    }

    InitBatch(output_schema_, out);
    for (int c = 0; c < ncols_left; ++c) {
      if (identity) {
        out->columns[c] = in.columns[c];
      } else {
        out->columns[c]->AppendSelected(*in.columns[c], probe_sel_);
      }
    }
    if (emit_right_) {
      for (size_t c = 0; c < build_cols_.size(); ++c) {
        out->columns[ncols_left + static_cast<int>(c)]->AppendSelected(
            *build_cols_[c], build_sel_.data(),
            static_cast<int64_t>(build_sel_.size()));
      }
    }
    out->num_rows = static_cast<int64_t>(probe_sel_.size());
    return true;
  }
  return false;
}

void HashJoinOp::Close() {
  left_->Close();
  right_->Close();
}

}  // namespace recycledb
