// Concrete physical operators: scans, filter, project, union, limit,
// sort/top-N, hash aggregate, hash join.
#pragma once

#include <optional>

#include "exec/operator.h"
#include "exec/scratch.h"
#include "expr/aggregate.h"
#include "expr/program.h"
#include "plan/table_function.h"

namespace recycledb {

/// Base-table (or materialized-table) scan with column pruning.
class ScanOp : public Operator {
 public:
  /// A zone-map prune hint: the scan may skip any 1024-row block whose
  /// zone on `output_column` (index into this scan's output schema)
  /// excludes `range`. Conservative metadata only — the parent filter
  /// still evaluates its full predicate, so results are bit-identical
  /// with or without hints.
  struct PruneHint {
    int output_column = 0;
    ColumnInterval range;
  };

  /// `table` must outlive the operator. `column_indices` selects and orders
  /// the emitted columns.
  ScanOp(Schema output_schema, TablePtr table, std::vector<int> column_indices);

  /// Installs prune hints (from the parent Select's range conjuncts).
  /// Must be called before Open().
  void SetPruneHints(std::vector<PruneHint> hints);

  /// Restricts the scan to table rows [begin, end) — the delta window of
  /// a delta-maintenance rewrite. `end` of -1 means "to the end of the
  /// table"; both bounds are clamped to the table size at Open(). Zone-map
  /// pruning still applies inside the window (edge blocks use the full
  /// block's zone, which is conservative). Must be called before Open().
  void SetRowWindow(int64_t begin, int64_t end);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override {}
  double Progress() const override;

 private:
  bool BlockPruned(int64_t block) const;

  TablePtr table_;
  std::vector<int> column_indices_;
  std::vector<PruneHint> hints_;
  int64_t begin_ = 0;    // requested window start
  int64_t end_ = -1;     // requested window end (-1 = table end)
  int64_t limit_ = 0;    // clamped window end, computed at Open
  int64_t pos_ = 0;
};

/// Table-valued function scan: evaluates the function at Open, streams.
class FunctionScanOp : public Operator {
 public:
  FunctionScanOp(Schema output_schema, const TableFunction* fn,
                 std::vector<Datum> args, const Catalog* catalog);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override {}
  double Progress() const override;

 private:
  const TableFunction* fn_;
  std::vector<Datum> args_;
  const Catalog* catalog_;
  TablePtr result_;
  std::vector<int> column_indices_;  // all of result_'s columns, in order
  int64_t pos_ = 0;
};

/// Filter: evaluates a predicate (compiled once) and gathers the selected
/// rows; a batch whose rows all pass is forwarded untouched.
class FilterOp : public Operator {
 public:
  FilterOp(Schema output_schema, OperatorPtr child, const ExprPtr& predicate);

  void Open() override { child_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override { return child_->Progress(); }

 private:
  OperatorPtr child_;
  ExprProgram predicate_;
  std::vector<int32_t> sel_;  // passing rows of the current batch
};

/// Project: computes expressions into a new column layout.
class ProjectOp : public Operator {
 public:
  ProjectOp(Schema output_schema, OperatorPtr child,
            const std::vector<ProjItem>& items);

  void Open() override { child_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override { return child_->Progress(); }

 private:
  OperatorPtr child_;
  std::vector<ExprProgram> items_;  // one compiled program per output column
};

/// Limit: passes through the first N rows.
class LimitOp : public Operator {
 public:
  LimitOp(Schema output_schema, OperatorPtr child, int64_t n);

  void Open() override { child_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  OperatorPtr child_;
  int64_t remaining_;
  int64_t n_;
};

/// Bag union: streams each child in order (positional columns).
class UnionAllOp : public Operator {
 public:
  UnionAllOp(Schema output_schema, std::vector<OperatorPtr> children);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;
  double Progress() const override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// Full sort (blocking): materializes input, sorts boxed rows, streams.
class SortOp : public Operator {
 public:
  SortOp(Schema output_schema, OperatorPtr child, std::vector<SortKey> keys);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  void Consume();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  TablePtr buffer_;
  std::vector<int64_t> order_;
  int64_t pos_ = 0;
  bool consumed_ = false;
};

/// Heap-based top-N (the paper's topN operator: O(M log N), no full sort);
/// output is emitted in sort order.
class TopNOp : public Operator {
 public:
  TopNOp(Schema output_schema, OperatorPtr child, std::vector<SortKey> keys,
         int64_t n);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  void Consume();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  int64_t n_;
  TablePtr candidates_;        // rows currently in the heap
  std::vector<int64_t> order_; // final sorted row order into candidates_
  int64_t pos_ = 0;
  bool consumed_ = false;
};

/// A hash-key column pair with both storages resolved once per batch,
/// so row equality is RowEquals' (== on the storage type) without its
/// per-call checks and dispatch. `a` is the batch side, `b` the table.
struct KeyPair {
  TypeId type;
  const void* a;
  const void* b;
};

/// Hash aggregate (blocking). With empty group_by produces exactly one row.
/// Groups live in a flat chained hash table and are emitted in
/// first-seen order (DESIGN.md, "Execution hash tables and scratch
/// memory").
class HashAggOp : public Operator {
 public:
  HashAggOp(Schema output_schema, OperatorPtr child,
            std::vector<std::string> group_by, std::vector<AggItem> aggs);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  /// One aggregate's per-group state. Only what its output reads is
  /// kept: a double sum (AVG, floating SUM) or an int64 sum (integral
  /// SUM), or the running MIN/MAX in the argument's type. COUNT and
  /// AVG's divisor read the shared per-group row counts.
  struct AggState {
    bool double_sum = false;
    ScratchVector<double> dsum;
    ScratchVector<int64_t> isum;
    std::optional<ScratchColumn> extreme;
  };

  void Consume();
  /// Fills batch_groups_ with the group of every row of `batch`, adding
  /// groups (seeded from `args`) for unseen keys.
  void AssignGroups(const Batch& batch, const std::vector<ColumnPtr>& args);
  int64_t AddGroup(const Batch& batch, const std::vector<ColumnPtr>& args,
                   int64_t row, uint64_t hash);
  /// Appends a group's row count and zeroed sums.
  void AddGroupSlots();
  void Link(int64_t group);
  void Accumulate(size_t agg, const ColumnVector& arg, int64_t n);

  OperatorPtr child_;
  std::vector<std::string> group_by_;
  std::vector<AggItem> aggs_;
  std::vector<int> group_idx_;              // group column indexes in child
  std::vector<ExprProgram> agg_args_;       // compiled aggregate arguments

  std::vector<ScratchColumn> group_keys_;   // one row per group
  ScratchVector<uint64_t> group_hashes_;
  ScratchVector<int64_t> group_rows_;       // input rows folded per group
  ScratchVector<int64_t> heads_;            // bucket -> newest group, or -1
  ScratchVector<int64_t> next_;             // group -> next in its bucket
  std::vector<AggState> states_;
  std::vector<uint64_t> batch_hashes_;
  std::vector<int64_t> batch_groups_;
  std::vector<KeyPair> keys_;               // batch keys vs. group_keys_
  int64_t num_groups_ = 0;
  int64_t pos_ = 0;
  bool consumed_ = false;
};

/// Hash equi-join; the right child is the build side. Matches of one
/// probe row are emitted newest build row first.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(Schema output_schema, OperatorPtr left, OperatorPtr right,
             JoinKind kind, std::vector<std::string> left_keys,
             std::vector<std::string> right_keys);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;
  double Progress() const override { return left_->Progress(); }

 private:
  void Build();

  OperatorPtr left_, right_;
  JoinKind kind_;
  bool emit_right_;
  std::vector<int> left_key_idx_, right_key_idx_;
  /// The build side's rows: every right column when the join emits them
  /// (plus one pad row for left-outer misses), else only the key columns.
  std::vector<ScratchColumn> build_cols_;
  std::vector<int> build_key_col_;          // key k -> index in build_cols_
  ScratchVector<uint64_t> build_hashes_;
  ScratchVector<int64_t> heads_;            // bucket -> newest row, or -1
  ScratchVector<int64_t> next_;             // row -> next older in bucket
  uint64_t mask_ = 0;
  std::vector<uint64_t> probe_hashes_;
  std::vector<KeyPair> keys_;               // probe keys vs. build keys
  std::vector<int32_t> probe_sel_;
  std::vector<int64_t> build_sel_;
  bool built_ = false;
};

}  // namespace recycledb
