// Spill files: the cold tier's on-disk result format.
//
// A spill file holds one materialized recycler result as a simple
// columnar image: a self-describing header (canonical subtree key,
// schema, reference statistics, base tables) followed by the column
// payloads and a trailing checksum. Each column is one contiguous encoded
// block, so read-back rebuilds each ColumnVector with one decode and the
// reloaded table feeds the zero-copy view machinery exactly like a
// freshly materialized result (scans emit O(1) views of its columns).
//
// Layout (all integers little-endian, strings length-prefixed u32):
//
//   "RDBS" magic | u32 version | u64 header_len | header | payload | u64 fnv
//
// The header ends with the uncompressed payload size (so the cold tier
// can report compression ratios) and the per-base-table row high-water
// marks the result was computed at (delta maintenance; see
// recycler/delta.h). The payload stores each column as a self-describing
// encoded block
//
//   u8 encoding | u64 payload_len | payload
//
// using the codecs in storage/compression.h (raw / RLE / dictionary /
// frame-of-reference, chosen per column by size). Readers accept only
// the current version; a file of any other version is rejected like a
// corrupt one (the cold tier deletes it at open).
//
// The checksum is FNV-1a over header + payload. Writers stream to
// "<path>.tmp" and rename into place, so a final-named file is always
// complete: a crash can lose the entry being written, never produce a
// half-readable one. Readers return recoverable Status (never abort) on
// truncation, checksum mismatch, or version/magic drift.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "storage/table.h"

namespace recycledb {

/// Spill format version; bump on any layout change. Versions 1 (raw
/// column images) and 2 (no row stamps) are no longer read.
inline constexpr uint32_t kSpillFormatVersion = 3;

/// Everything the cold tier must know about a spilled result without
/// touching its payload: the restart-stable identity plus the reference
/// statistics needed to re-seed a recycler-graph node after a restart.
struct SpillFileMeta {
  /// Canonical structural key of the producing graph subtree
  /// (Recycler::CanonicalSubtreeKey): stable across process restarts.
  std::string canon_key;
  /// Column names at spill time (graph name space of the *writing*
  /// process; readers rename positionally into their own graph space).
  std::vector<std::string> column_names;
  /// Column types (positional); verified against the adopting node.
  std::vector<TypeId> column_types;
  int64_t num_rows = 0;
  /// Reference statistics restored on orphan adoption.
  double bcost_ms = 0;
  double h = 0;
  /// Benefit at spill time (diagnostics only).
  double benefit = 0;
  /// Base tables under the producing subtree (update invalidation must
  /// purge spilled entries too).
  std::vector<std::string> base_tables;
  /// Uncompressed payload size in bytes (the raw column images this
  /// file would hold without compression). Computed by WriteSpillFile.
  int64_t raw_bytes = 0;
  /// Per-base-table row high-water marks at computation time: the result
  /// was computed from rows [0, rows) of each named table.
  /// Replace-epochs are process-local and deliberately NOT persisted;
  /// adoption re-anchors the stamps against the live catalog and drops
  /// images whose marks exceed the current table (shrunk/replaced base).
  /// Empty for a result over unstamped nodes (such entries stay
  /// unstamped and appends hard-invalidate them).
  std::vector<std::pair<std::string, int64_t>> table_versions;
};

/// Writes `table` with `meta` to `path` via a "<path>.tmp" + rename
/// protocol. `compress` picks the smallest codec per column; when false
/// every column is stored kRaw (still framed as encoded blocks). On any
/// error the final path is left untouched (a stale tmp file may remain;
/// directory scans delete those). `meta.raw_bytes` is computed by the
/// writer; the caller's value is ignored, and `raw_bytes` (optional)
/// receives the computed one.
Status WriteSpillFile(const std::string& path, const Table& table,
                      const SpillFileMeta& meta, bool compress = true,
                      int64_t* raw_bytes = nullptr);

/// Reads only the header of `path` (directory-scan fast path; the
/// payload checksum is NOT verified here).
Status ReadSpillMeta(const std::string& path, SpillFileMeta* meta);

/// Reads the full file, verifies the checksum, and rebuilds the table
/// (owning columns named `meta->column_names`). Corrupt or truncated
/// files yield a recoverable error Status, never an abort.
Status ReadSpillTable(const std::string& path, SpillFileMeta* meta,
                      TablePtr* out);

/// Like ReadSpillTable, but materializes only the rows whose value in
/// column `filter_column` (index into the file's columns) falls in
/// `range`: the selection is computed on the *encoded* column image
/// (SelectRangeEncoded — one comparison per run/dictionary entry) and
/// the remaining columns are gathered through it, so a cold slice
/// consumed by a subsumption/stitch rewrite never materializes rows the
/// rewrite would filter out anyway. Row order is preserved, so the
/// result is bit-identical to a full load followed by the same range
/// filter. An out-of-range column index returns a recoverable error.
Status ReadSpillTableFiltered(const std::string& path, SpillFileMeta* meta,
                              int filter_column, const ColumnInterval& range,
                              TablePtr* out);

/// Closes a spill file opened by OpenSpillFile.
struct SpillFileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// A spill file open for reading. The handle keeps reading the file it
/// was opened on, even if its path is unlinked or renamed over
/// afterwards, so a caller can open under a lock and read after
/// releasing it.
using SpillFile = std::unique_ptr<std::FILE, SpillFileCloser>;

/// Opens `path` for the handle overloads below; NotFound when it cannot
/// be opened.
Status OpenSpillFile(const std::string& path, SpillFile* out);

/// ReadSpillTable / ReadSpillTableFiltered over an opened `file`, which
/// they consume; `path` only names the file in error messages.
Status ReadSpillTable(SpillFile file, const std::string& path,
                      SpillFileMeta* meta, TablePtr* out);
Status ReadSpillTableFiltered(SpillFile file, const std::string& path,
                              SpillFileMeta* meta, int filter_column,
                              const ColumnInterval& range, TablePtr* out);

}  // namespace recycledb
