// Lightweight column compression for the cold tier (and any other
// at-rest column image).
//
// Three classic codecs over the engine's columnar vectors:
//
//   kRle  — run-length: (run_len, value) pairs; any type. Wins on sorted
//           or low-churn data (region-sweep slices, constant columns).
//   kDict — dictionary: distinct values + per-row codes at the minimal
//           byte width; wins on low-cardinality strings.
//   kFor  — frame-of-reference: int32/int64/date as unsigned deltas from
//           the column minimum at the minimal byte width; wins on dense
//           integer ranges (keys, days).
//
// EncodeColumn picks the smallest encoding (falling back to kRaw when
// nothing beats the raw image), so a spill payload is never larger than
// the uncompressed column. Decoding is bit-exact: doubles are
// compared/stored by bit pattern, never by value arithmetic.
//
// SelectRangeEncoded evaluates a range predicate directly on the encoded
// image — one comparison per RLE run / dictionary entry instead of per
// row — returning the same selection vector a decode-then-filter pass
// would produce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "storage/column.h"

namespace recycledb {

/// Self-describing per-column encodings (stable on-disk ids; append
/// only).
enum class ColumnEncoding : uint8_t {
  kRaw = 0,
  kRle = 1,
  kDict = 2,
  kFor = 3,
};

const char* EncodingName(ColumnEncoding e);

/// One encoded column image: the encoding id, the logical type and row
/// count, and the codec-specific payload bytes.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  TypeId type = TypeId::kInt64;
  int64_t num_rows = 0;
  std::string payload;
};

/// Encodes `col` with the smallest applicable codec (size computed
/// analytically per candidate before encoding anything).
EncodedColumn EncodeColumn(const ColumnVector& col);

/// Encodes with a specific codec; InvalidArgument for unsupported
/// type/codec combinations (kFor on strings/doubles/bools).
Status EncodeColumnAs(const ColumnVector& col, ColumnEncoding encoding,
                      EncodedColumn* out);

/// Rebuilds an owning column, bit-identical to the encoder's input.
/// Corrupt payloads yield a recoverable error Status (bounds-checked
/// before every allocation), never an abort.
Status DecodeColumn(const EncodedColumn& enc, ColumnPtr* out);

/// Evaluates `range` directly on the encoded image and appends the
/// selected row indexes (ascending) to `*sel` — bit-identical to
/// decoding and filtering, without materializing the column. One
/// comparison per run (kRle) / dictionary entry (kDict); per row
/// otherwise.
Status SelectRangeEncoded(const EncodedColumn& enc,
                          const ColumnInterval& range,
                          std::vector<int32_t>* sel);

}  // namespace recycledb
