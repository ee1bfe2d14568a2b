#include "storage/compression.h"

#include <cstring>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "common/macros.h"
#include "common/string_util.h"
#include "storage/wire_format.h"

namespace recycledb {

using wire::Cursor;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

const char* EncodingName(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kRaw: return "raw";
    case ColumnEncoding::kRle: return "rle";
    case ColumnEncoding::kDict: return "dict";
    case ColumnEncoding::kFor: return "for";
  }
  return "?";
}

namespace {

// --- typed value plumbing --------------------------------------------------

template <typename T>
size_t ValueBytes(const T&) {
  return sizeof(T);
}
size_t ValueBytes(const std::string& v) { return 4 + v.size(); }

template <typename T>
void PutValue(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutValue(std::string* out, const std::string& v) { PutString(out, v); }

template <typename T>
bool GetValue(Cursor* c, T* v) {
  if (c->remaining() < sizeof(T)) return false;
  std::memcpy(v, c->p + c->pos, sizeof(T));
  c->pos += sizeof(T);
  return true;
}
bool GetValue(Cursor* c, std::string* v) { return c->GetString(v); }

/// Fewest payload bytes one encoded value of T takes (a string is at
/// least its 4-byte length prefix).
template <typename T>
constexpr size_t MinValueBytes() {
  if constexpr (std::is_same_v<T, std::string>) {
    return 4;
  } else {
    return sizeof(T);
  }
}

/// True when the rest of the payload can hold `n` items of at least
/// `bytes_each` bytes: checked before anything is sized from a row count,
/// so an implausible header fails with a Status instead of an allocation.
bool PayloadFits(const Cursor& c, int64_t n, size_t bytes_each) {
  return n >= 0 && static_cast<uint64_t>(n) <= c.remaining() / bytes_each;
}

/// Bit-exact equality: doubles compare by bit pattern so RLE round-trips
/// NaNs and signed zeros unchanged.
template <typename T>
bool BitEq(const T& a, const T& b) {
  return a == b;
}
bool BitEq(const double& a, const double& b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Datum ToDatum(TypeId, uint8_t v) { return static_cast<bool>(v); }
Datum ToDatum(TypeId, int32_t v) { return v; }
Datum ToDatum(TypeId, int64_t v) { return v; }
Datum ToDatum(TypeId, double v) { return v; }
Datum ToDatum(TypeId, const std::string& v) { return v; }

/// One membership test of a boxed value against the interval.
bool InRange(const Datum& v, const ColumnInterval& r) {
  if (!r.lo.unbounded) {
    int c = DatumCompare(v, r.lo.value);
    if (c < 0 || (c == 0 && !r.lo.inclusive)) return false;
  }
  if (!r.hi.unbounded) {
    int c = DatumCompare(v, r.hi.value);
    if (c > 0 || (c == 0 && !r.hi.inclusive)) return false;
  }
  return true;
}

/// Narrows `r` to a closed int64 range [*lo, *hi] when every bounded end
/// is an integer datum (the common case for prune/select ranges over
/// int columns). Returns false when a double/string bound requires the
/// boxed comparison path.
bool IntClosedRange(const ColumnInterval& r, int64_t* lo, int64_t* hi) {
  auto as_int = [](const Datum& d, int64_t* v) {
    if (std::holds_alternative<int32_t>(d)) {
      *v = std::get<int32_t>(d);
      return true;
    }
    if (std::holds_alternative<int64_t>(d)) {
      *v = std::get<int64_t>(d);
      return true;
    }
    return false;
  };
  *lo = std::numeric_limits<int64_t>::min();
  *hi = std::numeric_limits<int64_t>::max();
  if (!r.lo.unbounded) {
    if (!as_int(r.lo.value, lo)) return false;
    if (!r.lo.inclusive) {
      if (*lo == std::numeric_limits<int64_t>::max()) {
        *hi = *lo - 1;  // empty
      } else {
        ++*lo;
      }
    }
  }
  if (!r.hi.unbounded) {
    if (!as_int(r.hi.value, hi)) return false;
    if (!r.hi.inclusive) {
      if (*hi == std::numeric_limits<int64_t>::min()) {
        *lo = *hi + 1;  // empty
      } else {
        --*hi;
      }
    }
  }
  return true;
}

// --- raw -------------------------------------------------------------------

template <typename T>
void RawEncode(const T* data, int64_t n, std::string* out) {
  out->append(reinterpret_cast<const char*>(data),
              static_cast<size_t>(n) * sizeof(T));
}
void RawEncode(const std::string* data, int64_t n, std::string* out) {
  for (int64_t i = 0; i < n; ++i) PutString(out, data[i]);
}

template <typename T>
Status RawDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  if (!PayloadFits(*c, n, sizeof(T))) {
    return Status::Internal("raw payload truncated");
  }
  const size_t need = static_cast<size_t>(n) * sizeof(T);
  out->resize(static_cast<size_t>(n));
  // An empty vector's data() may be null; memcpy requires non-null even
  // for a zero-byte copy.
  if (need > 0) std::memcpy(out->data(), c->p + c->pos, need);
  c->pos += need;
  return Status::OK();
}
Status RawDecode(Cursor* c, int64_t n, std::vector<std::string>* out) {
  if (!PayloadFits(*c, n, MinValueBytes<std::string>())) {
    return Status::Internal("raw payload truncated");
  }
  out->reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::string s;
    if (!c->GetString(&s)) return Status::Internal("raw payload truncated");
    out->push_back(std::move(s));
  }
  return Status::OK();
}

// --- RLE -------------------------------------------------------------------

template <typename T>
void RleEncode(const T* data, int64_t n, std::string* out) {
  std::string body;
  uint32_t num_runs = 0;
  int64_t i = 0;
  while (i < n) {
    int64_t j = i + 1;
    while (j < n && j - i < std::numeric_limits<uint32_t>::max() &&
           BitEq(data[j], data[i])) {
      ++j;
    }
    PutU32(&body, static_cast<uint32_t>(j - i));
    PutValue(&body, data[i]);
    ++num_runs;
    i = j;
  }
  PutU32(out, num_runs);
  out->append(body);
}

template <typename T>
Status RleDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  uint32_t num_runs = 0;
  if (!c->GetU32(&num_runs)) return Status::Internal("rle payload truncated");
  // The runs must add up to n before n rows are allocated.
  const size_t runs_start = c->pos;
  int64_t total = 0;
  for (uint32_t r = 0; r < num_runs; ++r) {
    uint32_t run = 0;
    T v{};
    if (!c->GetU32(&run) || !GetValue(c, &v)) {
      return Status::Internal("rle payload truncated");
    }
    total += run;
    if (run == 0 || total > n) return Status::Internal("rle run overflow");
  }
  if (total != n) return Status::Internal("rle row count mismatch");
  c->pos = runs_start;
  out->reserve(static_cast<size_t>(n));
  for (uint32_t r = 0; r < num_runs; ++r) {
    uint32_t run = 0;
    T v{};
    c->GetU32(&run);
    GetValue(c, &v);
    out->insert(out->end(), static_cast<size_t>(run), v);
  }
  return Status::OK();
}

/// Range kernel over the runs: one comparison per run, not per row.
template <typename T>
Status RleSelectRange(Cursor* c, TypeId type, int64_t n,
                      const ColumnInterval& range, std::vector<int32_t>* sel) {
  uint32_t num_runs = 0;
  if (!c->GetU32(&num_runs)) return Status::Internal("rle payload truncated");
  int64_t row = 0;
  for (uint32_t r = 0; r < num_runs; ++r) {
    uint32_t run = 0;
    T v{};
    if (!c->GetU32(&run) || !GetValue(c, &v)) {
      return Status::Internal("rle payload truncated");
    }
    if (run == 0 || row + run > n) return Status::Internal("rle run overflow");
    if (InRange(ToDatum(type, v), range)) {
      for (uint32_t k = 0; k < run; ++k) {
        sel->push_back(static_cast<int32_t>(row + k));
      }
    }
    row += run;
  }
  if (row != n) return Status::Internal("rle row count mismatch");
  return Status::OK();
}

// --- dictionary ------------------------------------------------------------

int CodeWidth(size_t dict_size) {
  if (dict_size <= 0xff) return 1;
  if (dict_size <= 0xffff) return 2;
  return 4;
}

void PutCode(std::string* out, uint32_t code, int width) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<char>(code >> (8 * i)));
  }
}

bool GetCode(Cursor* c, int width, uint32_t* code) {
  if (c->remaining() < static_cast<size_t>(width)) return false;
  *code = 0;
  for (int i = 0; i < width; ++i) {
    *code |= static_cast<uint32_t>(c->p[c->pos + i]) << (8 * i);
  }
  c->pos += width;
  return true;
}

template <typename T>
void DictEncode(const T* data, int64_t n, std::string* out) {
  std::vector<const T*> dict;
  std::unordered_map<T, uint32_t> index;
  std::string codes;
  std::vector<uint32_t> code_of(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        index.emplace(data[i], static_cast<uint32_t>(dict.size()));
    if (inserted) dict.push_back(&data[i]);
    code_of[static_cast<size_t>(i)] = it->second;
  }
  PutU32(out, static_cast<uint32_t>(dict.size()));
  for (const T* v : dict) PutValue(out, *v);
  const int width = CodeWidth(dict.size());
  out->push_back(static_cast<char>(width));
  for (int64_t i = 0; i < n; ++i) {
    PutCode(out, code_of[static_cast<size_t>(i)], width);
  }
}

template <typename T>
Status DictReadHeader(Cursor* c, int64_t n, std::vector<T>* dict, int* width) {
  uint32_t dict_size = 0;
  if (!c->GetU32(&dict_size)) return Status::Internal("dict payload truncated");
  // A dictionary never has more entries than rows.
  if (dict_size > static_cast<uint64_t>(n)) {
    return Status::Internal("dict size exceeds row count");
  }
  if (!PayloadFits(*c, dict_size, MinValueBytes<T>())) {
    return Status::Internal("dict payload truncated");
  }
  dict->reserve(dict_size);
  for (uint32_t i = 0; i < dict_size; ++i) {
    T v{};
    if (!GetValue(c, &v)) return Status::Internal("dict payload truncated");
    dict->push_back(std::move(v));
  }
  uint8_t w = 0;
  if (!c->GetU8(&w) || (w != 1 && w != 2 && w != 4)) {
    return Status::Internal("dict payload has bad code width");
  }
  *width = w;
  return Status::OK();
}

template <typename T>
Status DictDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  std::vector<T> dict;
  int width = 0;
  RDB_RETURN_NOT_OK(DictReadHeader(c, n, &dict, &width));
  if (!PayloadFits(*c, n, static_cast<size_t>(width))) {
    return Status::Internal("dict payload truncated");
  }
  out->reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    if (!GetCode(c, width, &code) || code >= dict.size()) {
      return Status::Internal("dict payload truncated or code out of range");
    }
    out->push_back(dict[code]);
  }
  return Status::OK();
}

/// Range kernel: one comparison per dictionary entry, then a code scan.
template <typename T>
Status DictSelectRange(Cursor* c, TypeId type, int64_t n,
                       const ColumnInterval& range,
                       std::vector<int32_t>* sel) {
  std::vector<T> dict;
  int width = 0;
  RDB_RETURN_NOT_OK(DictReadHeader(c, n, &dict, &width));
  std::vector<char> in(dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    in[i] = InRange(ToDatum(type, dict[i]), range) ? 1 : 0;
  }
  for (int64_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    if (!GetCode(c, width, &code) || code >= dict.size()) {
      return Status::Internal("dict payload truncated or code out of range");
    }
    if (in[code]) sel->push_back(static_cast<int32_t>(i));
  }
  return Status::OK();
}

// --- frame of reference ----------------------------------------------------

int DeltaWidth(uint64_t max_delta) {
  if (max_delta <= 0xff) return 1;
  if (max_delta <= 0xffff) return 2;
  if (max_delta <= 0xffffffffULL) return 4;
  return 8;
}

template <typename T>
void ForEncode(const T* data, int64_t n, T min_v, std::string* out) {
  uint64_t max_delta = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint64_t d = static_cast<uint64_t>(data[i]) - static_cast<uint64_t>(min_v);
    if (d > max_delta) max_delta = d;
  }
  PutU64(out, static_cast<uint64_t>(static_cast<int64_t>(min_v)));
  const int width = DeltaWidth(max_delta);
  out->push_back(static_cast<char>(width));
  for (int64_t i = 0; i < n; ++i) {
    uint64_t d = static_cast<uint64_t>(data[i]) - static_cast<uint64_t>(min_v);
    for (int b = 0; b < width; ++b) {
      out->push_back(static_cast<char>(d >> (8 * b)));
    }
  }
}

Status ForReadHeader(Cursor* c, int64_t* base, int* width) {
  uint64_t b = 0;
  if (!c->GetU64(&b)) return Status::Internal("for payload truncated");
  uint8_t w = 0;
  if (!c->GetU8(&w) || (w != 1 && w != 2 && w != 4 && w != 8)) {
    return Status::Internal("for payload has bad delta width");
  }
  *base = static_cast<int64_t>(b);
  *width = w;
  return Status::OK();
}

bool GetDelta(Cursor* c, int width, uint64_t* d) {
  if (c->remaining() < static_cast<size_t>(width)) return false;
  *d = 0;
  for (int i = 0; i < width; ++i) {
    *d |= static_cast<uint64_t>(c->p[c->pos + i]) << (8 * i);
  }
  c->pos += width;
  return true;
}

template <typename T>
Status ForDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  int64_t base = 0;
  int width = 0;
  RDB_RETURN_NOT_OK(ForReadHeader(c, &base, &width));
  if (!PayloadFits(*c, n, static_cast<size_t>(width))) {
    return Status::Internal("for payload truncated");
  }
  out->reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    uint64_t d = 0;
    if (!GetDelta(c, width, &d)) return Status::Internal("for payload truncated");
    out->push_back(static_cast<T>(static_cast<uint64_t>(base) + d));
  }
  return Status::OK();
}

/// Range kernel over the deltas: the bounds are rebased once, then each
/// row costs one unsigned compare — no column is materialized.
template <typename T>
Status ForSelectRange(Cursor* c, TypeId type, int64_t n,
                      const ColumnInterval& range, std::vector<int32_t>* sel) {
  int64_t base = 0;
  int width = 0;
  RDB_RETURN_NOT_OK(ForReadHeader(c, &base, &width));
  int64_t lo = 0, hi = 0;
  const bool fast = IntClosedRange(range, &lo, &hi);
  for (int64_t i = 0; i < n; ++i) {
    uint64_t d = 0;
    if (!GetDelta(c, width, &d)) return Status::Internal("for payload truncated");
    const T v = static_cast<T>(static_cast<uint64_t>(base) + d);
    const bool hit = fast ? (static_cast<int64_t>(v) >= lo &&
                             static_cast<int64_t>(v) <= hi)
                          : InRange(ToDatum(type, v), range);
    if (hit) sel->push_back(static_cast<int32_t>(i));
  }
  return Status::OK();
}

// --- per-type encoder dispatch ---------------------------------------------

/// One analysis pass: raw bytes, run count/bytes, distinct count (capped
/// at 64k, past which dictionaries cannot win a 4-byte code anyway), and
/// min/max for integer frames.
struct ColumnShape {
  int64_t raw_bytes = 0;
  int64_t runs = 0;
  int64_t run_value_bytes = 0;
  int64_t distinct = 0;        // valid while !distinct_overflow
  bool distinct_overflow = false;
  int64_t dict_value_bytes = 0;
  uint64_t max_delta = 0;      // integers only
};

template <typename T>
ColumnShape Analyze(const T* data, int64_t n) {
  ColumnShape s;
  std::unordered_set<T> distinct;
  T min_v{};
  T max_v{};
  for (int64_t i = 0; i < n; ++i) {
    s.raw_bytes += static_cast<int64_t>(ValueBytes(data[i]));
    if (i == 0 || !BitEq(data[i], data[i - 1])) {
      ++s.runs;
      s.run_value_bytes += static_cast<int64_t>(ValueBytes(data[i]));
    }
    if (!s.distinct_overflow) {
      if (distinct.insert(data[i]).second) {
        s.dict_value_bytes += static_cast<int64_t>(ValueBytes(data[i]));
        if (distinct.size() > 0xffff) s.distinct_overflow = true;
      }
    }
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, uint8_t>) {
      if (i == 0 || data[i] < min_v) min_v = data[i];
      if (i == 0 || data[i] > max_v) max_v = data[i];
    }
  }
  s.distinct = static_cast<int64_t>(distinct.size());
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, uint8_t>) {
    if (n > 0) {
      s.max_delta =
          static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
    }
  }
  return s;
}

template <typename T>
T ColumnMin(const T* data, int64_t n) {
  T min_v = data[0];
  for (int64_t i = 1; i < n; ++i) {
    if (data[i] < min_v) min_v = data[i];
  }
  return min_v;
}

template <typename T>
bool SupportsDict() {
  return !std::is_same_v<T, double> && !std::is_same_v<T, uint8_t>;
}

template <typename T>
constexpr bool SupportsFor() {
  return std::is_integral_v<T> && !std::is_same_v<T, uint8_t>;
}

template <typename T>
Status EncodeTypedAs(const T* data, int64_t n, TypeId type,
                     ColumnEncoding encoding, EncodedColumn* out) {
  out->encoding = encoding;
  out->type = type;
  out->num_rows = n;
  out->payload.clear();
  switch (encoding) {
    case ColumnEncoding::kRaw:
      RawEncode(data, n, &out->payload);
      return Status::OK();
    case ColumnEncoding::kRle:
      RleEncode(data, n, &out->payload);
      return Status::OK();
    case ColumnEncoding::kDict:
      if (!SupportsDict<T>()) {
        return Status::InvalidArgument(
            StrFormat("dict encoding unsupported for %s", TypeName(type)));
      }
      if constexpr (!std::is_same_v<T, double> && !std::is_same_v<T, uint8_t>) {
        DictEncode(data, n, &out->payload);
      }
      return Status::OK();
    case ColumnEncoding::kFor:
      if constexpr (SupportsFor<T>()) {
        ForEncode(data, n, n > 0 ? ColumnMin(data, n) : T{}, &out->payload);
        return Status::OK();
      }
      return Status::InvalidArgument(
          StrFormat("for encoding unsupported for %s", TypeName(type)));
  }
  return Status::InvalidArgument("unknown encoding");
}

template <typename T>
EncodedColumn EncodeTypedBest(const T* data, int64_t n, TypeId type) {
  const ColumnShape s = Analyze(data, n);
  ColumnEncoding best = ColumnEncoding::kRaw;
  int64_t best_size = s.raw_bytes;

  const int64_t rle_size = 4 + s.runs * 4 + s.run_value_bytes;
  if (rle_size < best_size) {
    best = ColumnEncoding::kRle;
    best_size = rle_size;
  }
  if (SupportsDict<T>() && !s.distinct_overflow && n > 0) {
    const int64_t dict_size =
        4 + s.dict_value_bytes + 1 +
        n * CodeWidth(static_cast<size_t>(s.distinct));
    if (dict_size < best_size) {
      best = ColumnEncoding::kDict;
      best_size = dict_size;
    }
  }
  if constexpr (SupportsFor<T>()) {
    const int64_t for_size = 8 + 1 + n * DeltaWidth(s.max_delta);
    if (n > 0 && for_size < best_size) {
      best = ColumnEncoding::kFor;
      best_size = for_size;
    }
  }

  EncodedColumn out;
  Status st = EncodeTypedAs(data, n, type, best, &out);
  RDB_CHECK_MSG(st.ok(), st.ToString().c_str());  // best is always supported
  return out;
}

template <typename T>
Status DecodeTyped(const EncodedColumn& enc, std::vector<T>* out) {
  Cursor c{reinterpret_cast<const unsigned char*>(enc.payload.data()),
           enc.payload.size()};
  Status st;
  switch (enc.encoding) {
    case ColumnEncoding::kRaw:
      st = RawDecode(&c, enc.num_rows, out);
      break;
    case ColumnEncoding::kRle:
      st = RleDecode(&c, enc.num_rows, out);
      break;
    case ColumnEncoding::kDict:
      if constexpr (!std::is_same_v<T, double> && !std::is_same_v<T, uint8_t>) {
        st = DictDecode(&c, enc.num_rows, out);
      } else {
        st = Status::Internal("dict payload for unsupported type");
      }
      break;
    case ColumnEncoding::kFor:
      if constexpr (SupportsFor<T>()) {
        st = ForDecode(&c, enc.num_rows, out);
      } else {
        st = Status::Internal("for payload for unsupported type");
      }
      break;
  }
  RDB_RETURN_NOT_OK(st);
  if (c.remaining() != 0) {
    return Status::Internal("encoded column has trailing bytes");
  }
  return Status::OK();
}

template <typename T>
Status SelectTyped(const EncodedColumn& enc, const ColumnInterval& range,
                   std::vector<int32_t>* sel) {
  Cursor c{reinterpret_cast<const unsigned char*>(enc.payload.data()),
           enc.payload.size()};
  switch (enc.encoding) {
    case ColumnEncoding::kRle:
      return RleSelectRange<T>(&c, enc.type, enc.num_rows, range, sel);
    case ColumnEncoding::kDict:
      if constexpr (!std::is_same_v<T, double> && !std::is_same_v<T, uint8_t>) {
        return DictSelectRange<T>(&c, enc.type, enc.num_rows, range, sel);
      }
      return Status::Internal("dict payload for unsupported type");
    case ColumnEncoding::kFor:
      if constexpr (SupportsFor<T>()) {
        return ForSelectRange<T>(&c, enc.type, enc.num_rows, range, sel);
      }
      return Status::Internal("for payload for unsupported type");
    case ColumnEncoding::kRaw: {
      // Streaming decode-and-compare; still never materializes a column.
      std::vector<T> values;
      RDB_RETURN_NOT_OK(RawDecode(&c, enc.num_rows, &values));
      for (int64_t i = 0; i < enc.num_rows; ++i) {
        if (InRange(ToDatum(enc.type, values[static_cast<size_t>(i)]),
                    range)) {
          sel->push_back(static_cast<int32_t>(i));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown encoding");
}

}  // namespace

EncodedColumn EncodeColumn(const ColumnVector& col) {
  const int64_t n = col.size();
  switch (col.type()) {
    case TypeId::kBool:
      return EncodeTypedBest(col.Raw<uint8_t>(), n, col.type());
    case TypeId::kInt32:
    case TypeId::kDate:
      return EncodeTypedBest(col.Raw<int32_t>(), n, col.type());
    case TypeId::kInt64:
      return EncodeTypedBest(col.Raw<int64_t>(), n, col.type());
    case TypeId::kDouble:
      return EncodeTypedBest(col.Raw<double>(), n, col.type());
    case TypeId::kString:
      return EncodeTypedBest(col.Raw<std::string>(), n, col.type());
  }
  RDB_UNREACHABLE("bad type");
}

Status EncodeColumnAs(const ColumnVector& col, ColumnEncoding encoding,
                      EncodedColumn* out) {
  const int64_t n = col.size();
  switch (col.type()) {
    case TypeId::kBool:
      return EncodeTypedAs(col.Raw<uint8_t>(), n, col.type(), encoding, out);
    case TypeId::kInt32:
    case TypeId::kDate:
      return EncodeTypedAs(col.Raw<int32_t>(), n, col.type(), encoding, out);
    case TypeId::kInt64:
      return EncodeTypedAs(col.Raw<int64_t>(), n, col.type(), encoding, out);
    case TypeId::kDouble:
      return EncodeTypedAs(col.Raw<double>(), n, col.type(), encoding, out);
    case TypeId::kString:
      return EncodeTypedAs(col.Raw<std::string>(), n, col.type(), encoding,
                           out);
  }
  RDB_UNREACHABLE("bad type");
}

Status DecodeColumn(const EncodedColumn& enc, ColumnPtr* out) {
  // Row ids are int32 (selection vectors), which bounds every column; each
  // decoder also bounds num_rows by what its payload can encode before
  // sizing anything from it (RLE by the sum of its runs).
  if (enc.num_rows < 0 ||
      enc.num_rows > std::numeric_limits<int32_t>::max()) {
    return Status::Internal("encoded column row count out of range");
  }
  ColumnPtr col = MakeColumn(enc.type);
  Status st;
  switch (enc.type) {
    case TypeId::kBool:
      st = DecodeTyped(enc, &col->Data<uint8_t>());
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      st = DecodeTyped(enc, &col->Data<int32_t>());
      break;
    case TypeId::kInt64:
      st = DecodeTyped(enc, &col->Data<int64_t>());
      break;
    case TypeId::kDouble:
      st = DecodeTyped(enc, &col->Data<double>());
      break;
    case TypeId::kString:
      st = DecodeTyped(enc, &col->Data<std::string>());
      break;
  }
  RDB_RETURN_NOT_OK(st);
  if (col->size() != enc.num_rows) {
    return Status::Internal("encoded column row count mismatch");
  }
  *out = std::move(col);
  return Status::OK();
}

Status SelectRangeEncoded(const EncodedColumn& enc,
                          const ColumnInterval& range,
                          std::vector<int32_t>* sel) {
  if (enc.num_rows < 0 ||
      enc.num_rows > std::numeric_limits<int32_t>::max()) {
    return Status::Internal("encoded column row count out of range");
  }
  switch (enc.type) {
    case TypeId::kBool:
      return SelectTyped<uint8_t>(enc, range, sel);
    case TypeId::kInt32:
    case TypeId::kDate:
      return SelectTyped<int32_t>(enc, range, sel);
    case TypeId::kInt64:
      return SelectTyped<int64_t>(enc, range, sel);
    case TypeId::kDouble:
      return SelectTyped<double>(enc, range, sel);
    case TypeId::kString:
      return SelectTyped<std::string>(enc, range, sel);
  }
  RDB_UNREACHABLE("bad type");
}

}  // namespace recycledb
