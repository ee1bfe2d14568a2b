#include "storage/spill_file.h"

#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "common/string_util.h"
#include "storage/compression.h"
#include "storage/wire_format.h"

namespace recycledb {

namespace {

using wire::Cursor;
using wire::PutDouble;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

constexpr char kMagic[4] = {'R', 'D', 'B', 'S'};

// --- header (de)serialization into a flat byte buffer ---------------------

std::string SerializeHeader(const SpillFileMeta& meta) {
  std::string h;
  PutString(&h, meta.canon_key);
  PutU32(&h, static_cast<uint32_t>(meta.column_names.size()));
  for (size_t i = 0; i < meta.column_names.size(); ++i) {
    PutString(&h, meta.column_names[i]);
    h.push_back(static_cast<char>(meta.column_types[i]));
  }
  PutU64(&h, static_cast<uint64_t>(meta.num_rows));
  PutDouble(&h, meta.bcost_ms);
  PutDouble(&h, meta.h);
  PutDouble(&h, meta.benefit);
  PutU32(&h, static_cast<uint32_t>(meta.base_tables.size()));
  for (const std::string& t : meta.base_tables) PutString(&h, t);
  PutU64(&h, static_cast<uint64_t>(meta.raw_bytes));
  PutU32(&h, static_cast<uint32_t>(meta.table_versions.size()));
  for (const auto& [table, rows] : meta.table_versions) {
    PutString(&h, table);
    PutU64(&h, static_cast<uint64_t>(rows));
  }
  return h;
}

Status ParseHeader(const std::string& buf, SpillFileMeta* meta) {
  Cursor c{reinterpret_cast<const unsigned char*>(buf.data()), buf.size()};
  uint32_t ncols = 0, ntables = 0, nversions = 0;
  uint64_t rows = 0, raw = 0;
  *meta = SpillFileMeta{};
  if (!c.GetString(&meta->canon_key) || !c.GetU32(&ncols)) {
    return Status::Internal("spill header truncated");
  }
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string name;
    if (!c.GetString(&name) || c.pos >= c.len) {
      return Status::Internal("spill header truncated in column list");
    }
    uint8_t type = c.p[c.pos++];
    if (type > static_cast<uint8_t>(TypeId::kDate)) {
      return Status::Internal(
          StrFormat("spill header has unknown column type %d", (int)type));
    }
    meta->column_names.push_back(std::move(name));
    meta->column_types.push_back(static_cast<TypeId>(type));
  }
  if (!c.GetU64(&rows) || !c.GetDouble(&meta->bcost_ms) ||
      !c.GetDouble(&meta->h) || !c.GetDouble(&meta->benefit) ||
      !c.GetU32(&ntables)) {
    return Status::Internal("spill header truncated");
  }
  meta->num_rows = static_cast<int64_t>(rows);
  for (uint32_t i = 0; i < ntables; ++i) {
    std::string t;
    if (!c.GetString(&t)) {
      return Status::Internal("spill header truncated in base-table list");
    }
    meta->base_tables.push_back(std::move(t));
  }
  if (!c.GetU64(&raw)) {
    return Status::Internal("spill header truncated (raw size)");
  }
  meta->raw_bytes = static_cast<int64_t>(raw);
  if (!c.GetU32(&nversions)) {
    return Status::Internal("spill header truncated (table versions)");
  }
  for (uint32_t i = 0; i < nversions; ++i) {
    std::string t;
    if (!c.GetString(&t) || !c.GetU64(&rows)) {
      return Status::Internal("spill header truncated in version list");
    }
    meta->table_versions.emplace_back(std::move(t),
                                      static_cast<int64_t>(rows));
  }
  return Status::OK();
}

/// Size of the raw column images of `table`, strings length-prefixed
/// (SpillFileMeta::raw_bytes).
int64_t RawPayloadBytes(const Table& table) {
  const int64_t rows = table.num_rows();
  int64_t bytes = 0;
  for (int ci = 0; ci < table.num_columns(); ++ci) {
    const ColumnVector& col = *table.column(ci);
    switch (col.type()) {
      case TypeId::kBool:
        bytes += rows;
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        bytes += rows * 4;
        break;
      case TypeId::kInt64:
      case TypeId::kDouble:
        bytes += rows * 8;
        break;
      case TypeId::kString: {
        const std::string* data = col.Raw<std::string>();
        for (int64_t r = 0; r < rows; ++r) {
          bytes += 4 + static_cast<int64_t>(data[r].size());
        }
        break;
      }
    }
  }
  return bytes;
}

/// FILE* wrapper that streams every written byte through FNV-1a.
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(std::FILE* f) : f_(f) {}

  bool Write(const void* data, size_t len) {
    if (len == 0) return true;  // zero-row columns pass a null span
    sum_ = Fnv1a(data, len, sum_);
    return std::fwrite(data, 1, len, f_) == len;
  }
  uint64_t sum() const { return sum_; }

 private:
  std::FILE* f_;
  uint64_t sum_ = 0xcbf29ce484222325ULL;
};

/// Bulk-reads `len` bytes, folding them into `*sum`.
bool ReadChecked(std::FILE* f, void* data, size_t len, uint64_t* sum) {
  if (std::fread(data, 1, len, f) != len) return false;
  *sum = Fnv1a(data, len, *sum);
  return true;
}

// --- payload (encoded column blocks) --------------------------------------

Status WriteColumns(ChecksummedWriter* w, const Table& table, bool compress) {
  for (int ci = 0; ci < table.num_columns(); ++ci) {
    const ColumnVector& col = *table.column(ci);
    EncodedColumn enc;
    if (compress) {
      enc = EncodeColumn(col);
    } else {
      RDB_RETURN_NOT_OK(EncodeColumnAs(col, ColumnEncoding::kRaw, &enc));
    }
    std::string frame;
    frame.push_back(static_cast<char>(enc.encoding));
    PutU64(&frame, enc.payload.size());
    if (!w->Write(frame.data(), frame.size()) ||
        !w->Write(enc.payload.data(), enc.payload.size())) {
      return Status::Internal("spill write failed");
    }
  }
  return Status::OK();
}

/// Buffers the payload of `f` (positioned just past the header; `sum`
/// holds the header's running checksum) and verifies the trailing
/// checksum BEFORE anything decodes it: the encoded payload is at most
/// the file size (unlike its decoded form), so it is safe to buffer
/// whole, and the decoders then never see bit rot. Closes `f`.
Status ReadPayload(std::FILE* f, const std::string& path, uint64_t sum,
                   std::string* payload) {
  // Payload = bytes between the header and the 8-byte checksum.
  const long payload_start = std::ftell(f);
  if (payload_start < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::Internal(
        StrFormat("%s: cannot size spill file", path.c_str()));
  }
  const int64_t payload_bytes = std::ftell(f) - payload_start - 8;
  std::fseek(f, payload_start, SEEK_SET);
  Status st = Status::OK();
  unsigned char sumbuf[8];
  if (payload_bytes < 0) {
    st = Status::Internal(StrFormat("%s: spill file truncated", path.c_str()));
  } else {
    payload->resize(static_cast<size_t>(payload_bytes));
    if (payload_bytes > 0 &&
        !ReadChecked(f, payload->data(), payload->size(), &sum)) {
      st = Status::Internal(
          StrFormat("%s: spill payload truncated", path.c_str()));
    } else if (std::fread(sumbuf, 1, 8, f) != 8) {
      st = Status::Internal(
          StrFormat("%s: spill checksum missing", path.c_str()));
    } else {
      uint64_t stored = 0;
      for (int i = 0; i < 8; ++i)
        stored |= static_cast<uint64_t>(sumbuf[i]) << (8 * i);
      if (stored != sum) {
        st = Status::Internal(
            StrFormat("%s: spill checksum mismatch", path.c_str()));
      }
    }
  }
  std::fclose(f);
  return st;
}

/// Splits a checksum-verified payload into its per-column encoded blocks
/// without decoding anything. A failure here means a crafted file, not
/// bit rot; it is still a recoverable Status (the codecs bounds-check
/// before allocating, too).
Status ParseColumnBlocks(const std::string& payload, const SpillFileMeta& meta,
                         std::vector<EncodedColumn>* encs) {
  if (meta.num_rows < 0) {
    return Status::Internal("spill header has negative row count");
  }
  Cursor c{reinterpret_cast<const unsigned char*>(payload.data()),
           payload.size()};
  for (TypeId type : meta.column_types) {
    uint8_t encoding = 0;
    uint64_t len = 0;
    if (!c.GetU8(&encoding) || !c.GetU64(&len) || len > c.remaining()) {
      return Status::Internal("spill column block truncated");
    }
    if (encoding > static_cast<uint8_t>(ColumnEncoding::kFor)) {
      return Status::Internal(
          StrFormat("spill column has unknown encoding %d", (int)encoding));
    }
    EncodedColumn enc;
    enc.encoding = static_cast<ColumnEncoding>(encoding);
    enc.type = type;
    enc.num_rows = meta.num_rows;
    enc.payload.assign(reinterpret_cast<const char*>(c.p + c.pos),
                       static_cast<size_t>(len));
    c.pos += static_cast<size_t>(len);
    encs->push_back(std::move(enc));
  }
  if (c.remaining() != 0) {
    return Status::Internal("spill payload has trailing bytes");
  }
  return Status::OK();
}

/// An empty table with the file's schema.
TablePtr MakeSpillTable(const SpillFileMeta& meta) {
  std::vector<Field> fields;
  for (size_t i = 0; i < meta.column_names.size(); ++i) {
    fields.push_back({meta.column_names[i], meta.column_types[i]});
  }
  return MakeTable(Schema(std::move(fields)));
}

/// Validates magic/version and reads the header of the opened `f`
/// (`path` names it in errors). On success `f` is positioned at the first
/// payload byte and `*sum` holds the running checksum over the header
/// bytes; on failure `f` is closed.
Status ReadHeader(std::FILE* f, const std::string& path, SpillFileMeta* meta,
                  uint64_t* sum) {
  char magic[4];
  unsigned char fixed[12];
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s is not a spill file", path.c_str()));
  }
  if (std::fread(fixed, 1, 12, f) != 12) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: spill header truncated", path.c_str()));
  }
  uint32_t version = 0;
  uint64_t header_len = 0;
  for (int i = 0; i < 4; ++i) version |= static_cast<uint32_t>(fixed[i]) << (8 * i);
  for (int i = 0; i < 8; ++i)
    header_len |= static_cast<uint64_t>(fixed[4 + i]) << (8 * i);
  if (version != kSpillFormatVersion) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: unsupported spill version %u",
                                      path.c_str(), version));
  }
  if (header_len > (16u << 20)) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: implausible spill header length",
                                      path.c_str()));
  }
  std::string header(header_len, '\0');
  if (header_len > 0 &&
      std::fread(header.data(), 1, header_len, f) != header_len) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: spill header truncated", path.c_str()));
  }
  Status st = ParseHeader(header, meta);
  if (!st.ok()) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: %s", path.c_str(),
                                      st.message().c_str()));
  }
  *sum = Fnv1a(header.data(), header.size());
  return Status::OK();
}

/// Owning copy of the rows in `sel` (ascending, in-bounds — produced by
/// SelectRangeEncoded over the same column image).
ColumnPtr GatherRows(const ColumnVector& col, const std::vector<int32_t>& sel) {
  ColumnPtr out = MakeColumn(col.type());
  switch (col.type()) {
    case TypeId::kBool: {
      const uint8_t* src = col.Raw<uint8_t>();
      auto& v = out->Data<uint8_t>();
      v.reserve(sel.size());
      for (int32_t r : sel) v.push_back(src[r]);
      break;
    }
    case TypeId::kInt32:
    case TypeId::kDate: {
      const int32_t* src = col.Raw<int32_t>();
      auto& v = out->Data<int32_t>();
      v.reserve(sel.size());
      for (int32_t r : sel) v.push_back(src[r]);
      break;
    }
    case TypeId::kInt64: {
      const int64_t* src = col.Raw<int64_t>();
      auto& v = out->Data<int64_t>();
      v.reserve(sel.size());
      for (int32_t r : sel) v.push_back(src[r]);
      break;
    }
    case TypeId::kDouble: {
      const double* src = col.Raw<double>();
      auto& v = out->Data<double>();
      v.reserve(sel.size());
      for (int32_t r : sel) v.push_back(src[r]);
      break;
    }
    case TypeId::kString: {
      const std::string* src = col.Raw<std::string>();
      auto& v = out->Data<std::string>();
      v.reserve(sel.size());
      for (int32_t r : sel) v.push_back(src[r]);
      break;
    }
  }
  return out;
}

}  // namespace

Status WriteSpillFile(const std::string& path, const Table& table,
                      const SpillFileMeta& meta, bool compress,
                      int64_t* raw_bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrFormat("cannot create spill file %s",
                                      tmp.c_str()));
  }
  SpillFileMeta stamped = meta;
  stamped.raw_bytes = RawPayloadBytes(table);
  if (raw_bytes != nullptr) *raw_bytes = stamped.raw_bytes;
  std::string header = SerializeHeader(stamped);
  std::string prefix;
  prefix.append(kMagic, 4);
  PutU32(&prefix, kSpillFormatVersion);
  PutU64(&prefix, static_cast<uint64_t>(header.size()));

  // The prefix (magic/version/length) is outside the checksum; the
  // checksum covers header + payload, matching the read path.
  Status st = Status::OK();
  if (std::fwrite(prefix.data(), 1, prefix.size(), f) != prefix.size()) {
    st = Status::Internal("spill write failed");
  }
  ChecksummedWriter w(f);
  if (st.ok() && !w.Write(header.data(), header.size())) {
    st = Status::Internal("spill write failed");
  }
  if (st.ok()) st = WriteColumns(&w, table, compress);
  if (st.ok()) {
    std::string sumbuf;
    PutU64(&sumbuf, w.sum());
    if (std::fwrite(sumbuf.data(), 1, sumbuf.size(), f) != sumbuf.size()) {
      st = Status::Internal("spill write failed");
    }
  }
  if (std::fclose(f) != 0 && st.ok()) {
    st = Status::Internal("spill write failed on close");
  }
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal(StrFormat("cannot rename %s into place", tmp.c_str()));
  }
  if (!st.ok()) std::remove(tmp.c_str());
  return st;
}

Status ReadSpillMeta(const std::string& path, SpillFileMeta* meta) {
  SpillFile file;
  RDB_RETURN_NOT_OK(OpenSpillFile(path, &file));
  std::FILE* f = file.release();
  uint64_t sum = 0;
  RDB_RETURN_NOT_OK(ReadHeader(f, path, meta, &sum));
  std::fclose(f);
  return Status::OK();
}

Status OpenSpillFile(const std::string& path, SpillFile* out) {
  out->reset(std::fopen(path.c_str(), "rb"));
  if (*out == nullptr) {
    return Status::NotFound(StrFormat("spill file %s cannot be opened",
                                      path.c_str()));
  }
  return Status::OK();
}

Status ReadSpillTable(const std::string& path, SpillFileMeta* meta,
                      TablePtr* out) {
  SpillFile file;
  RDB_RETURN_NOT_OK(OpenSpillFile(path, &file));
  return ReadSpillTable(std::move(file), path, meta, out);
}

namespace {

/// Reads the header and the checksum-verified payload of `file`, split
/// into encoded column blocks.
Status ReadColumnBlocks(SpillFile file, const std::string& path,
                        SpillFileMeta* meta,
                        std::vector<EncodedColumn>* encs) {
  std::FILE* f = file.release();
  uint64_t sum = 0;
  RDB_RETURN_NOT_OK(ReadHeader(f, path, meta, &sum));
  std::string payload;
  RDB_RETURN_NOT_OK(ReadPayload(f, path, sum, &payload));
  Status st = ParseColumnBlocks(payload, *meta, encs);
  if (!st.ok()) {
    return Status::Internal(
        StrFormat("%s: %s", path.c_str(), st.message().c_str()));
  }
  return Status::OK();
}

}  // namespace

Status ReadSpillTable(SpillFile file, const std::string& path,
                      SpillFileMeta* meta, TablePtr* out) {
  std::vector<EncodedColumn> encs;
  RDB_RETURN_NOT_OK(ReadColumnBlocks(std::move(file), path, meta, &encs));
  Batch batch;
  batch.num_rows = meta->num_rows;
  for (const EncodedColumn& enc : encs) {
    ColumnPtr col;
    Status st = DecodeColumn(enc, &col);
    if (!st.ok()) {
      return Status::Internal(
          StrFormat("%s: %s", path.c_str(), st.message().c_str()));
    }
    batch.columns.push_back(std::move(col));
  }
  TablePtr table = MakeSpillTable(*meta);
  table->AppendBatch(batch);
  *out = std::move(table);
  return Status::OK();
}

Status ReadSpillTableFiltered(const std::string& path, SpillFileMeta* meta,
                              int filter_column, const ColumnInterval& range,
                              TablePtr* out) {
  SpillFile file;
  RDB_RETURN_NOT_OK(OpenSpillFile(path, &file));
  return ReadSpillTableFiltered(std::move(file), path, meta, filter_column,
                                range, out);
}

Status ReadSpillTableFiltered(SpillFile file, const std::string& path,
                              SpillFileMeta* meta, int filter_column,
                              const ColumnInterval& range, TablePtr* out) {
  std::vector<EncodedColumn> encs;
  RDB_RETURN_NOT_OK(ReadColumnBlocks(std::move(file), path, meta, &encs));
  if (filter_column < 0 || filter_column >= static_cast<int>(encs.size())) {
    return Status::InvalidArgument(
        StrFormat("%s: filter column %d out of range", path.c_str(),
                  filter_column));
  }
  // Selection on the encoded filter column, then decode + gather the
  // rest. Ascending selection preserves row order, so the result is
  // bit-identical to a full load followed by the same range filter.
  std::vector<int32_t> sel;
  RDB_RETURN_NOT_OK(SelectRangeEncoded(encs[filter_column], range, &sel));
  Batch batch;
  batch.num_rows = static_cast<int64_t>(sel.size());
  for (const EncodedColumn& enc : encs) {
    ColumnPtr full;
    RDB_RETURN_NOT_OK(DecodeColumn(enc, &full));
    batch.columns.push_back(GatherRows(*full, sel));
  }
  TablePtr table = MakeSpillTable(*meta);
  table->AppendBatch(batch);
  *out = std::move(table);
  return Status::OK();
}

}  // namespace recycledb
