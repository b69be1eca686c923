#include "storage/extent_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace aqpp {

namespace {

constexpr char kExtentFileMagic[8] = {'A', 'Q', 'P', 'P',
                                      'E', 'X', 'T', '1'};
constexpr uint64_t kMaxColumns = 1u << 20;
constexpr uint64_t kMaxDictEntries = 1u << 28;
// Encoded extents can be far smaller than their logical size, so row counts
// cannot be bounded by file size; this explicit ceiling still rejects a
// bit-flipped count before any sizing math can overflow.
constexpr uint64_t kMaxRows = 1ull << 42;

// Hot-path storage metrics, registered once (same idiom as the executor's
// ScanMetrics).
struct ExtentMetrics {
  obs::Counter* read;
  obs::Counter* decoded_bytes;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Gauge* cache_hit_rate;
  obs::Histogram* verify_seconds;
  obs::Histogram* decode_seconds;

  static ExtentMetrics& Get() {
    static ExtentMetrics m = [] {
      auto& reg = obs::Registry::Global();
      ExtentMetrics n;
      n.read = reg.GetCounter("aqpp_extents_read_total", "",
                              "Column extents decoded from extent files");
      n.decoded_bytes =
          reg.GetCounter("aqpp_extent_decoded_bytes_total", "",
                         "Logical bytes produced by extent decoding");
      n.cache_hits =
          reg.GetCounter("aqpp_extent_cache_hits_total", "",
                         "Pin() requests served from the decoded-extent LRU");
      n.cache_misses =
          reg.GetCounter("aqpp_extent_cache_misses_total", "",
                         "Pin() requests that had to decode from disk");
      n.cache_hit_rate = reg.GetGauge(
          "aqpp_extent_cache_hit_rate_percent", "",
          "Decoded-extent cache hit rate since process start (percent)");
      n.verify_seconds = reg.GetHistogram(
          "aqpp_extent_verify_seconds", "", {},
          "Seconds per Pin() miss spent checking the header and payload CRC");
      n.decode_seconds = reg.GetHistogram(
          "aqpp_extent_decode_seconds", "", {},
          "Seconds per Pin() miss spent unpacking the verified payload");
      return n;
    }();
    return m;
  }
};

// Gauge-safe hit rate: 0 before the first Pin() instead of a division by
// zero (the gauge is also published as 0 at reader open, so scrapes that
// race the first read see a defined value).
int64_t HitRatePercent(uint64_t hits, uint64_t misses) {
  const uint64_t total = hits + misses;
  if (total == 0) return 0;
  return static_cast<int64_t>(hits * 100 / total);
}

uint64_t CacheKey(size_t e, size_t col) {
  return (static_cast<uint64_t>(e) << 20) | static_cast<uint64_t>(col);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ExtentFileWriter::ExtentFileWriter(std::string path, Schema schema)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      schema_(std::move(schema)) {
  const size_t c = schema_.num_columns();
  int_buf_.resize(c);
  dbl_buf_.resize(c);
  dicts_.resize(c);
  dict_set_.assign(c, 0);
  max_code_.assign(c, -1);
  for (size_t i = 0; i < c; ++i) {
    if (schema_.column(i).type == DataType::kDouble) {
      dbl_buf_[i].reserve(kExtentRows);
    } else {
      int_buf_[i].reserve(kExtentRows);
    }
  }
}

ExtentFileWriter::~ExtentFileWriter() {
  if (!finished_) {
    (void)out_.Close();
    std::remove(tmp_path_.c_str());
  }
}

Result<std::unique_ptr<ExtentFileWriter>> ExtentFileWriter::Create(
    const std::string& path, const Schema& schema) {
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("extent file needs at least one column");
  }
  if (schema.num_columns() > kMaxColumns) {
    return Status::InvalidArgument("too many columns for extent file");
  }
  std::unique_ptr<ExtentFileWriter> w(new ExtentFileWriter(path, schema));
  AQPP_RETURN_NOT_OK(w->out_.Open(w->tmp_path_));
  AQPP_RETURN_NOT_OK(
      w->out_.Write(kExtentFileMagic, sizeof(kExtentFileMagic)));
  return w;
}

Status ExtentFileWriter::Fail(Status st) {
  if (!st.ok()) failed_ = true;
  return st;
}

Status ExtentFileWriter::SetDictionary(size_t col,
                                       std::vector<std::string> dict) {
  if (col >= schema_.num_columns() ||
      schema_.column(col).type != DataType::kString) {
    return Status::InvalidArgument("SetDictionary: not a string column");
  }
  if (finished_) return Status::FailedPrecondition("writer already finished");
  dicts_[col] = std::move(dict);
  dict_set_[col] = 1;
  return Status::OK();
}

Status ExtentFileWriter::Append(const Table& batch) {
  if (finished_ || failed_) {
    return Status::FailedPrecondition("extent writer is closed");
  }
  if (batch.num_columns() != schema_.num_columns()) {
    return Status::InvalidArgument("batch schema does not match");
  }
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (batch.schema().column(c).type != schema_.column(c).type) {
      return Status::InvalidArgument(
          "batch column type does not match: " + schema_.column(c).name);
    }
  }
  size_t row = 0;
  const size_t n = batch.num_rows();
  while (row < n) {
    const size_t take = std::min(n - row, kExtentRows - buffered_rows_);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      const Column& col = batch.column(c);
      if (col.type() == DataType::kDouble) {
        const double* src = col.DoubleData().data() + row;
        dbl_buf_[c].insert(dbl_buf_[c].end(), src, src + take);
      } else {
        const int64_t* src = col.Int64Data().data() + row;
        int_buf_[c].insert(int_buf_[c].end(), src, src + take);
        if (col.type() == DataType::kString) {
          for (size_t i = 0; i < take; ++i) {
            max_code_[c] = std::max(max_code_[c], src[i]);
          }
        }
      }
    }
    buffered_rows_ += take;
    rows_appended_ += take;
    row += take;
    if (buffered_rows_ == kExtentRows) {
      AQPP_RETURN_NOT_OK(FlushBufferedExtent());
    }
  }
  return Status::OK();
}

Status ExtentFileWriter::FlushBufferedExtent() {
  const size_t rows = buffered_rows_;
  if (rows == 0) return Status::OK();
  std::string blob;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    blob.clear();
    ExtentHeader header;
    const DataType type = schema_.column(c).type;
    if (type == DataType::kDouble) {
      AQPP_RETURN_NOT_OK(
          Fail(EncodeExtent(dbl_buf_[c].data(), rows, &blob, &header)));
      dbl_buf_[c].clear();
    } else {
      AQPP_RETURN_NOT_OK(
          Fail(EncodeExtent(int_buf_[c].data(), rows, type, &blob, &header)));
      int_buf_[c].clear();
    }
    ExtentBlobInfo info;
    info.offset = out_.bytes_written();
    info.encoded_bytes = header.encoded_bytes;
    info.encoding = static_cast<ExtentEncoding>(header.encoding);
    info.type = type;
    info.rows = header.rows;
    info.null_count = header.null_count;
    info.checksum = header.checksum;
    info.min_bits = header.min_bits;
    info.max_bits = header.max_bits;
    AQPP_RETURN_NOT_OK(Fail(out_.Write(blob.data(), blob.size())));
    blobs_.push_back(info);
  }
  buffered_rows_ = 0;
  return Status::OK();
}

Status ExtentFileWriter::Finish() {
  if (finished_ || failed_) {
    return Status::FailedPrecondition("extent writer is closed");
  }
  AQPP_RETURN_NOT_OK(FlushBufferedExtent());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (schema_.column(c).type != DataType::kString) continue;
    if (!dict_set_[c] && rows_appended_ > 0) {
      return Fail(Status::FailedPrecondition(
          "no dictionary set for string column '" + schema_.column(c).name +
          "'"));
    }
    if (max_code_[c] >= static_cast<int64_t>(dicts_[c].size())) {
      return Fail(Status::InvalidArgument(
          StrFormat("column '%s' has code %lld but dictionary holds only "
                    "%zu entries",
                    schema_.column(c).name.c_str(),
                    static_cast<long long>(max_code_[c]),
                    dicts_[c].size())));
    }
  }

  const uint64_t footer_offset = out_.bytes_written();
  AQPP_RETURN_NOT_OK(
      Fail(out_.WritePod<uint64_t>(schema_.num_columns())));
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    AQPP_RETURN_NOT_OK(
        Fail(out_.WriteLengthPrefixed(schema_.column(c).name)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<int32_t>(
        static_cast<int32_t>(schema_.column(c).type))));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint64_t>(dicts_[c].size())));
    for (const auto& s : dicts_[c]) {
      AQPP_RETURN_NOT_OK(Fail(out_.WriteLengthPrefixed(s)));
    }
  }
  AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint64_t>(rows_appended_)));
  const uint64_t num_extents = blobs_.size() / schema_.num_columns();
  AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint64_t>(num_extents)));
  for (const ExtentBlobInfo& b : blobs_) {
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint64_t>(b.offset)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint32_t>(b.encoded_bytes)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint8_t>(
        static_cast<uint8_t>(b.encoding))));
    AQPP_RETURN_NOT_OK(
        Fail(out_.WritePod<uint8_t>(static_cast<uint8_t>(b.type))));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint16_t>(0)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint32_t>(b.rows)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint32_t>(b.null_count)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint32_t>(b.checksum)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<int64_t>(b.min_bits)));
    AQPP_RETURN_NOT_OK(Fail(out_.WritePod<int64_t>(b.max_bits)));
  }
  AQPP_RETURN_NOT_OK(Fail(out_.WritePod<uint64_t>(footer_offset)));
  AQPP_RETURN_NOT_OK(
      Fail(out_.Write(kExtentFileMagic, sizeof(kExtentFileMagic))));
  AQPP_RETURN_NOT_OK(Fail(out_.Sync()));
  AQPP_RETURN_NOT_OK(Fail(out_.Close()));
  AQPP_RETURN_NOT_OK(Fail(CommitRename(tmp_path_, path_)));
  finished_ = true;
  return Status::OK();
}

Status WriteExtentFile(const Table& table, const std::string& path) {
  AQPP_ASSIGN_OR_RETURN(auto writer,
                        ExtentFileWriter::Create(path, table.schema()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).type() == DataType::kString) {
      AQPP_RETURN_NOT_OK(
          writer->SetDictionary(c, table.column(c).dictionary()));
    }
  }
  AQPP_RETURN_NOT_OK(writer->Append(table));
  return writer->Finish();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ExtentFileReader::~ExtentFileReader() {
  if (map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), map_size_);
  }
}

Result<std::shared_ptr<ExtentFileReader>> ExtentFileReader::Open(
    const std::string& path, const Options& options) {
  // The footer is parsed through CheckedReader so it flows through the
  // storage/io/read failpoint and the usual length validation; only the
  // extent payloads themselves are served from the mapping.
  CheckedReader in;
  AQPP_RETURN_NOT_OK(in.Open(path));
  const uint64_t file_size = in.file_size();
  if (file_size < sizeof(kExtentFileMagic) + 16) {
    return Status::IOError("'" + path +
                           "' is too small to be an extent file");
  }
  char magic[8];
  AQPP_RETURN_NOT_OK(in.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, kExtentFileMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an AQPP extent file");
  }
  AQPP_RETURN_NOT_OK(in.Seek(file_size - 16));
  uint64_t footer_offset = 0;
  AQPP_RETURN_NOT_OK(in.ReadPod(&footer_offset));
  AQPP_RETURN_NOT_OK(in.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, kExtentFileMagic, sizeof(magic)) != 0) {
    return Status::IOError("corrupt extent trailer in '" + path +
                           "' (truncated file?)");
  }
  if (footer_offset < sizeof(kExtentFileMagic) ||
      footer_offset > file_size - 16) {
    return Status::IOError("corrupt footer offset in '" + path + "'");
  }

  auto reader = std::shared_ptr<ExtentFileReader>(new ExtentFileReader());
  reader->path_ = path;
  reader->cache_capacity_ = std::max<size_t>(1, options.cache_capacity);

  AQPP_RETURN_NOT_OK(in.Seek(footer_offset));
  uint64_t num_cols = 0;
  AQPP_RETURN_NOT_OK(in.ReadLength(&num_cols, kMaxColumns, "column count"));
  if (num_cols == 0) {
    return Status::IOError("corrupt extent footer: zero columns");
  }
  std::vector<ColumnSchema> cols;
  cols.reserve(num_cols);
  reader->dicts_.resize(num_cols);
  for (uint64_t c = 0; c < num_cols; ++c) {
    std::string name;
    int32_t type = 0;
    AQPP_RETURN_NOT_OK(in.ReadLengthPrefixed(&name));
    AQPP_RETURN_NOT_OK(in.ReadPod(&type));
    if (type < 0 || type > static_cast<int32_t>(DataType::kString)) {
      return Status::IOError(
          StrFormat("corrupt column type %d in '%s'", type, path.c_str()));
    }
    uint64_t dict_size = 0;
    AQPP_RETURN_NOT_OK(
        in.ReadLength(&dict_size, kMaxDictEntries, "dictionary"));
    auto& dict = reader->dicts_[c];
    dict.reserve(dict_size);
    for (uint64_t d = 0; d < dict_size; ++d) {
      std::string s;
      AQPP_RETURN_NOT_OK(in.ReadLengthPrefixed(&s));
      dict.push_back(std::move(s));
    }
    cols.push_back({std::move(name), static_cast<DataType>(type)});
  }
  reader->schema_ = Schema(std::move(cols));

  uint64_t num_rows = 0;
  AQPP_RETURN_NOT_OK(in.ReadPod(&num_rows));
  if (num_rows > kMaxRows) {
    return Status::IOError("corrupt row count in '" + path + "'");
  }
  uint64_t num_extents = 0;
  AQPP_RETURN_NOT_OK(in.ReadPod(&num_extents));
  const uint64_t expect_extents = (num_rows + kExtentRows - 1) / kExtentRows;
  if (num_extents != expect_extents) {
    return Status::IOError(StrFormat(
        "corrupt extent count in '%s': %llu extents for %llu rows",
        path.c_str(), static_cast<unsigned long long>(num_extents),
        static_cast<unsigned long long>(num_rows)));
  }
  reader->num_rows_ = num_rows;
  reader->num_extents_ = num_extents;

  reader->blobs_.resize(num_extents * num_cols);
  for (uint64_t e = 0; e < num_extents; ++e) {
    const uint32_t expect_rows =
        e + 1 < num_extents || num_rows % kExtentRows == 0
            ? kExtentRows
            : static_cast<uint32_t>(num_rows % kExtentRows);
    for (uint64_t c = 0; c < num_cols; ++c) {
      ExtentBlobInfo& b = reader->blobs_[e * num_cols + c];
      uint8_t encoding = 0, type = 0;
      uint16_t reserved = 0;
      AQPP_RETURN_NOT_OK(in.ReadPod(&b.offset));
      AQPP_RETURN_NOT_OK(in.ReadPod(&b.encoded_bytes));
      AQPP_RETURN_NOT_OK(in.ReadPod(&encoding));
      AQPP_RETURN_NOT_OK(in.ReadPod(&type));
      AQPP_RETURN_NOT_OK(in.ReadPod(&reserved));
      AQPP_RETURN_NOT_OK(in.ReadPod(&b.rows));
      AQPP_RETURN_NOT_OK(in.ReadPod(&b.null_count));
      AQPP_RETURN_NOT_OK(in.ReadPod(&b.checksum));
      AQPP_RETURN_NOT_OK(in.ReadPod(&b.min_bits));
      AQPP_RETURN_NOT_OK(in.ReadPod(&b.max_bits));
      if (encoding > static_cast<uint8_t>(ExtentEncoding::kDoubleRaw) ||
          type != static_cast<uint8_t>(reader->schema_.column(c).type)) {
        return Status::IOError("corrupt extent directory in '" + path + "'");
      }
      b.encoding = static_cast<ExtentEncoding>(encoding);
      b.type = static_cast<DataType>(type);
      // Compared without overflow: a sum near 2^64 would wrap past the
      // footer check and send Pin() outside the mapping.
      if (b.rows != expect_rows ||
          b.offset < sizeof(kExtentFileMagic) || b.offset > footer_offset ||
          footer_offset - b.offset <
              sizeof(ExtentHeader) + uint64_t{b.encoded_bytes}) {
        return Status::IOError("corrupt extent directory in '" + path + "'");
      }
    }
  }

  // Map the whole file read-only; extents decode straight out of the page
  // cache with no buffer copies.
  errno = 0;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "'" + ErrnoDetail());
  }
  void* map =
      ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed for '" + path + "'" + ErrnoDetail());
  }
  reader->map_ = static_cast<const uint8_t*>(map);
  reader->map_size_ = file_size;
  ExtentMetrics::Get().cache_hit_rate->Set(
      HitRatePercent(reader->hits_, reader->misses_));
  return reader;
}

size_t ExtentFileReader::ExtentRows(size_t e) const {
  if (e + 1 < num_extents_ || num_rows_ % kExtentRows == 0) {
    return kExtentRows;
  }
  return num_rows_ % kExtentRows;
}

Result<ExtentFileReader::DecodedColumn> ExtentFileReader::Pin(size_t e,
                                                              size_t col) {
  if (e >= num_extents_ || col >= schema_.num_columns()) {
    return Status::InvalidArgument("extent index out of range");
  }
  auto& metrics = ExtentMetrics::Get();
  const uint64_t key = CacheKey(e, col);
  const ExtentBlobInfo& b = blob(e, col);
  std::shared_ptr<std::vector<int64_t>> ints;
  std::shared_ptr<std::vector<double>> dbls;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      metrics.cache_hits->Increment();
      metrics.cache_hit_rate->Set(HitRatePercent(hits_, misses_));
      return it->second->value;
    }
    if (b.type == DataType::kDouble && !spare_dbls_.empty()) {
      dbls = std::move(spare_dbls_.back());
      spare_dbls_.pop_back();
    } else if (b.type != DataType::kDouble && !spare_ints_.empty()) {
      ints = std::move(spare_ints_.back());
      spare_ints_.pop_back();
    }
  }

  // The decode itself runs outside the lock so parallel shard scans pin
  // different extents concurrently. A racing double-decode is possible and
  // harmless (idempotent; last one wins the cache slot).
  if (auto fired = AQPP_FAILPOINT_EVAL("storage/io/read")) {
    if (fired->kind == fail::ActionKind::kReturnError) return fired->error;
    return Status::IOError(StrFormat(
        "short read from '%s': extent %zu truncated", path_.c_str(), e));
  }
  ExtentHeader header;
  std::memcpy(&header, map_ + b.offset, sizeof(header));
  // Cross-check header against the footer directory: a torn or bit-flipped
  // region fails here even when both halves are internally consistent.
  if (header.magic != ExtentHeader::kMagic ||
      header.encoding != static_cast<uint8_t>(b.encoding) ||
      header.type != static_cast<uint8_t>(b.type) ||
      header.rows != b.rows || header.encoded_bytes != b.encoded_bytes ||
      header.checksum != b.checksum) {
    return Status::IOError(StrFormat(
        "extent %zu of column %zu in '%s' disagrees with the footer "
        "directory (corrupt file)",
        e, col, path_.c_str()));
  }
  const uint8_t* payload = map_ + b.offset + sizeof(ExtentHeader);
  Timer timer;
  AQPP_RETURN_NOT_OK(VerifyExtent(header, payload));
  const double verify_seconds = timer.ElapsedSeconds();
  timer.Reset();
  DecodedColumn decoded;
  decoded.type = b.type;
  decoded.rows = b.rows;
  if (b.type == DataType::kDouble) {
    if (dbls == nullptr) dbls = std::make_shared<std::vector<double>>();
    AQPP_RETURN_NOT_OK(DecodeExtent(header, payload, nullptr, dbls.get()));
    decoded.dbls = std::move(dbls);
  } else {
    if (ints == nullptr) ints = std::make_shared<std::vector<int64_t>>();
    AQPP_RETURN_NOT_OK(DecodeExtent(header, payload, ints.get(), nullptr));
    decoded.ints = std::move(ints);
  }
  metrics.verify_seconds->Observe(verify_seconds);
  metrics.decode_seconds->Observe(timer.ElapsedSeconds());
  metrics.read->Increment();
  metrics.decoded_bytes->Increment(static_cast<uint64_t>(b.rows) * 8);

  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  metrics.cache_misses->Increment();
  metrics.cache_hit_rate->Set(HitRatePercent(hits_, misses_));
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->value = decoded;
    return decoded;
  }
  lru_.push_front(CacheEntry{key, decoded});
  index_[key] = lru_.begin();
  while (lru_.size() > cache_capacity_) {
    RecycleLocked(std::move(lru_.back().value));
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return decoded;
}

void ExtentFileReader::RecycleLocked(DecodedColumn evicted) {
  // use_count() == 1 under mu_ means the cache held the only reference, and
  // new ones are only ever copied from the cache under mu_.
  if (evicted.ints != nullptr && evicted.ints.use_count() == 1 &&
      spare_ints_.size() < cache_capacity_) {
    spare_ints_.push_back(
        std::const_pointer_cast<std::vector<int64_t>>(std::move(evicted.ints)));
  } else if (evicted.dbls != nullptr && evicted.dbls.use_count() == 1 &&
             spare_dbls_.size() < cache_capacity_) {
    spare_dbls_.push_back(
        std::const_pointer_cast<std::vector<double>>(std::move(evicted.dbls)));
  }
}

void ExtentFileReader::ReleaseBefore(size_t e) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if ((it->key >> 20) < e) {
        index_.erase(it->key);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (map_ == nullptr || e == 0) return;
  // Everything before extent e's first blob is finished with; let the kernel
  // reclaim those page-cache-backed pages so a streaming pass stays at a
  // bounded resident set. (Re-reading later just faults them back in.)
  const uint64_t end = e < num_extents_ ? blob(e, 0).offset : map_size_;
  const long page = ::sysconf(_SC_PAGESIZE);
  const uint64_t aligned = end - end % static_cast<uint64_t>(page);
  if (aligned > 0) {
    ::madvise(const_cast<uint8_t*>(map_), aligned, MADV_DONTNEED);
  }
}

uint64_t ExtentFileReader::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ExtentFileReader::cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

Result<std::shared_ptr<Table>> ExtentFileReader::ReadTable() {
  auto table = std::make_shared<Table>(schema_);
  table->Reserve(num_rows_);
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    Column& col = table->mutable_column(c);
    for (size_t e = 0; e < num_extents_; ++e) {
      AQPP_ASSIGN_OR_RETURN(DecodedColumn d, Pin(e, c));
      if (d.type == DataType::kDouble) {
        if (num_extents_ == 1) {
          // The decode buffer IS the whole column: adopt it, no copy.
          col.AdoptDoubleData(d.dbls);
          continue;
        }
        auto& dst = col.MutableDoubleData();
        dst.insert(dst.end(), d.dbls->begin(), d.dbls->end());
      } else {
        auto& dst = col.MutableInt64Data();
        dst.insert(dst.end(), d.ints->begin(), d.ints->end());
      }
    }
    if (col.type() == DataType::kString) {
      col.SetDictionary(dicts_[c]);
    }
  }
  table->SetRowCountFromColumns();
  return table;
}

}  // namespace aqpp
