// On-disk extent file: a whole table as compressed column extents, built for
// streaming writes and bounded-memory scans.
//
// Layout (all integers native-order, like the other binary formats):
//
//   +--------------------------------------------------------------+
//   | magic "AQPPEXT1" (8 bytes)                                   |
//   +--------------------------------------------------------------+
//   | row group 0:  col 0 extent | col 1 extent | ... | col C-1    |
//   | row group 1:  col 0 extent | col 1 extent | ...              |
//   | ...            (each extent = 40-byte header + payload)      |
//   +--------------------------------------------------------------+
//   | footer: schema + dictionaries + per-extent directory         |
//   |         (offset / length / encoding / zone maps / checksum)  |
//   +--------------------------------------------------------------+
//   | trailer: u64 footer offset + magic "AQPPEXT1" (16 bytes)     |
//   +--------------------------------------------------------------+
//
// Row-group-major blob order means the writer streams with one extent of
// buffering per column and a single-pass reader touches the file once, in
// offset order. The footer duplicates every extent's zone maps so predicate
// pruning never has to fault in the extents it is about to skip.
//
// Durability: the writer targets `path.tmp`, fsyncs, then renames — a crash
// or injected fault leaves the destination absent or previously-complete,
// never torn (same contract as WriteBinary, same storage/io/* failpoints).

#ifndef AQPP_STORAGE_EXTENT_FILE_H_
#define AQPP_STORAGE_EXTENT_FILE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/extent.h"
#include "storage/file_io.h"
#include "storage/table.h"

namespace aqpp {

// One footer directory entry: where a column's extent lives and everything
// pruning needs to know about it without reading it.
struct ExtentBlobInfo {
  uint64_t offset = 0;        // file offset of the 40-byte extent header
  uint32_t encoded_bytes = 0; // payload bytes (header not included)
  ExtentEncoding encoding = ExtentEncoding::kInt64Raw;
  DataType type = DataType::kInt64;
  uint32_t rows = 0;
  uint32_t null_count = 0;
  uint32_t checksum = 0;
  int64_t min_bits = 0;       // zone map (int64 value / double bit pattern)
  int64_t max_bits = 0;
};

// Streaming writer: append row batches in any sizes; every kExtentRows
// buffered rows are encoded and flushed, so peak memory is one extent per
// column plus the caller's batch regardless of total table size.
class ExtentFileWriter {
 public:
  static Result<std::unique_ptr<ExtentFileWriter>> Create(
      const std::string& path, const Schema& schema);
  ~ExtentFileWriter();
  ExtentFileWriter(const ExtentFileWriter&) = delete;
  ExtentFileWriter& operator=(const ExtentFileWriter&) = delete;

  // Sets the (final) dictionary for a kString column. Must be called before
  // Finish(); codes appended for this column must already index into `dict`
  // (e.g. from FinalizeDictionaries on the source, or a generator that
  // assigns final codes up front).
  Status SetDictionary(size_t col, std::vector<std::string> dict);

  // Appends all rows of `batch`, whose schema must match column-for-column.
  Status Append(const Table& batch);

  // Flushes the ragged tail extent, writes footer + trailer, fsyncs, and
  // atomically renames into place. No-op file methods after this.
  Status Finish();

  uint64_t rows_appended() const { return rows_appended_; }

 private:
  ExtentFileWriter(std::string path, Schema schema);

  Status FlushBufferedExtent();
  Status Fail(Status st);  // abandons the tmp file, remembers the error

  std::string path_;
  std::string tmp_path_;
  Schema schema_;
  CheckedWriter out_;
  std::vector<std::vector<int64_t>> int_buf_;  // per ordinal column
  std::vector<std::vector<double>> dbl_buf_;   // per double column
  std::vector<std::vector<std::string>> dicts_;
  std::vector<char> dict_set_;
  std::vector<int64_t> max_code_;  // per kString column, for code validation
  size_t buffered_rows_ = 0;
  uint64_t rows_appended_ = 0;
  std::vector<ExtentBlobInfo> blobs_;  // row-group-major
  bool finished_ = false;
  bool failed_ = false;
};

// mmap-backed reader. Opening parses and validates the footer only; extents
// are decoded on demand through Pin(), with a small LRU of decoded extents
// so repeated scans over the same hot columns stay cheap while resident
// memory stays bounded.
//
// Thread safety: Pin() and the cache are mutex-guarded (decode itself runs
// outside the lock); everything else is immutable after Open.
class ExtentFileReader {
 public:
  struct Options {
    // Decoded extents kept alive by the cache (~0.5 MB each per column).
    size_t cache_capacity = 48;
  };

  static Result<std::shared_ptr<ExtentFileReader>> Open(
      const std::string& path, const Options& options);
  static Result<std::shared_ptr<ExtentFileReader>> Open(
      const std::string& path) {
    return Open(path, Options());
  }
  ~ExtentFileReader();
  ExtentFileReader(const ExtentFileReader&) = delete;
  ExtentFileReader& operator=(const ExtentFileReader&) = delete;

  const std::string& path() const { return path_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }
  size_t num_extents() const { return num_extents_; }

  // Rows in extent `e` (kExtentRows except possibly the last).
  size_t ExtentRows(size_t e) const;
  const ExtentBlobInfo& blob(size_t e, size_t col) const {
    return blobs_[e * schema_.num_columns() + col];
  }
  const std::vector<std::string>& dictionary(size_t col) const {
    return dicts_[col];
  }

  // A decoded column extent. The shared_ptr keeps the buffer alive for as
  // long as the caller needs it, independent of cache eviction.
  struct DecodedColumn {
    DataType type = DataType::kInt64;
    size_t rows = 0;
    std::shared_ptr<const std::vector<int64_t>> ints;  // ordinal types
    std::shared_ptr<const std::vector<double>> dbls;   // kDouble
    const int64_t* int_data() const { return ints ? ints->data() : nullptr; }
    const double* dbl_data() const { return dbls ? dbls->data() : nullptr; }
  };

  // Decodes (or returns the cached copy of) extent `e` of column `col`.
  // Verifies header-vs-footer consistency and the payload checksum; corrupt
  // bytes yield IOError, never a crash.
  Result<DecodedColumn> Pin(size_t e, size_t col);

  // Sequential-streaming helper: drops cached decodes for extents before `e`
  // and advises the kernel to release their file pages, keeping the resident
  // set proportional to the read-ahead window rather than the file.
  void ReleaseBefore(size_t e);

  uint64_t cache_hits() const;
  uint64_t cache_misses() const;

  // Materializes the whole file as an in-memory Table (tests, small files,
  // `table_pack --verify`).
  Result<std::shared_ptr<Table>> ReadTable();

 private:
  ExtentFileReader() = default;

  std::string path_;
  Schema schema_;
  std::vector<std::vector<std::string>> dicts_;
  uint64_t num_rows_ = 0;
  size_t num_extents_ = 0;
  std::vector<ExtentBlobInfo> blobs_;

  const uint8_t* map_ = nullptr;
  uint64_t map_size_ = 0;

  mutable std::mutex mu_;
  // LRU over (extent, column) -> decoded buffer; front is most recent.
  struct CacheEntry {
    uint64_t key;
    DecodedColumn value;
  };
  std::list<CacheEntry> lru_;
  std::unordered_map<uint64_t, std::list<CacheEntry>::iterator> index_;
  size_t cache_capacity_ = 48;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // Buffers of evicted decodes that nobody else held, reused by the next
  // miss of the same type. A steady scan then allocates and frees nothing:
  // no page faults or zero fill per miss, and no freed buffers piling up in
  // each thread's malloc arena. A buffer is only allocated when no spare of
  // its type exists, so a type never has more buffers than it once had
  // cached or decoding at the same time; the lists are also capped at
  // cache_capacity_ each.
  std::vector<std::shared_ptr<std::vector<int64_t>>> spare_ints_;
  std::vector<std::shared_ptr<std::vector<double>>> spare_dbls_;

  void RecycleLocked(DecodedColumn evicted);  // requires mu_
};

// Convenience: pack an in-memory table into an extent file (dictionaries
// must already be finalized).
Status WriteExtentFile(const Table& table, const std::string& path);

}  // namespace aqpp

#endif  // AQPP_STORAGE_EXTENT_FILE_H_
