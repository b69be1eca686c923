// Compressed column extents: the unit of out-of-core storage.
//
// An extent holds up to kExtentRows values of one column, encoded with a
// lightweight scheme chosen per extent (frame-of-reference, delta-FOR,
// dictionary, or raw), preceded by a fixed 40-byte header carrying the
// min/max/count/null-count zone maps and a CRC-32 of the payload. All
// encodings are exactly lossless — a decoded extent is bit-identical to the
// values that went in, which is what lets the extent scan path reproduce the
// in-memory aggregation results bit for bit.
//
// kExtentRows equals the scan-kernel shard (32 x 2048-row chunks), so one
// decoded extent is exactly one shard of the fixed aggregation grid.

#ifndef AQPP_STORAGE_EXTENT_H_
#define AQPP_STORAGE_EXTENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/types.h"

namespace aqpp {

// Rows per (full) extent; the last extent of a column may be ragged. Must
// stay a multiple of the 2048-row kernel chunk: src/kernels asserts it
// matches the shard size so extent boundaries never split a chunk.
inline constexpr size_t kExtentRows = 65536;

enum class ExtentEncoding : uint8_t {
  // rows * 8 bytes, native order.
  kInt64Raw = 0,
  // u8 width(0|1|2|4) + i64 ref + rows*width packed (v - ref). width 0 means
  // a constant extent: every value equals ref, no packed bytes.
  kInt64For = 1,
  // u8 width(1|2|4) + i64 first + i64 ref + (rows-1)*width packed deltas
  // (v[i] - v[i-1] - ref). Wins on sorted / clustered keys.
  kInt64DeltaFor = 2,
  // u8 idx_width(1|2) + u32 k + k * i64 sorted distinct + rows*idx_width
  // indices. Wins on low-cardinality columns with a wide value range.
  kInt64Dict = 3,
  // rows * 8 bytes, native order (IEEE-754 bit patterns preserved).
  kDoubleRaw = 4,
};

const char* ExtentEncodingName(ExtentEncoding e);

// CRC-32 (reflected 0xEDB88320, the IEEE 802.3 polynomial). On x86-64 CPUs
// with PCLMULQDQ it folds 64-byte blocks with carry-less multiplies (about
// 20 GB/s on an AVX-512 Xeon, against 0.36 GB/s for a bytewise table loop);
// elsewhere it runs a slice-by-8 table loop (about 1.6 GB/s there). The arm
// is picked once per process, and both give the same bits.
uint32_t Crc32(const void* data, size_t n);

namespace internal {
// The two Crc32 arms, callable directly so tests check each one on any host.
// Crc32Clmul needs Crc32ClmulSupported() (it is the portable arm when the
// build has no x86-64 folding code).
uint32_t Crc32Portable(const void* data, size_t n);
bool Crc32ClmulSupported();
uint32_t Crc32Clmul(const void* data, size_t n);
}  // namespace internal

// Fixed 40-byte on-disk extent header. Field order gives natural alignment
// with no padding; serialized by memcpy in native order like the rest of the
// binary formats.
struct ExtentHeader {
  static constexpr uint32_t kMagic = 0x58455141u;  // "AQEX"

  uint32_t magic = kMagic;
  uint8_t encoding = 0;       // ExtentEncoding
  uint8_t type = 0;           // DataType
  uint16_t reserved = 0;
  uint32_t rows = 0;
  uint32_t encoded_bytes = 0; // payload bytes following this header
  uint32_t null_count = 0;    // always 0 today; kept for format evolution
  uint32_t checksum = 0;      // CRC-32 of the payload
  int64_t min_bits = 0;       // zone map: int64 value, or double bit pattern
  int64_t max_bits = 0;
};
static_assert(sizeof(ExtentHeader) == 40, "on-disk header must stay packed");

// Encodes one ordinal (kInt64 / kString-code) extent: appends header +
// payload to `out` and reports the header written. Picks the smallest
// candidate encoding; ties break toward the cheaper decoder.
Status EncodeExtent(const int64_t* values, size_t rows, DataType type,
                    std::string* out, ExtentHeader* header);

// Encodes one kDouble extent (raw IEEE-754; NaNs are excluded from the zone
// map unless the extent is all-NaN).
Status EncodeExtent(const double* values, size_t rows, std::string* out,
                    ExtentHeader* header);

// Checks a header read from (possibly corrupt) bytes — magic, enum ranges,
// row count — and the CRC-32 of its `header.encoded_bytes`-long payload.
// Wrong magic is InvalidArgument; everything else is IOError.
Status VerifyExtent(const ExtentHeader& header, const uint8_t* payload);

// Decodes one extent payload into `ints` (ordinal types) or `dbls`
// (kDouble), resizing the destination to header.rows. Call VerifyExtent
// first: this checks the header's structure and every embedded length and
// index before touching the destination, so corrupt input yields a typed
// IOError, never a crash, but it does not recompute the checksum.
Status DecodeExtent(const ExtentHeader& header, const uint8_t* payload,
                    std::vector<int64_t>* ints, std::vector<double>* dbls);

}  // namespace aqpp

#endif  // AQPP_STORAGE_EXTENT_H_
