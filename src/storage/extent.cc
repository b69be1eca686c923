#include "storage/extent.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define AQPP_CRC32_CLMUL 1
#else
#define AQPP_CRC32_CLMUL 0
#endif

#include "common/string_util.h"

namespace aqpp {

namespace {

// Dictionary encoding is only probed up to this many distinct values; past
// it the value table stops paying for itself against FOR.
constexpr size_t kMaxDictValues = 4096;

// Slice-by-8 tables: kCrcTables[0] is the classic byte table of the
// reflected polynomial, and kCrcTables[k][b] advances kCrcTables[k-1][b] by
// one more zero byte, so eight table lookups consume eight input bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Little-endian load of one T from possibly unaligned bytes.
template <typename T>
T LoadLE(const uint8_t* p) {
  T v;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    uint8_t b[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) b[i] = p[sizeof(T) - 1 - i];
    std::memcpy(&v, b, sizeof(T));
  }
  return v;
}

// Advances the raw (un-inverted) CRC register `c` over n bytes.
uint32_t CrcUpdatePortable(uint32_t c, const uint8_t* p, size_t n) {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t w = LoadLE<uint64_t>(p) ^ c;
    c = t[7][w & 0xFFu] ^ t[6][(w >> 8) & 0xFFu] ^ t[5][(w >> 16) & 0xFFu] ^
        t[4][(w >> 24) & 0xFFu] ^ t[3][(w >> 32) & 0xFFu] ^
        t[2][(w >> 40) & 0xFFu] ^ t[1][(w >> 48) & 0xFFu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if AQPP_CRC32_CLMUL
#define AQPP_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: the lane's low and high halves times the two constants of
// k, plus the next 16 bytes of message.
AQPP_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Folds n bytes (n >= 64, n % 16 == 0) into the raw CRC register with
// carry-less multiplies: four 128-bit lanes advance 64 bytes per step, then
// fold into one lane, then 16 bytes per step, and a Barrett reduction brings
// the 128-bit remainder back to 32 bits. The constants are x^k mod P for the
// bit-reflected polynomial (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel, 2009): k1/k2 fold a lane
// 512 bits ahead, k3/k4 128 bits ahead, k5 64 bits, and mu/P' drive the
// reduction.
AQPP_CLMUL_TARGET uint32_t CrcFoldClmul(uint32_t c, const uint8_t* p,
                                         size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x0 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load128(p));
    x1 = Fold(x1, k1k2, Load128(p + 16));
    x2 = Fold(x2, k1k2, Load128(p + 32));
    x3 = Fold(x3, k1k2, Load128(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 + Barrett reduction.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x0, 8),
                            _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}
#endif  // AQPP_CRC32_CLMUL

// Bytes needed to hold an unsigned delta range; 8 means "doesn't fit any
// packed width" (caller falls back to raw).
uint8_t WidthForRange(uint64_t range) {
  if (range == 0) return 0;
  if (range <= 0xFFull) return 1;
  if (range <= 0xFFFFull) return 2;
  if (range <= 0xFFFFFFFFull) return 4;
  return 8;
}

// Packed little-endian writes, independent of host struct layout.
void AppendPackedU64(std::string* out, uint64_t v, uint8_t width) {
  for (uint8_t b = 0; b < width; ++b) {
    out->push_back(static_cast<char>((v >> (8 * b)) & 0xFFu));
  }
}

void AppendHeader(std::string* out, const ExtentHeader& h) {
  out->append(reinterpret_cast<const char*>(&h), sizeof(h));
}

Status CorruptExtent(const char* what) {
  return Status::IOError(std::string("corrupt extent: ") + what);
}

}  // namespace

const char* ExtentEncodingName(ExtentEncoding e) {
  switch (e) {
    case ExtentEncoding::kInt64Raw:
      return "int64_raw";
    case ExtentEncoding::kInt64For:
      return "int64_for";
    case ExtentEncoding::kInt64DeltaFor:
      return "int64_delta_for";
    case ExtentEncoding::kInt64Dict:
      return "int64_dict";
    case ExtentEncoding::kDoubleRaw:
      return "double_raw";
  }
  return "unknown";
}

namespace internal {

uint32_t Crc32Portable(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  return CrcUpdatePortable(0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu;
}

#if AQPP_CRC32_CLMUL
bool Crc32ClmulSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

uint32_t Crc32Clmul(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = CrcFoldClmul(c, p, folded);
    p += folded;
    n -= folded;
  }
  return CrcUpdatePortable(c, p, n) ^ 0xFFFFFFFFu;
}
#else
bool Crc32ClmulSupported() { return false; }

uint32_t Crc32Clmul(const void* data, size_t n) {
  return Crc32Portable(data, n);
}
#endif

}  // namespace internal

uint32_t Crc32(const void* data, size_t n) {
  static const bool clmul = internal::Crc32ClmulSupported();
  return clmul ? internal::Crc32Clmul(data, n)
               : internal::Crc32Portable(data, n);
}

Status EncodeExtent(const int64_t* values, size_t rows, DataType type,
                    std::string* out, ExtentHeader* header) {
  if (rows == 0 || rows > kExtentRows) {
    return Status::InvalidArgument("extent rows must be in [1, 65536]");
  }
  if (type == DataType::kDouble) {
    return Status::InvalidArgument("int64 encoder given a double column");
  }

  int64_t mn = values[0];
  int64_t mx = values[0];
  for (size_t i = 1; i < rows; ++i) {
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  // Two's-complement subtraction in uint64 gives the exact range even when
  // (mx - mn) would overflow int64.
  const uint64_t range =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  const uint8_t for_width = WidthForRange(range);

  constexpr size_t kNoFit = std::numeric_limits<size_t>::max();
  size_t for_bytes = kNoFit;
  if (for_width <= 4) for_bytes = 1 + 8 + rows * for_width;

  // Delta-FOR: only when the value range fits int64, so every successive
  // delta is exactly representable.
  size_t delta_bytes = kNoFit;
  uint8_t delta_width = 8;
  int64_t delta_ref = 0;
  if (rows >= 2 &&
      range <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    int64_t dmn = values[1] - values[0];
    int64_t dmx = dmn;
    for (size_t i = 2; i < rows; ++i) {
      int64_t d = values[i] - values[i - 1];
      dmn = std::min(dmn, d);
      dmx = std::max(dmx, d);
    }
    delta_width = WidthForRange(static_cast<uint64_t>(dmx) -
                                static_cast<uint64_t>(dmn));
    if (delta_width >= 1 && delta_width <= 4) {
      delta_bytes = 1 + 8 + 8 + (rows - 1) * delta_width;
      delta_ref = dmn;
    }
  }

  // Dictionary: probed only when FOR needs > 1 byte/row (a 1-byte FOR is
  // already at the dictionary index floor, so the value table can't win).
  size_t dict_bytes = kNoFit;
  std::vector<int64_t> dict_values;
  if (for_width > 1) {
    std::unordered_set<int64_t> distinct;
    distinct.reserve(kMaxDictValues * 2);
    for (size_t i = 0; i < rows; ++i) {
      distinct.insert(values[i]);
      if (distinct.size() > kMaxDictValues) break;
    }
    if (distinct.size() <= kMaxDictValues) {
      dict_values.assign(distinct.begin(), distinct.end());
      std::sort(dict_values.begin(), dict_values.end());
      const uint8_t idx_width = dict_values.size() <= 256 ? 1 : 2;
      dict_bytes = 1 + 4 + dict_values.size() * 8 + rows * idx_width;
    }
  }

  const size_t raw_bytes = rows * 8;

  ExtentEncoding enc = ExtentEncoding::kInt64Raw;
  size_t best = raw_bytes;
  // Priority on ties: FOR (cheapest decode) > delta-FOR > dict > raw.
  if (dict_bytes < best) {
    enc = ExtentEncoding::kInt64Dict;
    best = dict_bytes;
  }
  if (delta_bytes < best) {
    enc = ExtentEncoding::kInt64DeltaFor;
    best = delta_bytes;
  }
  if (for_bytes <= best) {
    enc = ExtentEncoding::kInt64For;
    best = for_bytes;
  }

  std::string payload;
  payload.reserve(best);
  switch (enc) {
    case ExtentEncoding::kInt64For: {
      payload.push_back(static_cast<char>(for_width));
      AppendPackedU64(&payload, static_cast<uint64_t>(mn), 8);
      for (size_t i = 0; i < rows; ++i) {
        AppendPackedU64(&payload,
                        static_cast<uint64_t>(values[i]) -
                            static_cast<uint64_t>(mn),
                        for_width);
      }
      break;
    }
    case ExtentEncoding::kInt64DeltaFor: {
      payload.push_back(static_cast<char>(delta_width));
      AppendPackedU64(&payload, static_cast<uint64_t>(values[0]), 8);
      AppendPackedU64(&payload, static_cast<uint64_t>(delta_ref), 8);
      for (size_t i = 1; i < rows; ++i) {
        int64_t d = values[i] - values[i - 1];
        AppendPackedU64(&payload,
                        static_cast<uint64_t>(d) -
                            static_cast<uint64_t>(delta_ref),
                        delta_width);
      }
      break;
    }
    case ExtentEncoding::kInt64Dict: {
      const uint8_t idx_width = dict_values.size() <= 256 ? 1 : 2;
      payload.push_back(static_cast<char>(idx_width));
      AppendPackedU64(&payload, dict_values.size(), 4);
      for (int64_t v : dict_values) {
        AppendPackedU64(&payload, static_cast<uint64_t>(v), 8);
      }
      for (size_t i = 0; i < rows; ++i) {
        auto it = std::lower_bound(dict_values.begin(), dict_values.end(),
                                   values[i]);
        AppendPackedU64(
            &payload,
            static_cast<uint64_t>(it - dict_values.begin()), idx_width);
      }
      break;
    }
    case ExtentEncoding::kInt64Raw:
    default:
      payload.assign(reinterpret_cast<const char*>(values), rows * 8);
      break;
  }

  ExtentHeader h;
  h.encoding = static_cast<uint8_t>(enc);
  h.type = static_cast<uint8_t>(type);
  h.rows = static_cast<uint32_t>(rows);
  h.encoded_bytes = static_cast<uint32_t>(payload.size());
  h.checksum = Crc32(payload.data(), payload.size());
  h.min_bits = mn;
  h.max_bits = mx;
  AppendHeader(out, h);
  out->append(payload);
  if (header != nullptr) *header = h;
  return Status::OK();
}

Status EncodeExtent(const double* values, size_t rows, std::string* out,
                    ExtentHeader* header) {
  if (rows == 0 || rows > kExtentRows) {
    return Status::InvalidArgument("extent rows must be in [1, 65536]");
  }
  // Zone map over non-NaN values (an all-NaN extent keeps NaN bounds, which
  // no range predicate matches anyway).
  double mn = std::numeric_limits<double>::quiet_NaN();
  double mx = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < rows; ++i) {
    double v = values[i];
    if (std::isnan(v)) continue;
    if (std::isnan(mn) || v < mn) mn = v;
    if (std::isnan(mx) || v > mx) mx = v;
  }

  ExtentHeader h;
  h.encoding = static_cast<uint8_t>(ExtentEncoding::kDoubleRaw);
  h.type = static_cast<uint8_t>(DataType::kDouble);
  h.rows = static_cast<uint32_t>(rows);
  h.encoded_bytes = static_cast<uint32_t>(rows * 8);
  h.checksum = Crc32(values, rows * 8);
  std::memcpy(&h.min_bits, &mn, 8);
  std::memcpy(&h.max_bits, &mx, 8);
  AppendHeader(out, h);
  out->append(reinterpret_cast<const char*>(values), rows * 8);
  if (header != nullptr) *header = h;
  return Status::OK();
}

namespace {

// Structural checks of a header read from possibly corrupt bytes. Wrong
// magic is InvalidArgument; everything else is IOError.
Status ValidateHeader(const ExtentHeader& h) {
  if (h.magic != ExtentHeader::kMagic) {
    return Status::InvalidArgument("bad extent magic (not an AQPP extent)");
  }
  if (h.encoding > static_cast<uint8_t>(ExtentEncoding::kDoubleRaw)) {
    return CorruptExtent("unknown encoding");
  }
  if (h.type > static_cast<uint8_t>(DataType::kString)) {
    return CorruptExtent("unknown column type");
  }
  const bool is_double = h.type == static_cast<uint8_t>(DataType::kDouble);
  const bool double_enc =
      h.encoding == static_cast<uint8_t>(ExtentEncoding::kDoubleRaw);
  if (is_double != double_enc) {
    return CorruptExtent("encoding does not match column type");
  }
  if (h.rows == 0 || h.rows > kExtentRows) {
    return CorruptExtent("row count out of range");
  }
  if (h.null_count > h.rows) {
    return CorruptExtent("null count exceeds row count");
  }
  return Status::OK();
}

// Unpack loops specialized on the packed width T (uint8/16/32_t), so each
// row is one fixed-size load instead of a per-byte shift loop.
template <typename T>
void UnpackFor(const uint8_t* p, size_t rows, uint64_t ref, int64_t* out) {
  for (size_t i = 0; i < rows; ++i) {
    out[i] = static_cast<int64_t>(ref + LoadLE<T>(p + i * sizeof(T)));
  }
}

template <typename T>
void UnpackDeltaFor(const uint8_t* p, size_t rows, uint64_t first,
                    uint64_t ref, int64_t* out) {
  uint64_t acc = first;
  out[0] = static_cast<int64_t>(acc);
  for (size_t i = 1; i < rows; ++i) {
    acc += ref + LoadLE<T>(p + (i - 1) * sizeof(T));
    out[i] = static_cast<int64_t>(acc);
  }
}

template <typename T>
uint64_t MaxDictIndex(const uint8_t* idx, size_t rows) {
  T m = 0;
  for (size_t i = 0; i < rows; ++i) {
    m = std::max(m, LoadLE<T>(idx + i * sizeof(T)));
  }
  return m;
}

// Every index must already be known to be < the dictionary size.
template <typename T>
void UnpackDict(const uint8_t* vals, const uint8_t* idx, size_t rows,
                int64_t* out) {
  for (size_t i = 0; i < rows; ++i) {
    const size_t j = LoadLE<T>(idx + i * sizeof(T));
    out[i] = static_cast<int64_t>(LoadLE<uint64_t>(vals + j * 8));
  }
}

}  // namespace

Status VerifyExtent(const ExtentHeader& h, const uint8_t* payload) {
  AQPP_RETURN_NOT_OK(ValidateHeader(h));
  const uint32_t crc = Crc32(payload, h.encoded_bytes);
  if (crc != h.checksum) {
    return Status::IOError(StrFormat(
        "extent checksum mismatch: payload crc32 %08x, header says %08x",
        crc, h.checksum));
  }
  return Status::OK();
}

Status DecodeExtent(const ExtentHeader& h, const uint8_t* payload,
                    std::vector<int64_t>* ints, std::vector<double>* dbls) {
  AQPP_RETURN_NOT_OK(ValidateHeader(h));
  const size_t rows = h.rows;
  const size_t n = h.encoded_bytes;

  switch (static_cast<ExtentEncoding>(h.encoding)) {
    case ExtentEncoding::kInt64Raw: {
      if (n != rows * 8) return CorruptExtent("raw int payload size");
      ints->resize(rows);
      std::memcpy(ints->data(), payload, n);
      return Status::OK();
    }
    case ExtentEncoding::kInt64For: {
      if (n < 9) return CorruptExtent("FOR payload too short");
      const uint8_t width = payload[0];
      if (width != 0 && width != 1 && width != 2 && width != 4) {
        return CorruptExtent("FOR width");
      }
      if (n != 9 + rows * width) return CorruptExtent("FOR payload size");
      const uint64_t ref = LoadLE<uint64_t>(payload + 1);
      ints->resize(rows);
      int64_t* out = ints->data();
      const uint8_t* p = payload + 9;
      switch (width) {
        case 0:
          std::fill(out, out + rows, static_cast<int64_t>(ref));
          break;
        case 1:
          UnpackFor<uint8_t>(p, rows, ref, out);
          break;
        case 2:
          UnpackFor<uint16_t>(p, rows, ref, out);
          break;
        default:
          UnpackFor<uint32_t>(p, rows, ref, out);
          break;
      }
      return Status::OK();
    }
    case ExtentEncoding::kInt64DeltaFor: {
      if (n < 17) return CorruptExtent("delta-FOR payload too short");
      const uint8_t width = payload[0];
      if (width != 1 && width != 2 && width != 4) {
        return CorruptExtent("delta-FOR width");
      }
      if (n != 17 + (rows - 1) * width) {
        return CorruptExtent("delta-FOR payload size");
      }
      const uint64_t first = LoadLE<uint64_t>(payload + 1);
      const uint64_t ref = LoadLE<uint64_t>(payload + 9);
      ints->resize(rows);
      int64_t* out = ints->data();
      const uint8_t* p = payload + 17;
      switch (width) {
        case 1:
          UnpackDeltaFor<uint8_t>(p, rows, first, ref, out);
          break;
        case 2:
          UnpackDeltaFor<uint16_t>(p, rows, first, ref, out);
          break;
        default:
          UnpackDeltaFor<uint32_t>(p, rows, first, ref, out);
          break;
      }
      return Status::OK();
    }
    case ExtentEncoding::kInt64Dict: {
      if (n < 5) return CorruptExtent("dict payload too short");
      const uint8_t idx_width = payload[0];
      if (idx_width != 1 && idx_width != 2) {
        return CorruptExtent("dict index width");
      }
      const uint64_t k = LoadLE<uint32_t>(payload + 1);
      if (k == 0 || k > kMaxDictValues) {
        return CorruptExtent("dict value count");
      }
      if (idx_width == 1 && k > 256) {
        return CorruptExtent("dict value count vs index width");
      }
      if (n != 5 + k * 8 + rows * idx_width) {
        return CorruptExtent("dict payload size");
      }
      const uint8_t* vals = payload + 5;
      const uint8_t* idx = vals + k * 8;
      const uint64_t max_index = idx_width == 1
                                     ? MaxDictIndex<uint8_t>(idx, rows)
                                     : MaxDictIndex<uint16_t>(idx, rows);
      if (max_index >= k) return CorruptExtent("dict index out of range");
      ints->resize(rows);
      if (idx_width == 1) {
        UnpackDict<uint8_t>(vals, idx, rows, ints->data());
      } else {
        UnpackDict<uint16_t>(vals, idx, rows, ints->data());
      }
      return Status::OK();
    }
    case ExtentEncoding::kDoubleRaw: {
      if (n != rows * 8) return CorruptExtent("raw double payload size");
      dbls->resize(rows);
      std::memcpy(dbls->data(), payload, n);
      return Status::OK();
    }
  }
  return CorruptExtent("unknown encoding");
}

}  // namespace aqpp
