// Extent storage tests: both CRC-32 arms and the width-specialized unpack
// loops against bytewise oracles, lossless encoding round-trips, the on-disk
// file format, hostile-byte handling (corruption, truncation, oversized
// lengths, wrapped offsets), failpoint-injected I/O faults, the
// decoded-extent LRU and its metrics, and the adopted-buffer borrow path
// (Column::AdoptDoubleData).
//
// The corruption tests run in every build flavor; the injection tests skip
// themselves when failpoints are compiled out, mirroring fault_io_test.cc.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "storage/column_source.h"
#include "storage/extent.h"
#include "storage/extent_file.h"
#include "test_util.h"

namespace aqpp {
namespace {

#define SKIP_WITHOUT_FAILPOINTS()                                    \
  do {                                                               \
    if (!fail::kCompiledIn)                                          \
      GTEST_SKIP() << "failpoints compiled out (AQPP_ENABLE_FAILPOINTS=OFF)"; \
  } while (0)

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class ExtentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "aqpp_extent_test";
    std::filesystem::create_directories(dir_);
    fail::Registry::Global().DisableAll();
  }
  void TearDown() override {
    fail::Registry::Global().DisableAll();
    std::filesystem::remove_all(dir_);
  }
  std::string Path(const char* name) { return (dir_ / name).string(); }

  // INT64 key + STRING (dictionary) + DOUBLE, with the key clustered by row
  // position so extent zone maps are tight and distinct.
  std::shared_ptr<Table> MakeTable(size_t rows, uint64_t seed) {
    Schema schema({{"k", DataType::kInt64},
                   {"s", DataType::kString},
                   {"a", DataType::kDouble}});
    auto t = std::make_shared<Table>(schema);
    Rng gen(seed);
    for (size_t i = 0; i < rows; ++i) {
      t->AddRow()
          .Int64(static_cast<int64_t>(i / 100) + gen.NextInt(0, 3))
          .String(i % 3 == 0 ? "x" : (i % 3 == 1 ? "y" : "zz"))
          .Double(gen.NextDouble() - 0.5);
    }
    t->FinalizeDictionaries();
    return t;
  }

  // XORs one byte of `path` with 0xFF — a guaranteed change, unlike a blind
  // overwrite which could coincide with the existing byte.
  static void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    ASSERT_TRUE(f.good());
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
    ASSERT_TRUE(f.good());
  }

  static void Patch(const std::string& path, uint64_t offset, uint64_t v) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&v), sizeof(v));
    ASSERT_TRUE(f.good());
  }

  static void Patch32(const std::string& path, uint64_t offset, uint32_t v) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&v), sizeof(v));
    ASSERT_TRUE(f.good());
  }

  // Writes MakeTable(rows, seed) to `name` and returns the path.
  std::string WriteFile(const char* name, size_t rows, uint64_t seed) {
    auto t = MakeTable(rows, seed);
    std::string path = Path(name);
    EXPECT_TRUE(WriteExtentFile(*t, path).ok());
    return path;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// CRC-32: both arms against the bytewise table loop they replaced.
// ---------------------------------------------------------------------------

uint32_t BytewiseCrc32(const void* data, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownValues) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(internal::Crc32Portable("123456789", 9), 0xCBF43926u);
  if (internal::Crc32ClmulSupported()) {
    EXPECT_EQ(internal::Crc32Clmul("123456789", 9), 0xCBF43926u);
  }
}

// Every length 0-300 covers the folding arm's < 64-byte path, its 16-byte
// tail loop and every bytewise remainder; 65545 and 524288 cover long folds
// with and without a tail. Offsets 0-15 cover every 16-byte misalignment.
TEST(Crc32Test, BothArmsMatchBytewiseOracle) {
  const bool clmul = internal::Crc32ClmulSupported();
  if (!clmul) std::fprintf(stderr, "PCLMULQDQ arm not available here\n");
  std::vector<uint8_t> buf(524288 + 16);
  Rng rng(testutil::TestSeed(21));
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(65545);
  lengths.push_back(524288);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n : lengths) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t want = BytewiseCrc32(p, n);
      ASSERT_EQ(internal::Crc32Portable(p, n), want)
          << "portable, length " << n << " offset " << offset;
      if (clmul) {
        ASSERT_EQ(internal::Crc32Clmul(p, n), want)
            << "clmul, length " << n << " offset " << offset;
      }
      ASSERT_EQ(Crc32(p, n), want) << "length " << n << " offset " << offset;
    }
  }
}

// ---------------------------------------------------------------------------
// Width-specialized unpack loops against the generic per-byte loop.
// ---------------------------------------------------------------------------

uint64_t LoadPackedU64(const uint8_t* p, uint8_t width) {
  uint64_t v = 0;
  for (uint8_t b = 0; b < width; ++b) {
    v |= static_cast<uint64_t>(p[b]) << (8 * b);
  }
  return v;
}

// The generic decode the width-specialized loops replaced.
std::vector<int64_t> OracleDecode(const ExtentHeader& h,
                                  const uint8_t* payload) {
  const size_t rows = h.rows;
  std::vector<int64_t> out(rows);
  const uint8_t width = payload[0];
  switch (static_cast<ExtentEncoding>(h.encoding)) {
    case ExtentEncoding::kInt64For: {
      const uint64_t ref = LoadPackedU64(payload + 1, 8);
      for (size_t i = 0; i < rows; ++i) {
        out[i] = static_cast<int64_t>(
            ref + LoadPackedU64(payload + 9 + i * width, width));
      }
      break;
    }
    case ExtentEncoding::kInt64DeltaFor: {
      uint64_t acc = LoadPackedU64(payload + 1, 8);
      const uint64_t ref = LoadPackedU64(payload + 9, 8);
      out[0] = static_cast<int64_t>(acc);
      for (size_t i = 1; i < rows; ++i) {
        acc += ref + LoadPackedU64(payload + 17 + (i - 1) * width, width);
        out[i] = static_cast<int64_t>(acc);
      }
      break;
    }
    case ExtentEncoding::kInt64Dict: {
      const uint64_t k = LoadPackedU64(payload + 1, 4);
      const uint8_t* vals = payload + 5;
      const uint8_t* idx = vals + k * 8;
      for (size_t i = 0; i < rows; ++i) {
        const uint64_t j = LoadPackedU64(idx + i * width, width);
        out[i] = static_cast<int64_t>(LoadPackedU64(vals + j * 8, 8));
      }
      break;
    }
    default:
      ADD_FAILURE() << "no oracle for encoding " << int{h.encoding};
  }
  return out;
}

// Encodes `values`, checks the encoder picked `encoding` at `width` (the
// payload's first byte), and checks the decode against the oracle and the
// input.
void ExpectUnpackMatchesOracle(const std::vector<int64_t>& values,
                               ExtentEncoding encoding, uint8_t width) {
  SCOPED_TRACE(testing::Message()
               << ExtentEncodingName(encoding) << " width " << int{width}
               << ", " << values.size() << " rows");
  std::string blob;
  ExtentHeader header;
  ASSERT_TRUE(EncodeExtent(values.data(), values.size(), DataType::kInt64,
                           &blob, &header)
                  .ok());
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(blob.data()) + sizeof(ExtentHeader);
  ASSERT_EQ(header.encoding, static_cast<uint8_t>(encoding));
  ASSERT_EQ(payload[0], width);
  ASSERT_TRUE(VerifyExtent(header, payload).ok());
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeExtent(header, payload, &decoded, nullptr).ok());
  EXPECT_EQ(decoded, OracleDecode(header, payload));
  EXPECT_EQ(decoded, values);
}

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

TEST(UnpackTest, ForWidthsMatchOracle) {
  Rng rng(testutil::TestSeed(22));
  ExpectUnpackMatchesOracle(std::vector<int64_t>(2, kI64Min),
                            ExtentEncoding::kInt64For, 0);
  ExpectUnpackMatchesOracle(std::vector<int64_t>(12345, kI64Max),
                            ExtentEncoding::kInt64For, 0);
  // Unsorted values whose first two rows pin the range to the width's max,
  // at the int64 extremes so `ref + packed` wraps through uint64.
  const struct {
    uint8_t width;
    uint64_t span;
    int64_t base;
  } cases[] = {{1, 0xFFu, kI64Max - 0xFF},
               {2, 0xFFFFu, kI64Min},
               {4, 0xFFFFFFFFu, -0x7FFFFFFF}};
  for (const auto& c : cases) {
    for (size_t rows : {size_t{3}, size_t{7}, size_t{12345}, kExtentRows}) {
      std::vector<int64_t> values(rows);
      for (auto& v : values) {
        v = static_cast<int64_t>(static_cast<uint64_t>(c.base) +
                                 rng.NextBounded(c.span + 1));
      }
      values[0] = c.base;
      values[1] = static_cast<int64_t>(static_cast<uint64_t>(c.base) + c.span);
      ExpectUnpackMatchesOracle(values, ExtentEncoding::kInt64For, c.width);
    }
  }
}

TEST(UnpackTest, DeltaForWidthsMatchOracle) {
  Rng rng(testutil::TestSeed(23));
  // Per width: the largest delta step that still packs into it when the
  // steps are all of one sign, and half of it for a two-signed walk.
  const struct {
    uint8_t width;
    int64_t step;
  } cases[] = {{1, 255}, {2, 65535}, {4, 4'000'000'000}};
  for (const auto& c : cases) {
    for (size_t rows : {size_t{12345}, size_t{65535}, kExtentRows}) {
      std::vector<int64_t> down(rows), up(rows), walk(rows);
      down[0] = kI64Max;  // descending from the top: every delta <= 0
      up[0] = kI64Min;    // ascending from the bottom
      walk[0] = 0;
      for (size_t i = 1; i < rows; ++i) {
        down[i] = down[i - 1] - rng.NextInt(0, c.step);
        up[i] = up[i - 1] + rng.NextInt(0, c.step);
        walk[i] = walk[i - 1] + rng.NextInt(-c.step / 2, c.step / 2);
      }
      ExpectUnpackMatchesOracle(down, ExtentEncoding::kInt64DeltaFor, c.width);
      ExpectUnpackMatchesOracle(up, ExtentEncoding::kInt64DeltaFor, c.width);
      ExpectUnpackMatchesOracle(walk, ExtentEncoding::kInt64DeltaFor,
                                c.width);
    }
  }
}

TEST(UnpackTest, DictIndexWidthsMatchOracle) {
  Rng rng(testutil::TestSeed(24));
  // k = 5 and 256 fit one index byte; 257 and 4096 need two. The values
  // span the whole int64 range, so FOR cannot pack them.
  for (size_t k : {size_t{5}, size_t{256}, size_t{257}, size_t{4096}}) {
    std::vector<int64_t> distinct = {kI64Min, kI64Max};
    while (distinct.size() < k) {
      distinct.push_back(static_cast<int64_t>(rng.Next()));
    }
    for (size_t rows : {size_t{12345}, kExtentRows}) {
      std::vector<int64_t> values(rows);
      for (size_t i = 0; i < rows; ++i) {
        // Every value at least once, then random picks.
        values[i] = distinct[i < k ? i : rng.NextBounded(k)];
      }
      ExpectUnpackMatchesOracle(values, ExtentEncoding::kInt64Dict,
                                k <= 256 ? 1 : 2);
    }
  }
}

TEST(UnpackTest, DictIndexOutOfRangeIsIOError) {
  std::vector<int64_t> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 2 == 0 ? kI64Min : kI64Max;
  }
  std::string blob;
  ExtentHeader header;
  ASSERT_TRUE(EncodeExtent(values.data(), values.size(), DataType::kInt64,
                           &blob, &header)
                  .ok());
  ASSERT_EQ(header.encoding, static_cast<uint8_t>(ExtentEncoding::kInt64Dict));
  // Last index byte -> 2 with k = 2, under a matching checksum: the CRC
  // passes and the decoder's own bounds check must catch it.
  uint8_t* payload =
      reinterpret_cast<uint8_t*>(blob.data()) + sizeof(ExtentHeader);
  payload[header.encoded_bytes - 1] = 2;
  header.checksum = Crc32(payload, header.encoded_bytes);
  ASSERT_TRUE(VerifyExtent(header, payload).ok());
  std::vector<int64_t> decoded;
  Status st = DecodeExtent(header, payload, &decoded, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_TRUE(decoded.empty()) << "destination touched before the check";
}

// ---------------------------------------------------------------------------
// Encoding round-trips: every decode must be bit-identical to the input.
// ---------------------------------------------------------------------------

void RoundTripInts(const std::vector<int64_t>& values,
                   ExtentEncoding expected) {
  std::string blob;
  ExtentHeader header;
  ASSERT_TRUE(
      EncodeExtent(values.data(), values.size(), DataType::kInt64, &blob,
                   &header)
          .ok());
  EXPECT_EQ(header.encoding, static_cast<uint8_t>(expected));
  EXPECT_EQ(header.rows, values.size());
  EXPECT_EQ(blob.size(), sizeof(ExtentHeader) + header.encoded_bytes);
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  for (int64_t v : values) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_EQ(header.min_bits, mn);
  EXPECT_EQ(header.max_bits, mx);

  std::vector<int64_t> decoded;
  ASSERT_TRUE(
      DecodeExtent(header,
                   reinterpret_cast<const uint8_t*>(blob.data()) +
                       sizeof(ExtentHeader),
                   &decoded, nullptr)
          .ok());
  EXPECT_EQ(decoded, values);
}

TEST_F(ExtentTest, ConstantExtentEncodesAsForWidthZero) {
  std::vector<int64_t> values(kExtentRows, 42);
  std::string blob;
  ExtentHeader header;
  ASSERT_TRUE(EncodeExtent(values.data(), values.size(), DataType::kInt64,
                           &blob, &header)
                  .ok());
  EXPECT_EQ(header.encoding, static_cast<uint8_t>(ExtentEncoding::kInt64For));
  // Constant extent: width byte + reference value, no packed payload.
  EXPECT_LE(header.encoded_bytes, 16u);
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeExtent(header,
                           reinterpret_cast<const uint8_t*>(blob.data()) +
                               sizeof(ExtentHeader),
                           &decoded, nullptr)
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST_F(ExtentTest, SortedExtentPicksDeltaFor) {
  std::vector<int64_t> values(kExtentRows);
  Rng rng(testutil::TestSeed(31));
  int64_t v = 1'000'000'000;
  for (size_t i = 0; i < values.size(); ++i) {
    v += rng.NextInt(0, 3);
    values[i] = v;
  }
  RoundTripInts(values, ExtentEncoding::kInt64DeltaFor);
}

TEST_F(ExtentTest, SmallRangeExtentPicksFor) {
  std::vector<int64_t> values(kExtentRows);
  Rng rng(testutil::TestSeed(32));
  for (auto& x : values) x = 500'000'000'000 + rng.NextInt(0, 200);
  RoundTripInts(values, ExtentEncoding::kInt64For);
}

TEST_F(ExtentTest, LowCardinalityWideRangePicksDict) {
  // Few distinct values spread across the whole int64 range: FOR needs
  // 8-byte deltas, the dictionary needs one index byte per row.
  std::vector<int64_t> distinct = {std::numeric_limits<int64_t>::min(), -7, 0,
                                   123456789012345678,
                                   std::numeric_limits<int64_t>::max()};
  std::vector<int64_t> values(kExtentRows);
  Rng rng(testutil::TestSeed(33));
  for (auto& x : values)
    x = distinct[static_cast<size_t>(rng.NextInt(0, 4))];
  RoundTripInts(values, ExtentEncoding::kInt64Dict);
}

TEST_F(ExtentTest, IncompressibleExtentFallsBackToRaw) {
  std::vector<int64_t> values(kExtentRows);
  Rng rng(testutil::TestSeed(34));
  for (auto& x : values) x = static_cast<int64_t>(rng.Next());
  RoundTripInts(values, ExtentEncoding::kInt64Raw);
}

TEST_F(ExtentTest, RaggedAndTinyExtentsRoundTrip) {
  Rng rng(testutil::TestSeed(35));
  for (size_t rows : {size_t{1}, size_t{7}, size_t{2048}, size_t{65535}}) {
    std::vector<int64_t> values(rows);
    for (auto& x : values) x = rng.NextInt(-50, 50);
    std::string blob;
    ExtentHeader header;
    ASSERT_TRUE(EncodeExtent(values.data(), rows, DataType::kInt64, &blob,
                             &header)
                    .ok());
    std::vector<int64_t> decoded;
    ASSERT_TRUE(DecodeExtent(header,
                             reinterpret_cast<const uint8_t*>(blob.data()) +
                                 sizeof(ExtentHeader),
                             &decoded, nullptr)
                    .ok());
    EXPECT_EQ(decoded, values) << rows << " rows";
  }
}

TEST_F(ExtentTest, DoubleExtentPreservesEveryBitPattern) {
  std::vector<double> values = {0.0, -0.0, 1.5, -1e300,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::denorm_min()};
  Rng rng(testutil::TestSeed(36));
  while (values.size() < 4096) values.push_back(rng.NextDouble() - 0.5);

  std::string blob;
  ExtentHeader header;
  ASSERT_TRUE(EncodeExtent(values.data(), values.size(), &blob, &header).ok());
  EXPECT_EQ(header.encoding, static_cast<uint8_t>(ExtentEncoding::kDoubleRaw));

  std::vector<double> decoded;
  ASSERT_TRUE(DecodeExtent(header,
                           reinterpret_cast<const uint8_t*>(blob.data()) +
                               sizeof(ExtentHeader),
                           nullptr, &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(Bits(decoded[i]), Bits(values[i])) << "row " << i;
  }
  // NaNs must not poison the zone map: min/max come from the finite values.
  double mn, mx;
  std::memcpy(&mn, &header.min_bits, sizeof(mn));
  std::memcpy(&mx, &header.max_bits, sizeof(mx));
  EXPECT_EQ(mn, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(mx, std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// File round-trips.
// ---------------------------------------------------------------------------

TEST_F(ExtentTest, FileRoundTripMultiExtent) {
  const size_t rows = 2 * kExtentRows + 12345;  // 3 extents, ragged tail
  auto t = MakeTable(rows, 41);
  std::string path = Path("t.ext");
  ASSERT_TRUE(WriteExtentFile(*t, path).ok());

  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), rows);
  EXPECT_EQ((*reader)->num_extents(), 3u);
  EXPECT_EQ((*reader)->ExtentRows(2), 12345u);

  auto back = (*reader)->ReadTable();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ((*back)->num_rows(), rows);
  for (size_t c = 0; c < t->num_columns(); ++c) {
    const Column& a = t->column(c);
    const Column& b = (*back)->column(c);
    ASSERT_EQ(a.type(), b.type());
    if (a.type() == DataType::kDouble) {
      for (size_t i = 0; i < rows; ++i)
        ASSERT_EQ(Bits(a.GetDouble(i)), Bits(b.GetDouble(i)))
            << "col " << c << " row " << i;
    } else {
      EXPECT_EQ(a.Int64Data(), b.Int64Data()) << "col " << c;
      EXPECT_EQ(a.dictionary(), b.dictionary()) << "col " << c;
    }
  }
}

TEST_F(ExtentTest, AppendBatchSizeDoesNotAffectFileBytes) {
  const size_t rows = kExtentRows + 1000;
  auto t = MakeTable(rows, 43);
  std::string one = Path("one.ext");
  ASSERT_TRUE(WriteExtentFile(*t, one).ok());

  // Same rows fed in uneven batches must produce the identical file: the
  // writer re-buckets on the fixed kExtentRows grid regardless of batching.
  std::string many = Path("many.ext");
  auto writer = ExtentFileWriter::Create(many, t->schema());
  ASSERT_TRUE(writer.ok());
  for (size_t c = 0; c < t->num_columns(); ++c) {
    if (t->schema().column(c).type == DataType::kString)
      ASSERT_TRUE((*writer)->SetDictionary(c, t->column(c).dictionary()).ok());
  }
  size_t done = 0;
  size_t step = 1;
  while (done < rows) {
    size_t take = std::min(step, rows - done);
    std::vector<size_t> idx(take);
    for (size_t i = 0; i < take; ++i) idx[i] = done + i;
    auto batch = TakeRows(*t, idx);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE((*writer)->Append(**batch).ok());
    done += take;
    step = step * 3 + 1;  // 1, 4, 13, 40, ... uneven on purpose
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  std::ifstream fa(one, std::ios::binary), fb(many, std::ios::binary);
  std::string ba((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string bb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(ba, bb);
}

// ---------------------------------------------------------------------------
// Hostile bytes: corruption, truncation, oversized lengths. Typed errors
// only — never a crash, hang, or silently wrong data.
// ---------------------------------------------------------------------------

TEST_F(ExtentTest, WrongLeadingMagicIsInvalidArgument) {
  std::string path = WriteFile("m.ext", 1000, 51);
  FlipByte(path, 0);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExtentTest, FlippedPayloadByteFailsChecksum) {
  std::string path = WriteFile("p.ext", 1000, 52);
  // First blob header is at offset 8, its payload at 48. Pin must detect the
  // flip via CRC and return IOError; the footer (untouched) still parses.
  FlipByte(path, 48);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto pin = (*reader)->Pin(0, 0);
  ASSERT_FALSE(pin.ok());
  EXPECT_EQ(pin.status().code(), StatusCode::kIOError);
  EXPECT_FALSE((*reader)->ReadTable().ok());
}

TEST_F(ExtentTest, HeaderFooterRowMismatchIsIOError) {
  std::string path = WriteFile("r.ext", 1000, 53);
  // rows lives at offset 8 of the 40-byte blob header => file offset 16.
  Patch32(path, 16, 999);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto pin = (*reader)->Pin(0, 0);
  ASSERT_FALSE(pin.ok());
  EXPECT_EQ(pin.status().code(), StatusCode::kIOError);
}

TEST_F(ExtentTest, OversizedLengthFieldIsIOError) {
  std::string path = WriteFile("l.ext", 1000, 54);
  // encoded_bytes at offset 12 of the blob header => file offset 20. A huge
  // value must be rejected by bounds checks, not trusted into an allocation
  // or an out-of-bounds read.
  Patch32(path, 20, 0x7fffffffu);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto pin = (*reader)->Pin(0, 0);
  ASSERT_FALSE(pin.ok());
  EXPECT_EQ(pin.status().code(), StatusCode::kIOError);
}

TEST_F(ExtentTest, CorruptTrailerFooterOffsetFailsOpen) {
  std::string path = WriteFile("f.ext", 1000, 55);
  uint64_t size = std::filesystem::file_size(path);
  // The trailer's u64 footer offset is 16 bytes from the end.
  Patch(path, size - 16, size * 2);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

TEST_F(ExtentTest, WrappedDirectoryOffsetFailsOpen) {
  std::string path = WriteFile("wrap.ext", 1000, 58);
  // One extent x three columns: the directory's three 44-byte entries end at
  // the 16-byte trailer, and the first starts with column 0's offset, 8.
  const uint64_t size = std::filesystem::file_size(path);
  const uint64_t entry = size - 16 - 3 * 44;
  uint64_t offset = 0;
  {
    std::ifstream f(path, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(entry));
    f.read(reinterpret_cast<char*>(&offset), sizeof(offset));
  }
  ASSERT_EQ(offset, 8u);
  // 2^64 - 41: offset + header + payload wraps to a small number, so a
  // summed bounds check passes and Pin() would read outside the mapping.
  Patch(path, entry, ~uint64_t{0} - 40);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

TEST_F(ExtentTest, TruncationSweepFailsCleanly) {
  std::string path = WriteFile("t.ext", 20000, 56);
  uint64_t full = std::filesystem::file_size(path);
  for (uint64_t size : {uint64_t{0}, uint64_t{4}, uint64_t{15}, uint64_t{30},
                        full / 2, full - 1}) {
    std::string cut = Path("cut.ext");
    std::filesystem::copy_file(
        path, cut, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(cut, size);
    auto reader = ExtentFileReader::Open(cut);
    if (reader.ok()) {
      // If the footer happened to survive, every decode must still be
      // bounds-checked against the shrunken mapping.
      EXPECT_FALSE((*reader)->ReadTable().ok())
          << "truncation at " << size << " was accepted";
    } else {
      StatusCode code = reader.status().code();
      EXPECT_TRUE(code == StatusCode::kIOError ||
                  code == StatusCode::kInvalidArgument)
          << "truncation at " << size << ": " << reader.status().ToString();
    }
  }
}

TEST_F(ExtentTest, FooterByteFlipSweepNeverCrashes) {
  std::string path = WriteFile("fz.ext", 30000, 57);
  uint64_t size = std::filesystem::file_size(path);
  uint64_t footer_offset = 0;
  {
    std::ifstream f(path, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 16));
    f.read(reinterpret_cast<char*>(&footer_offset), sizeof(footer_offset));
  }
  ASSERT_LT(footer_offset, size);
  // Flip bytes across the footer + trailer; Open either fails with a typed
  // error or yields a reader whose decodes are still safe.
  Rng rng(testutil::TestSeed(57));
  for (int trial = 0; trial < 32; ++trial) {
    std::string fz = Path("fz_trial.ext");
    std::filesystem::copy_file(
        path, fz, std::filesystem::copy_options::overwrite_existing);
    uint64_t off = footer_offset + rng.NextBounded(size - footer_offset);
    FlipByte(fz, off);
    auto reader = ExtentFileReader::Open(fz);
    if (!reader.ok()) continue;
    auto table = (*reader)->ReadTable();
    (void)table;  // ok or typed error; the assertion is "no crash/UB"
  }
}

// ---------------------------------------------------------------------------
// Failpoint-injected I/O faults (need -DAQPP_ENABLE_FAILPOINTS=ON).
// ---------------------------------------------------------------------------

TEST_F(ExtentTest, WriteFaultLeavesNoDestinationOrTmpLitter) {
  SKIP_WITHOUT_FAILPOINTS();
  auto t = MakeTable(20000, 61);
  std::string path = Path("w.ext");
  fail::Registry::Global().Enable(
      "storage/io/write", fail::Trigger::OneShot(3),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected write fault"});
  Status st = WriteExtentFile(*t, path);
  fail::Registry::Global().DisableAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(std::filesystem::exists(path));
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".ext")
        << "leftover temp file: " << entry.path();
  }
}

TEST_F(ExtentTest, FsyncFaultLeavesPreviousFileIntact) {
  SKIP_WITHOUT_FAILPOINTS();
  auto v1 = MakeTable(5000, 62);
  std::string path = Path("s.ext");
  ASSERT_TRUE(WriteExtentFile(*v1, path).ok());
  auto v2 = MakeTable(9000, 63);
  fail::Registry::Global().Enable(
      "storage/io/fsync", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected fsync fault"});
  Status st = WriteExtentFile(*v2, path);
  fail::Registry::Global().DisableAll();
  ASSERT_FALSE(st.ok());
  // The v1 file must still be complete and readable.
  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), 5000u);
  auto back = (*reader)->ReadTable();
  ASSERT_TRUE(back.ok());
}

TEST_F(ExtentTest, ReadFaultFailsOpenWithTypedError) {
  SKIP_WITHOUT_FAILPOINTS();
  std::string path = WriteFile("rd.ext", 5000, 64);
  fail::Registry::Global().Enable(
      "storage/io/read", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected read fault"});
  auto reader = ExtentFileReader::Open(path);
  fail::Registry::Global().DisableAll();
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Decoded-extent LRU.
// ---------------------------------------------------------------------------

TEST_F(ExtentTest, PinCacheHitsAndMisses) {
  std::string path = WriteFile("c.ext", 2 * kExtentRows, 71);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ExtentFileReader& r = **reader;
  ASSERT_TRUE(r.Pin(0, 0).ok());
  EXPECT_EQ(r.cache_misses(), 1u);
  EXPECT_EQ(r.cache_hits(), 0u);
  ASSERT_TRUE(r.Pin(0, 0).ok());
  EXPECT_EQ(r.cache_misses(), 1u);
  EXPECT_EQ(r.cache_hits(), 1u);
  // A different (extent, column) is a distinct cache key.
  ASSERT_TRUE(r.Pin(1, 0).ok());
  EXPECT_EQ(r.cache_misses(), 2u);
  // ReleaseBefore(1) drops extent 0's decode; re-pinning misses again.
  r.ReleaseBefore(1);
  ASSERT_TRUE(r.Pin(0, 0).ok());
  EXPECT_EQ(r.cache_misses(), 3u);
}

TEST_F(ExtentTest, PinMissObservesVerifyAndDecodeOnce) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  std::string path = WriteFile("h.ext", 1000, 74);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto& reg = obs::Registry::Global();
  const obs::Histogram* verify = reg.GetHistogram("aqpp_extent_verify_seconds");
  const obs::Histogram* decode = reg.GetHistogram("aqpp_extent_decode_seconds");
  const uint64_t verify0 = verify->count();
  const uint64_t decode0 = decode->count();
  ASSERT_TRUE((*reader)->Pin(0, 2).ok());  // miss
  EXPECT_EQ(verify->count(), verify0 + 1);
  EXPECT_EQ(decode->count(), decode0 + 1);
  ASSERT_TRUE((*reader)->Pin(0, 2).ok());  // hit
  EXPECT_EQ(verify->count(), verify0 + 1);
  EXPECT_EQ(decode->count(), decode0 + 1);
}

TEST_F(ExtentTest, CacheCapacityEvictsLeastRecentlyUsed) {
  std::string path = WriteFile("e.ext", 1000, 72);
  ExtentFileReader::Options opt;
  opt.cache_capacity = 1;
  auto reader = ExtentFileReader::Open(path, opt);
  ASSERT_TRUE(reader.ok());
  ExtentFileReader& r = **reader;
  ASSERT_TRUE(r.Pin(0, 0).ok());
  ASSERT_TRUE(r.Pin(0, 2).ok());  // evicts (0, 0)
  ASSERT_TRUE(r.Pin(0, 0).ok());
  EXPECT_EQ(r.cache_misses(), 3u);
  EXPECT_EQ(r.cache_hits(), 0u);
}

TEST_F(ExtentTest, PinnedBufferSurvivesEviction) {
  std::string path = WriteFile("pin.ext", 1000, 73);
  ExtentFileReader::Options opt;
  opt.cache_capacity = 1;
  auto reader = ExtentFileReader::Open(path, opt);
  ASSERT_TRUE(reader.ok());
  auto pin = (*reader)->Pin(0, 0);
  ASSERT_TRUE(pin.ok());
  std::vector<int64_t> before = *pin->ints;
  ASSERT_TRUE((*reader)->Pin(0, 2).ok());  // evicts the cache entry
  (*reader)->ReleaseBefore(1);
  EXPECT_EQ(*pin->ints, before);  // shared_ptr keeps the buffer alive
}

TEST_F(ExtentTest, EvictedBuffersAreReusedOnlyWhenUnheld) {
  std::string path = WriteFile("reuse.ext", 2 * kExtentRows, 75);
  ExtentFileReader::Options opt;
  opt.cache_capacity = 1;
  auto reader = ExtentFileReader::Open(path, opt);
  ASSERT_TRUE(reader.ok());
  ExtentFileReader& r = **reader;
  const int64_t* first = nullptr;
  std::vector<int64_t> e0;
  {
    auto pin = r.Pin(0, 0);
    ASSERT_TRUE(pin.ok());
    first = pin->int_data();
    e0 = *pin->ints;
  }
  // Pinning (1, 0) evicts the unheld (0, 0), whose buffer the next miss
  // decodes into.
  auto held = r.Pin(1, 0);
  ASSERT_TRUE(held.ok());
  const std::vector<int64_t> e1 = *held->ints;
  auto again = r.Pin(0, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->int_data(), first);
  EXPECT_EQ(*again->ints, e0);
  // (1, 0) was evicted while `held` pinned it: never reused, never
  // overwritten.
  auto other = r.Pin(0, 1);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->int_data(), held->int_data());
  EXPECT_EQ(*held->ints, e1);
}

// ---------------------------------------------------------------------------
// Column::AdoptDoubleData — the borrow path ReadTable uses for
// single-extent double columns.
// ---------------------------------------------------------------------------

TEST_F(ExtentTest, ReadTableBorrowsSingleExtentDoubles) {
  std::string path = WriteFile("b.ext", 1000, 81);
  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto table = (*reader)->ReadTable();
  ASSERT_TRUE(table.ok());
  // The double column must borrow the decoded buffer, not copy it: its view
  // carries an owner and aliases the reader's cached decode.
  Column::DoubleView view = (*table)->column(2).AsDoubleView();
  EXPECT_NE(view.owned, nullptr);
  auto pin = (*reader)->Pin(0, 2);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(view.data, pin->dbls->data());
}

TEST_F(ExtentTest, AdoptedColumnDetachesOnWrite) {
  auto buf = std::make_shared<std::vector<double>>();
  for (int i = 0; i < 100; ++i) buf->push_back(i * 0.5);
  const double* shared_data = buf->data();

  Column col(DataType::kDouble);
  col.AdoptDoubleData(buf);
  EXPECT_EQ(col.size(), 100u);
  EXPECT_EQ(col.DoubleData().data(), shared_data);

  // Mutation must copy-on-write: the adopted buffer stays untouched.
  col.MutableDoubleData()[0] = -1.0;
  EXPECT_NE(col.DoubleData().data(), shared_data);
  EXPECT_EQ((*buf)[0], 0.0);
  EXPECT_EQ(col.GetDouble(0), -1.0);
  EXPECT_EQ(col.GetDouble(99), 99 * 0.5);
}

}  // namespace
}  // namespace aqpp
