// Out-of-core extent storage: scan rate vs the in-memory path, zone-map
// pruning speedup, per-encoding verify/decode cost, and the bounded-memory
// one-pass cube + sample build.
//
// Produces BENCH_storage.json:
//   (a) out-of-core full-scan rate vs the in-memory kernel path and
//       bit-identity of COUNT/SUM/AVG/VAR answers at 1/4/8 threads. The
//       reader's decode cache holds fewer extents than the file, so every
//       timed scan verifies and decodes every extent it reads,
//   (b) zone-map skipping speedup on a selective range predicate over a
//       date-clustered TPCD-Skew table (the CI gate: >= 2x),
//   (c) nanoseconds per row to verify (header + CRC-32) and to decode one
//       65536-row extent of each encoding and packed width,
//   (d) a large streaming phase — pack, one-pass BP-Cube + reservoir build,
//       out-of-core queries — with peak RSS (VmHWM) recorded so the
//       memory-bounded claim is machine-checkable.
//
// The table is TPCD-Skew with the three date columns rewritten to be
// temporally clustered (rows arrive in ship-date order, as a real lineitem
// load would); the stock generator draws dates uniformly per row, which no
// zone map can prune.
//
// Usage:
//   bench_storage [--preset smoke|full] [--rows N] [--compare-rows M]
//                 [--dir PATH] [--out PATH] [--check]
// --check exits nonzero if answers are not bit-identical, the 1-thread
// out-of-core/in-memory scan ratio is < 0.2 (on CPUs with the PCLMULQDQ
// CRC arm), the pruning speedup is < 2x, or peak RSS exceeds 4 GiB.

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/stream_build.h"
#include "exec/executor.h"
#include "kernels/source_scan.h"
#include "storage/column_source.h"
#include "storage/extent.h"
#include "storage/extent_file.h"
#include "workload/tpcd_skew.h"

namespace aqpp {
namespace {

constexpr int64_t kMaxDay = 2557;  // TPCD-Skew date domain
constexpr size_t kShipCol = 7, kCommitCol = 8, kReceiptCol = 9;
constexpr size_t kPriceCol = 10;
// Decoded extents the scan-rate reader may cache: fewer than the comparison
// file holds (16 at the smoke size), so a timed scan decodes every extent.
constexpr size_t kScanCacheExtents = 4;
// --check floor on the 1-thread out-of-core/in-memory scan-rate ratio, on
// CPUs where Crc32 runs its PCLMULQDQ arm (about 0.35 at the smoke size).
// A byte-at-a-time CRC reads about 0.02, the slice-by-8 fallback about 0.06.
constexpr double kMinScanRatio = 0.2;

// Generates one TPCD-Skew batch and rewrites its date columns so ship dates
// ascend with the global row position (plus small jitter): the clustering a
// date-ordered load exhibits and zone maps exploit.
Result<std::shared_ptr<Table>> ClusteredBatch(size_t global_start,
                                              size_t batch_rows,
                                              size_t total_rows, double skew,
                                              uint64_t seed,
                                              size_t batch_index) {
  TpcdSkewOptions opt;
  opt.rows = batch_rows;
  opt.skew = skew;
  opt.seed = seed + batch_index;
  AQPP_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, GenerateTpcdSkew(opt));
  auto& ship = t->mutable_column(kShipCol).MutableInt64Data();
  auto& commit = t->mutable_column(kCommitCol).MutableInt64Data();
  auto& receipt = t->mutable_column(kReceiptCol).MutableInt64Data();
  for (size_t i = 0; i < batch_rows; ++i) {
    const uint64_t g = global_start + i;
    const int64_t s = std::min<int64_t>(
        kMaxDay - 35,
        1 + static_cast<int64_t>(g * uint64_t{kMaxDay - 36} / total_rows) +
            static_cast<int64_t>(g % 13));
    ship[i] = s;
    commit[i] = std::min<int64_t>(kMaxDay, s + 2 + static_cast<int64_t>(g % 28));
    receipt[i] = std::min<int64_t>(kMaxDay, s + 1 + static_cast<int64_t>(g % 14));
  }
  return t;
}

// Remaps a batch's string codes onto the file-wide dictionaries (captured
// from the first batch; exact for TPCD's two tiny string columns).
Status AlignDictionaries(Table& t,
                         std::vector<std::vector<std::string>>& final_dicts,
                         ExtentFileWriter& writer, bool first_batch) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (t.schema().column(c).type != DataType::kString) continue;
    if (first_batch) {
      final_dicts[c] = t.column(c).dictionary();
      AQPP_RETURN_NOT_OK(writer.SetDictionary(c, final_dicts[c]));
      continue;
    }
    const std::vector<std::string>& batch_dict = t.column(c).dictionary();
    if (batch_dict == final_dicts[c]) continue;
    std::vector<int64_t> remap(batch_dict.size());
    for (size_t code = 0; code < batch_dict.size(); ++code) {
      auto it = std::find(final_dicts[c].begin(), final_dicts[c].end(),
                          batch_dict[code]);
      if (it == final_dicts[c].end()) {
        return Status::FailedPrecondition(
            "dictionary value missing from first batch");
      }
      remap[code] = it - final_dicts[c].begin();
    }
    for (int64_t& v : t.mutable_column(c).MutableInt64Data()) {
      v = remap[static_cast<size_t>(v)];
    }
  }
  return Status::OK();
}

RangeQuery PriceQuery(AggregateFunction f, int64_t lo, int64_t hi) {
  RangeQuery q;
  q.func = f;
  q.agg_column = kPriceCol;
  q.predicate.Add({kShipCol, lo, hi});
  return q;
}

// Best-of-repetitions wall time (see bench_kernels.cc for the rationale).
template <typename Fn>
double TimeBest(Fn&& fn, double min_seconds) {
  fn();  // warm
  double best = std::numeric_limits<double>::infinity();
  size_t reps = 0;
  Timer total;
  while (reps < 3 || (total.ElapsedSeconds() < min_seconds && reps < 200)) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
    ++reps;
  }
  return best;
}

struct DecodeCost {
  const char* name = "";
  int width = 0;  // packed value or index width; 8 for raw
  double verify_ns_per_row = 0;
  double decode_ns_per_row = 0;
};

// One 65536-row extent per encoding and width, built so the encoder picks
// exactly that arm; verify and decode are timed separately into a reused
// destination, so no allocation is counted.
std::vector<DecodeCost> MeasureDecodeCosts(double min_seconds) {
  Rng rng(11);
  auto steps = [&](uint64_t max_step) {
    std::vector<int64_t> v(kExtentRows);
    for (size_t i = 1; i < v.size(); ++i) {
      v[i] = v[i - 1] + static_cast<int64_t>(rng.NextBounded(max_step + 1));
    }
    return v;
  };
  auto uniform = [&](uint64_t span) {  // values in [0, span]
    std::vector<int64_t> v(kExtentRows);
    for (auto& x : v) {
      x = static_cast<int64_t>(span == ~uint64_t{0} ? rng.Next()
                                                    : rng.NextBounded(span + 1));
    }
    return v;
  };
  auto dict = [&](size_t k) {
    std::vector<int64_t> values(k), v(kExtentRows);
    for (auto& x : values) x = static_cast<int64_t>(rng.Next());
    for (auto& x : v) x = values[rng.NextBounded(k)];
    return v;
  };
  const struct {
    const char* name;
    int width;
    std::vector<int64_t> values;
  } int_cases[] = {
      {"int64_for", 0, std::vector<int64_t>(kExtentRows, 42)},
      {"int64_for", 1, uniform(0xFF)},
      {"int64_for", 2, uniform(0xFFFF)},
      {"int64_for", 4, uniform(0xFFFFFFFF)},
      {"int64_delta_for", 1, steps(0xFF)},
      {"int64_delta_for", 2, steps(0xFFFF)},
      {"int64_delta_for", 4, steps(0xFFFFFFFF)},
      {"int64_dict", 1, dict(200)},
      {"int64_dict", 2, dict(4000)},
      {"int64_raw", 8, uniform(~uint64_t{0})},
  };
  std::vector<double> doubles(kExtentRows);
  for (double& d : doubles) d = rng.NextDouble();

  std::vector<DecodeCost> out;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  auto time_one = [&](const char* name, int width, const std::string& blob,
                      const ExtentHeader& h) {
    const auto* payload =
        reinterpret_cast<const uint8_t*>(blob.data()) + sizeof(ExtentHeader);
    if (std::strcmp(ExtentEncodingName(
                        static_cast<ExtentEncoding>(h.encoding)),
                    name) != 0 ||
        (width != 8 && width != payload[0])) {
      std::fprintf(stderr, "decode cost: %s/%d encoded as %s/%d\n", name,
                   width,
                   ExtentEncodingName(static_cast<ExtentEncoding>(h.encoding)),
                   payload[0]);
      std::exit(1);
    }
    const double rows = static_cast<double>(h.rows);
    DecodeCost c;
    c.name = name;
    c.width = width;
    c.verify_ns_per_row =
        1e9 / rows *
        TimeBest([&] { (void)VerifyExtent(h, payload); }, min_seconds);
    c.decode_ns_per_row =
        1e9 / rows *
        TimeBest([&] { (void)DecodeExtent(h, payload, &ints, &dbls); },
                 min_seconds);
    out.push_back(c);
  };
  for (const auto& c : int_cases) {
    std::string blob;
    ExtentHeader h;
    (void)EncodeExtent(c.values.data(), c.values.size(), DataType::kInt64,
                       &blob, &h);
    time_one(c.name, c.width, blob, h);
  }
  std::string blob;
  ExtentHeader h;
  (void)EncodeExtent(doubles.data(), doubles.size(), &blob, &h);
  time_one("double_raw", 8, blob, h);
  return out;
}

struct ThreadCase {
  size_t threads = 0;
  double in_memory_rows_per_sec = 0;
  double out_of_core_rows_per_sec = 0;
  bool bit_identical = false;  // COUNT/SUM/AVG/VAR, in-memory vs extent path
};

}  // namespace
}  // namespace aqpp

int main(int argc, char** argv) {
  using namespace aqpp;
  namespace fs = std::filesystem;

  std::string preset = "full";
  std::string out_path = "BENCH_storage.json";
  std::string dir;
  size_t big_rows = 0, compare_rows = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--preset" && i + 1 < argc) {
      preset = argv[++i];
    } else if (arg == "--rows" && i + 1 < argc) {
      big_rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--compare-rows" && i + 1 < argc) {
      compare_rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--preset smoke|full] [--rows N] "
                   "[--compare-rows M] [--dir PATH] [--out PATH] [--check]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool smoke = preset == "smoke";
  if (big_rows == 0) big_rows = smoke ? 2'000'000 : 100'000'000;
  if (compare_rows == 0) compare_rows = smoke ? 1'000'000 : 8'000'000;
  const double min_seconds = smoke ? 0.05 : 0.3;
  if (dir.empty()) {
    dir = (fs::temp_directory_path() / "aqpp_bench_cache").string();
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  const double skew = bench::BenchSkew();

  auto die = [](const Status& st) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    std::exit(1);
  };

  // ---- Phase A: in-memory vs out-of-core on the same table ---------------
  std::fprintf(stderr, "phase A: %zu-row comparison table...\n", compare_rows);
  auto table_or = ClusteredBatch(0, compare_rows, compare_rows, skew, 7, 0);
  if (!table_or.ok()) die(table_or.status());
  std::shared_ptr<Table> table = *table_or;
  const std::string compare_path =
      dir + StrFormat("/storage_compare_%zu.ext", compare_rows);
  {
    Status st = WriteExtentFile(*table, compare_path);
    if (!st.ok()) die(st);
  }
  ExtentFileReader::Options scan_opts;
  scan_opts.cache_capacity = kScanCacheExtents;
  auto reader_or = ExtentFileReader::Open(compare_path, scan_opts);
  if (!reader_or.ok()) die(reader_or.status());
  if ((*reader_or)->num_extents() <= kScanCacheExtents) {
    std::fprintf(stderr,
                 "warning: %zu extents fit the %zu-extent decode cache; "
                 "the scan rate times no decode\n",
                 (*reader_or)->num_extents(), kScanCacheExtents);
  }
  ExtentColumnSource source(*reader_or);

  // Selective window: ~2% of the date domain, mid-table.
  const int64_t sel_lo = 1200, sel_hi = 1249;
  const RangeQuery full_sum = PriceQuery(AggregateFunction::kSum, 0, kMaxDay);
  const AggregateFunction funcs[] = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kVar};

  const size_t thread_counts[] = {1, 4, 8};
  std::vector<ThreadCase> cases;
  bool all_bit_identical = true;
  const double dcompare = static_cast<double>(compare_rows);
  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    ExecutorOptions eopts;
    eopts.pool = &pool;
    ExactExecutor mem_ex(table.get(), eopts);
    kernels::SourceScanOptions sopts;
    sopts.pool = &pool;

    ThreadCase tc;
    tc.threads = threads;
    tc.bit_identical = true;
    for (AggregateFunction f : funcs) {
      const RangeQuery q = PriceQuery(f, sel_lo, sel_hi);
      auto mem = mem_ex.Execute(q);
      auto ooc = kernels::ExecuteQueryOnSource(source, q, sopts);
      if (!mem.ok()) die(mem.status());
      if (!ooc.ok()) die(ooc.status());
      if (std::bit_cast<uint64_t>(*mem) != std::bit_cast<uint64_t>(*ooc)) {
        tc.bit_identical = false;
      }
    }
    all_bit_identical = all_bit_identical && tc.bit_identical;

    tc.in_memory_rows_per_sec =
        dcompare / TimeBest([&] { (void)*mem_ex.Execute(full_sum); },
                            min_seconds);
    tc.out_of_core_rows_per_sec =
        dcompare /
        TimeBest(
            [&] { (void)*kernels::ExecuteQueryOnSource(source, full_sum, sopts); },
            min_seconds);
    std::fprintf(stderr,
                 "threads=%zu in-memory=%.3g ooc=%.3g rows/s (%.0f%%)%s\n",
                 threads, tc.in_memory_rows_per_sec,
                 tc.out_of_core_rows_per_sec,
                 100.0 * tc.out_of_core_rows_per_sec /
                     tc.in_memory_rows_per_sec,
                 tc.bit_identical ? "" : " BIT-MISMATCH");
    cases.push_back(tc);
  }

  // Zone-map pruning gate: the same selective scan with pruning on vs off
  // (one thread keeps the ratio from being masked by parallel decode).
  std::vector<RangeCondition> sel_conds{{kShipCol, sel_lo, sel_hi}};
  kernels::SourceScanResult pruned_result;
  double pruned_secs, unpruned_secs;
  size_t extents_total = 0, extents_skipped = 0;
  {
    ThreadPool pool(1);
    kernels::SourceScanOptions on, off;
    on.pool = off.pool = &pool;
    off.zone_map_pruning = false;
    auto run = [&](const kernels::SourceScanOptions& o) {
      auto r = kernels::ScanAggregateSource(source, sel_conds,
                                            static_cast<int>(kPriceCol),
                                            kernels::ScanProfile::kSum, o);
      if (!r.ok()) die(r.status());
      return *r;
    };
    pruned_result = run(on);
    extents_total = pruned_result.extents_total;
    extents_skipped = pruned_result.extents_skipped;
    const auto unpruned_result = run(off);
    if (std::bit_cast<uint64_t>(pruned_result.stats.sum) !=
        std::bit_cast<uint64_t>(unpruned_result.stats.sum)) {
      all_bit_identical = false;
      std::fprintf(stderr, "PRUNED/UNPRUNED BIT-MISMATCH\n");
    }
    pruned_secs = TimeBest([&] { run(on); }, min_seconds);
    unpruned_secs = TimeBest([&] { run(off); }, min_seconds);
  }
  const double prune_speedup = unpruned_secs / pruned_secs;
  std::fprintf(stderr,
               "pruning: %zu/%zu extents skipped, %.4fs vs %.4fs (%.1fx)\n",
               extents_skipped, extents_total, pruned_secs, unpruned_secs,
               prune_speedup);

  std::fprintf(stderr, "decode cost per encoding...\n");
  const std::vector<DecodeCost> decode_costs = MeasureDecodeCosts(min_seconds);
  for (const DecodeCost& c : decode_costs) {
    std::fprintf(stderr, "  %-16s w=%d verify %.2f ns/row, decode %.2f ns/row\n",
                 c.name, c.width, c.verify_ns_per_row, c.decode_ns_per_row);
  }

  // ---- Phase B: large streaming pack + one-pass cube/sample + queries ----
  std::fprintf(stderr, "phase B: packing %zu rows...\n", big_rows);
  const std::string big_path = dir + StrFormat("/storage_big_%zu.ext", big_rows);
  double pack_secs = 0;
  {
    Timer timer;
    auto writer_or = ExtentFileWriter::Create(big_path, TpcdSkewSchema());
    if (!writer_or.ok()) die(writer_or.status());
    std::vector<std::vector<std::string>> final_dicts(
        TpcdSkewSchema().num_columns());
    const size_t batch_rows = 4 * kExtentRows;
    size_t done = 0, batch_index = 0;
    while (done < big_rows) {
      const size_t this_batch = std::min(batch_rows, big_rows - done);
      auto batch = ClusteredBatch(done, this_batch, big_rows, skew, 7,
                                  batch_index);
      if (!batch.ok()) die(batch.status());
      Status st = AlignDictionaries(**batch, final_dicts, **writer_or,
                                    batch_index == 0);
      if (!st.ok()) die(st);
      st = (*writer_or)->Append(**batch);
      if (!st.ok()) die(st);
      done += this_batch;
      ++batch_index;
    }
    Status st = (*writer_or)->Finish();
    if (!st.ok()) die(st);
    pack_secs = timer.ElapsedSeconds();
  }
  const double packed_bytes = static_cast<double>(fs::file_size(big_path, ec));

  std::fprintf(stderr, "phase B: one-pass cube + sample build...\n");
  auto big_reader_or = ExtentFileReader::Open(big_path);
  if (!big_reader_or.ok()) die(big_reader_or.status());
  ExtentColumnSource big_source(*big_reader_or);

  PartitionScheme scheme;
  {
    DimensionPartition ship;
    ship.column = kShipCol;
    for (int64_t cut = 32; cut <= 2560; cut += 32) ship.cuts.push_back(cut);
    DimensionPartition discount;
    discount.column = 5;
    for (int64_t cut = 0; cut <= 10; ++cut) discount.cuts.push_back(cut);
    scheme = PartitionScheme({ship, discount});
  }
  StreamBuildOptions build_opts;
  build_opts.sample_size = smoke ? 20'000 : 100'000;
  Rng rng(42);
  Timer build_timer;
  auto built = BuildCubeAndSampleFromSource(
      big_source, scheme, {MeasureSpec::Count(), MeasureSpec::Sum(kPriceCol)},
      rng, build_opts);
  if (!built.ok()) die(built.status());
  const double build_secs = build_timer.ElapsedSeconds();
  std::fprintf(stderr,
               "built cube (%zu cells) + sample (%zu rows) in %.1fs\n",
               built->cube->NumCells(), built->sample.size(), build_secs);

  double big_query_rows_per_sec = 0;
  size_t big_skipped = 0, big_total = 0;
  {
    ThreadPool pool(8);
    kernels::SourceScanOptions sopts;
    sopts.pool = &pool;
    auto r = kernels::ScanAggregateSource(big_source, sel_conds,
                                          static_cast<int>(kPriceCol),
                                          kernels::ScanProfile::kSum, sopts);
    if (!r.ok()) die(r.status());
    big_skipped = r->extents_skipped;
    big_total = r->extents_total;
    const double secs = TimeBest(
        [&] {
          (void)*kernels::ScanAggregateSource(big_source, sel_conds,
                                              static_cast<int>(kPriceCol),
                                              kernels::ScanProfile::kSum,
                                              sopts);
        },
        min_seconds);
    big_query_rows_per_sec = static_cast<double>(big_rows) / secs;
  }

  const size_t peak_rss = bench::PeakRssBytes();
  const double peak_rss_gib = static_cast<double>(peak_rss) / (1u << 30);
  std::fprintf(stderr,
               "big query: %.3g rows/s (%zu/%zu extents skipped); peak RSS "
               "%.2f GiB\n",
               big_query_rows_per_sec, big_skipped, big_total, peak_rss_gib);

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"extent_storage\",\n";
  out << StrFormat("  \"preset\": \"%s\",\n", preset.c_str());
  out << StrFormat("  \"compare_rows\": %zu,\n", compare_rows);
  out << StrFormat("  \"big_rows\": %zu,\n", big_rows);
  out << "  \"workload\": \"TPCD-Skew, date columns clustered by row "
         "position; SUM(l_extendedprice) WHERE l_shipdate in a ~2% "
         "window\",\n";
  out << StrFormat("  \"all_bit_identical\": %s,\n",
                   all_bit_identical ? "true" : "false");
  out << "  \"scan_rate\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    const ThreadCase& c = cases[i];
    out << StrFormat(
        "    {\"threads\": %zu, \"in_memory_rows_per_sec\": %.4g, "
        "\"out_of_core_rows_per_sec\": %.4g, \"ratio\": %.3f, "
        "\"bit_identical\": %s}%s\n",
        c.threads, c.in_memory_rows_per_sec, c.out_of_core_rows_per_sec,
        c.out_of_core_rows_per_sec / c.in_memory_rows_per_sec,
        c.bit_identical ? "true" : "false",
        i + 1 < cases.size() ? "," : "");
  }
  out << "  ],\n";
  out << StrFormat(
      "  \"zone_map_pruning\": {\"extents_skipped\": %zu, "
      "\"extents_total\": %zu, \"pruned_seconds\": %.5f, "
      "\"unpruned_seconds\": %.5f, \"speedup\": %.2f},\n",
      extents_skipped, extents_total, pruned_secs, unpruned_secs,
      prune_speedup);
  out << "  \"decode_cost\": [\n";
  for (size_t i = 0; i < decode_costs.size(); ++i) {
    const DecodeCost& c = decode_costs[i];
    out << StrFormat(
        "    {\"encoding\": \"%s\", \"width\": %d, "
        "\"verify_ns_per_row\": %.3f, \"decode_ns_per_row\": %.3f}%s\n",
        c.name, c.width, c.verify_ns_per_row, c.decode_ns_per_row,
        i + 1 < decode_costs.size() ? "," : "");
  }
  out << "  ],\n";
  out << StrFormat(
      "  \"streaming_build\": {\"rows\": %zu, \"pack_seconds\": %.1f, "
      "\"packed_bytes\": %.0f, \"bytes_per_row\": %.1f, "
      "\"cube_and_sample_seconds\": %.1f, \"cube_cells\": %zu, "
      "\"sample_rows\": %zu, \"query_rows_per_sec\": %.4g, "
      "\"query_extents_skipped\": %zu, \"query_extents_total\": %zu},\n",
      big_rows, pack_secs, packed_bytes,
      packed_bytes / static_cast<double>(big_rows), build_secs,
      built->cube->NumCells(), built->sample.size(), big_query_rows_per_sec,
      big_skipped, big_total);
  out << StrFormat("  \"peak_rss_bytes\": %zu,\n", peak_rss);
  out << StrFormat("  \"peak_rss_gib\": %.2f\n}\n", peak_rss_gib);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  bool ok = all_bit_identical;
  if (check) {
    const ThreadCase& one = cases.front();  // thread_counts[0] == 1
    const double ratio =
        one.out_of_core_rows_per_sec / one.in_memory_rows_per_sec;
    if (!internal::Crc32ClmulSupported()) {
      std::fprintf(stderr,
                   "note: no PCLMULQDQ CRC arm on this CPU; the %.1f scan "
                   "ratio floor is not checked (ratio %.3f)\n",
                   kMinScanRatio, ratio);
    } else if (ratio < kMinScanRatio) {
      std::fprintf(stderr,
                   "FAIL: 1-thread out-of-core/in-memory scan ratio %.3f < "
                   "%.1f gate\n",
                   ratio, kMinScanRatio);
      ok = false;
    }
    if (prune_speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: zone-map pruning speedup %.2fx < 2x gate\n",
                   prune_speedup);
      ok = false;
    }
    if (peak_rss > (size_t{4} << 30)) {
      std::fprintf(stderr, "FAIL: peak RSS %.2f GiB exceeds 4 GiB gate\n",
                   peak_rss_gib);
      ok = false;
    }
  }
  if (!all_bit_identical) {
    std::fprintf(stderr, "FAIL: extent path not bit-identical\n");
  }
  return ok ? 0 : 1;
}
