// exact_ooc: exact queries over the table packed as an extent file.
//
// The only workload whose working set exceeds the program's own cache: the
// 4M-row table packs into ~62 extents x 13 columns against the reader's
// default 48-entry decode cache, so every scan decodes (CRC + decode) again.
// The file's pages stay in the page cache, so this measures the program and
// not the disk. One thread runs COUNT/SUM/AVG/VAR over l_extendedprice via
// kernels::ExecuteQueryOnSource: three quarters of the queries range over
// unclustered l_discount/l_quantity (every extent is decoded), one quarter
// over l_shipdate windows, by which the table is clustered, so zone maps
// prune. No service, identification or synopsis code runs.

#include <cstdio>
#include <filesystem>

#include "common.h"
#include "exec/executor.h"
#include "kernels/source_scan.h"
#include "storage/column_source.h"
#include "storage/extent_file.h"

namespace aqpp {
namespace perfbench {
namespace {

constexpr int64_t kMaxDay = 2557;  // TPCD-Skew date domain
constexpr size_t kTraceQueries = 48;

// Reorders the rows by l_shipdate (a date-ordered load): a stable counting
// sort, applied to every column in place.
void ClusterByShipDate(Table* table) {
  const std::vector<int64_t>& ship = table->column(kShipCol).Int64Data();
  std::vector<size_t> start(kMaxDay + 2, 0);
  for (int64_t d : ship) ++start[static_cast<size_t>(d) + 1];
  for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  std::vector<uint32_t> order(ship.size());
  for (size_t r = 0; r < ship.size(); ++r) {
    order[start[static_cast<size_t>(ship[r])]++] = static_cast<uint32_t>(r);
  }
  for (size_t c = 0; c < table->num_columns(); ++c) {
    Column& col = table->mutable_column(c);
    if (col.type() == DataType::kDouble) {
      std::vector<double>& v = col.MutableDoubleData();
      std::vector<double> out(v.size());
      for (size_t r = 0; r < v.size(); ++r) out[r] = v[order[r]];
      v.swap(out);
    } else {
      std::vector<int64_t>& v = col.MutableInt64Data();
      std::vector<int64_t> out(v.size());
      for (size_t r = 0; r < v.size(); ++r) out[r] = v[order[r]];
      v.swap(out);
    }
  }
}

// Query i computes kFuncCycle[i % 4]; every fourth group of four ranges
// over the clustered ship date, the rest over discount x quantity.
std::vector<RangeQuery> MakeExactQueries(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<RangeQuery> out;
  for (size_t i = 0; i < count; ++i) {
    RangeQuery q;
    q.func = kFuncCycle[i % 4];
    q.agg_column = kPriceCol;
    if ((i / 4) % 4 == 3) {
      const int64_t width = rng.NextInt(kMaxDay / 50, kMaxDay / 20);
      const int64_t lo = rng.NextInt(1, kMaxDay - 35 - width);
      q.predicate.Add({kShipCol, lo, lo + width});
    } else {
      const int64_t d = rng.NextInt(0, 6);
      q.predicate.Add({kDiscCol, d, d + rng.NextInt(1, 4)});
      const int64_t lo = rng.NextInt(1, 30);
      q.predicate.Add({kQtyCol, lo, lo + rng.NextInt(5, 20)});
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::shared_ptr<ExtentFileReader> PackAndOpen(const Table& table,
                                              const std::string& path) {
  Must(WriteExtentFile(table, path), "packing the extent file");
  return Must(ExtentFileReader::Open(path), "opening the extent file");
}

void TraceExactOoc(const Args& args, const Table& table,
                   const std::string& path, Report* report) {
  const std::vector<RangeQuery> queries =
      MakeExactQueries(args.seed + 4, kTraceQueries);
  Tracer tracer(true);
  TableColumnSource in_memory(&table);
  uint64_t skipped = 0, extents = 0;
  auto reader = Must(ExtentFileReader::Open(path), "opening the extents");
  ExtentColumnSource source(reader);
  auto replay = [&](Tracer* t, size_t i) {
    ScopedSpan root(t, i, "query");
    uint32_t span = t->Begin(i, "kernels.scan_ooc", root.id());
    Must(kernels::ExecuteQueryOnSource(source, queries[i]), "ooc scan");
    t->End(span);
    span = t->Begin(i, "kernels.scan_inmem", root.id());
    Must(kernels::ExecuteQueryOnSource(in_memory, queries[i]),
         "in-memory scan");
    t->End(span);
  };
  TimeTracingOverhead(report, &tracer, "trace.exact_ooc_overhead_us",
                      queries.size(), replay);

  const uint64_t hits = reader->cache_hits();
  const uint64_t misses = reader->cache_misses();
  for (const RangeQuery& q : queries) {
    kernels::SourceScanResult scan = Must(
        kernels::ScanAggregateSource(source, q.predicate.conditions(), -1,
                                     kernels::ScanProfile::kCount),
        "zone-map scan");
    skipped += scan.extents_skipped;
    extents += scan.extents_total;
  }

  // Pins of single column extents: a fresh reader misses once per extent,
  // then hits on the extent just decoded.
  reader = Must(ExtentFileReader::Open(path), "opening the extents");
  std::vector<double> miss_us, hit_us, ns_per_row;
  for (size_t e = 0; e < reader->num_extents(); ++e) {
    for (size_t col : {kDiscCol, kPriceCol}) {
      auto t0 = Clock::now();
      Must(reader->Pin(e, col), "pin (miss)");
      const double miss = 1e6 * SecondsSince(t0);
      t0 = Clock::now();
      Must(reader->Pin(e, col), "pin (hit)");
      hit_us.push_back(1e6 * SecondsSince(t0));
      miss_us.push_back(miss);
      ns_per_row.push_back(1e3 * miss /
                           static_cast<double>(reader->ExtentRows(e)));
    }
  }
  report->Add("storage.pin_miss_us", Median(miss_us), "us");
  report->Add("storage.pin_hit_us", Median(hit_us), "us");
  report->Add("storage.decode_ns_per_row", Median(ns_per_row), "ns");
  const double probes = static_cast<double>(hits + misses);
  report->Add("storage.cache_probes", probes, "count");
  report->Add("storage.cache_hit_ratio",
              probes == 0 ? 0.0 : static_cast<double>(hits) / probes, "ratio");
  report->Add("kernels.scan_ooc_ms",
              1e-3 * tracer.MedianSelfUs("kernels.scan_ooc"), "ms");
  report->Add("kernels.scan_inmem_ms",
              1e-3 * tracer.MedianSelfUs("kernels.scan_inmem"), "ms");
  report->Add("kernels.extents_total", static_cast<double>(extents), "count");
  report->Add("kernels.extents_skipped_ratio",
              extents == 0 ? 0.0
                           : static_cast<double>(skipped) /
                                 static_cast<double>(extents),
              "ratio");
  tracer.WriteTo(args.work_dir + "/spans-exact_ooc.jsonl");
}

}  // namespace

void RunExactOoc(const Args& args, Report* report) {
  std::shared_ptr<Table> table = MakeTable(args.seed);
  ClusterByShipDate(table.get());
  Note(args, "table generated");
  const std::string path = args.work_dir + "/exact_ooc.ext";

  std::shared_ptr<ExtentFileReader> reader;
  const double setup_s = MedianSetupSeconds(
      args.trace ? 1 : kSetupReps,
      [&] { reader = PackAndOpen(*table, path); });
  Note(args, "table packed");
  if (args.trace) {
    reader.reset();
    TraceExactOoc(args, *table, path, report);
    std::filesystem::remove(path);
    return;
  }

  const size_t pool = static_cast<size_t>(args.seconds * 200) + 64;
  const std::vector<RangeQuery> queries = MakeExactQueries(args.seed + 4, pool);
  ExtentColumnSource source(reader);
  Window window;
  std::vector<double> answers;
  std::vector<char> answered;
  uint64_t failed = 0;
  const auto start = Clock::now();
  const auto deadline = After(start, args.seconds);
  for (size_t i = 0; i < queries.size() && Clock::now() < deadline; ++i) {
    const auto q0 = Clock::now();
    Result<double> r = kernels::ExecuteQueryOnSource(source, queries[i]);
    const double ms = 1e3 * SecondsSince(q0);
    answers.push_back(r.ok() ? *r : 0.0);
    answered.push_back(r.ok());
    if (!r.ok()) {
      ++failed;
      continue;
    }
    window.AddQuery(queries[i].func, SecondsSince(start), ms);
  }
  window.seconds = SecondsSince(start);
  Note(args, "window done");

  // Bit-identity against the exact executor over the in-memory table.
  ExactExecutor exact(table.get());
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!answered[i]) continue;
    const double want = Must(exact.Execute(queries[i]), "exact executor");
    if (!SameBits(answers[i], want)) {
      report->Fail("exact_ooc: answer " + std::to_string(i) +
                   " differs from ExactExecutor");
      break;
    }
  }
  reader.reset();
  std::filesystem::remove(path);
  AddEndToEnd(report, setup_s, window, answers.size(), failed);
}

}  // namespace perfbench
}  // namespace aqpp
