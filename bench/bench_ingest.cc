// Streaming-ingest throughput vs query latency: writer connections blast row
// batches over the live TCP stack while reader connections issue one-shot
// SUM queries, at writer loads {0, 1, 4}. The background absorber runs
// throughout, so the measurement covers the full pipeline: wire decode,
// delta commit, cache invalidation, absorb, and the readers' delta fold.
//
// Produces BENCH_ingest.json (the PR's perf acceptance artifact): sustained
// ingest rows/sec and reader query p50/p99 per load point, plus a freshness
// verdict (every reply's generation is monotone per connection, and the
// post-quiesce snapshot accounts for every acked row exactly).
//
// Usage:
//   bench_ingest [--preset smoke|full] [--rows N] [--out PATH] [--check]
// --check exits nonzero on a freshness/accounting violation at any preset.
// On the full preset it also enforces the CI gates: >= 20k sustained ingest
// rows/sec with one writer, and reader p99 under 4-writer load no worse
// than 25x the unloaded p99.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "storage/table.h"

namespace aqpp {
namespace {

constexpr int64_t kDom1 = 100;
constexpr int64_t kDom2 = 50;

std::shared_ptr<Table> SyntheticRows(size_t rows, uint64_t seed) {
  Schema schema({{"c1", DataType::kInt64},
                 {"c2", DataType::kInt64},
                 {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  t->Reserve(rows);
  Rng rng(seed);
  auto& c1 = t->mutable_column(0).MutableInt64Data();
  auto& c2 = t->mutable_column(1).MutableInt64Data();
  auto& a = t->mutable_column(2).MutableDoubleData();
  for (size_t i = 0; i < rows; ++i) {
    c1.push_back(rng.NextInt(1, kDom1));
    c2.push_back(rng.NextInt(1, kDom2));
    a.push_back(100.0 + 10.0 * rng.NextGaussian());
  }
  t->SetRowCountFromColumns();
  return t;
}

std::string RandomSumSql(Rng* rng) {
  int64_t lo1 = rng->NextInt(1, 60);
  int64_t hi1 = std::min<int64_t>(lo1 + rng->NextInt(20, 40), kDom1);
  int64_t lo2 = rng->NextInt(1, 30);
  int64_t hi2 = std::min<int64_t>(lo2 + rng->NextInt(10, 20), kDom2);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SELECT SUM(a) FROM t WHERE c1 BETWEEN %lld AND %lld "
                "AND c2 BETWEEN %lld AND %lld",
                static_cast<long long>(lo1), static_cast<long long>(hi1),
                static_cast<long long>(lo2), static_cast<long long>(hi2));
  return std::string(buf);
}

struct LoadPoint {
  size_t writers = 0;
  double ingest_rows_per_sec = 0;
  double query_qps = 0;
  double query_p50_ms = 0;
  double query_p99_ms = 0;
  uint64_t rows_ingested = 0;
  uint64_t queries = 0;
  bool freshness_ok = true;
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

}  // namespace
}  // namespace aqpp

int main(int argc, char** argv) {
  using namespace aqpp;
  using namespace std::chrono;

  std::string preset = "full";
  std::string out_path = "BENCH_ingest.json";
  size_t rows = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--preset" && i + 1 < argc) {
      preset = argv[++i];
    } else if (arg == "--rows" && i + 1 < argc) {
      rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--preset smoke|full] [--rows N] [--out PATH] "
                   "[--check]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool smoke = preset == "smoke";
  if (rows == 0) rows = smoke ? 50'000 : 500'000;
  const double window_seconds = smoke ? 0.4 : 3.0;
  const size_t batch_rows = 256;
  const size_t readers = 2;

  const size_t writer_loads[] = {0, 1, 4};
  std::vector<LoadPoint> points;
  bool all_fresh = true;
  bool accounting_ok = true;

  for (size_t writers : writer_loads) {
    // A fresh stack per load point: each measurement starts from the same
    // base table, so load points are comparable and order-independent.
    std::fprintf(stderr, "load point: %zu writer(s), building stack...\n",
                 writers);
    auto table = SyntheticRows(rows, /*seed=*/2026);
    EngineOptions eopts;
    eopts.sample_rate = 0.05;
    eopts.cube_budget = 400;
    auto engine =
        std::shared_ptr<AqppEngine>(std::move(AqppEngine::Create(table, eopts)).value());
    QueryTemplate tmpl;
    tmpl.agg_column = 2;
    tmpl.condition_columns = {0, 1};
    AQPP_CHECK_OK(engine->Prepare(tmpl));
    Catalog catalog;
    AQPP_CHECK_OK(catalog.Register("t", table));
    QueryService service{engine.get()};
    IngestOptions iopts;
    iopts.background = true;
    iopts.absorb_threshold_rows = 4096;
    iopts.absorb_interval_seconds = 0.005;
    IngestManager ingest(engine.get(), iopts);
    service.AttachIngest(&ingest);
    AQPP_CHECK_OK(ingest.Start());
    ServiceServer server(&service, &catalog);
    AQPP_CHECK_OK(server.Start());
    const int port = server.port();

    auto batch = SyntheticRows(batch_rows, /*seed=*/7);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> rows_ingested{0};
    std::atomic<int> violations{0};

    std::vector<std::thread> threads;
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        auto client = ServiceClient::Connect("127.0.0.1", port);
        if (!client.ok()) { ++violations; return; }
        (void)client->Hello("bench-writer-" + std::to_string(w));
        while (!stop.load(std::memory_order_relaxed)) {
          auto ack = client->Ingest(*batch);
          if (ack.ok()) {
            rows_ingested.fetch_add(batch_rows, std::memory_order_relaxed);
          } else if (ack.status().code() == StatusCode::kResourceExhausted) {
            std::this_thread::sleep_for(500us);  // delta backpressure
          } else {
            ++violations;
            return;
          }
        }
      });
    }

    std::vector<std::vector<double>> latencies(readers);
    std::vector<uint64_t> reader_queries(readers, 0);
    for (size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        auto client = ServiceClient::Connect("127.0.0.1", port);
        if (!client.ok()) { ++violations; return; }
        (void)client->Hello("bench-reader-" + std::to_string(r));
        Rng rng(9000 + r);
        uint64_t last_generation = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          std::string sql = RandomSumSql(&rng);
          Timer t;
          auto reply = client->Query(sql);
          if (!reply.ok()) { ++violations; return; }
          latencies[r].push_back(t.ElapsedSeconds() * 1e3);
          ++reader_queries[r];
          // Freshness: generations are monotone per connection.
          if (reply->generation < last_generation) ++violations;
          last_generation = reply->generation;
        }
      });
    }

    Timer window;
    std::this_thread::sleep_for(
        duration<double>(window_seconds));
    stop.store(true);
    for (auto& t : threads) t.join();
    const double elapsed = window.ElapsedSeconds();

    // Quiesce and check exact accounting: every acked row is in the
    // published state or the delta, no row counted twice.
    AQPP_CHECK_OK(ingest.AbsorbNow());
    IngestSnapshot snap = ingest.snapshot();
    if (snap.rows_committed != rows_ingested.load() ||
        snap.total_rows != rows + rows_ingested.load()) {
      accounting_ok = false;
    }

    LoadPoint p;
    p.writers = writers;
    p.rows_ingested = rows_ingested.load();
    p.ingest_rows_per_sec = static_cast<double>(p.rows_ingested) / elapsed;
    std::vector<double> all_lat;
    for (size_t r = 0; r < readers; ++r) {
      p.queries += reader_queries[r];
      all_lat.insert(all_lat.end(), latencies[r].begin(), latencies[r].end());
    }
    p.query_qps = static_cast<double>(p.queries) / elapsed;
    p.query_p50_ms = Percentile(all_lat, 0.50);
    p.query_p99_ms = Percentile(all_lat, 0.99);
    p.freshness_ok = violations.load() == 0;
    all_fresh = all_fresh && p.freshness_ok;
    points.push_back(p);

    std::fprintf(stderr,
                 "writers=%zu ingest=%.3g rows/s queries=%.3g q/s "
                 "p50=%.2fms p99=%.2fms%s%s\n",
                 writers, p.ingest_rows_per_sec, p.query_qps, p.query_p50_ms,
                 p.query_p99_ms, p.freshness_ok ? "" : " FRESHNESS-VIOLATION",
                 accounting_ok ? "" : " ACCOUNTING-MISMATCH");

    server.Stop();
    service.Stop();
    ingest.Stop();
  }

  const double p99_unloaded = points[0].query_p99_ms;
  const double p99_loaded = points.back().query_p99_ms;
  const double p99_ratio =
      p99_unloaded > 0 ? p99_loaded / p99_unloaded : 0.0;
  const double one_writer_rate = points[1].ingest_rows_per_sec;

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"streaming_ingest\",\n";
  out << StrFormat("  \"preset\": \"%s\",\n", preset.c_str());
  out << StrFormat("  \"base_rows\": %zu,\n", rows);
  out << StrFormat("  \"batch_rows\": %zu,\n", batch_rows);
  out << StrFormat("  \"readers\": %zu,\n", readers);
  out << "  \"workload\": \"writer connections stream 256-row batches over "
         "TCP while readers issue random SUM queries; background absorber "
         "on\",\n";
  out << StrFormat("  \"gate_one_writer_rows_per_sec\": %.4g,\n",
                   one_writer_rate);
  out << StrFormat("  \"gate_p99_ratio_4w_over_0w\": %.3f,\n", p99_ratio);
  out << StrFormat("  \"gate_enforced\": %s,\n", smoke ? "false" : "true");
  out << StrFormat("  \"freshness_ok\": %s,\n", all_fresh ? "true" : "false");
  out << StrFormat("  \"accounting_exact\": %s,\n",
                   accounting_ok ? "true" : "false");
  out << "  \"results\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const LoadPoint& p = points[i];
    out << StrFormat(
        "    {\"writers\": %zu, \"rows_ingested\": %llu,\n"
        "     \"ingest_rows_per_sec\": %.4g, \"query_qps\": %.4g,\n"
        "     \"query_p50_ms\": %.3f, \"query_p99_ms\": %.3f, "
        "\"freshness_ok\": %s}%s\n",
        p.writers, static_cast<unsigned long long>(p.rows_ingested),
        p.ingest_rows_per_sec, p.query_qps, p.query_p50_ms, p.query_p99_ms,
        p.freshness_ok ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  if (check && (!all_fresh || !accounting_ok)) {
    std::fprintf(stderr, "FAIL: freshness or accounting violation\n");
    return 1;
  }
  if (check && !smoke) {
    if (one_writer_rate < 20'000) {
      std::fprintf(stderr,
                   "FAIL: one-writer ingest below the 20k rows/sec gate "
                   "(%.3g)\n",
                   one_writer_rate);
      return 1;
    }
    if (p99_ratio > 25.0) {
      std::fprintf(stderr,
                   "FAIL: reader p99 under 4-writer load above the 25x gate "
                   "(%.2fx)\n",
                   p99_ratio);
      return 1;
    }
  }
  return 0;
}
