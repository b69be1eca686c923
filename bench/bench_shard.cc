// Scatter-gather shard tier: merged-answer latency and scaling vs a single
// engine, plus the degradation drill.
//
// Produces BENCH_shard.json (this PR's perf acceptance artifact):
//   (a) exact-path scatter+merge latency at 1/2/4/8 shards over the same
//       table, with bit-identity of every merged COUNT/SUM/AVG/VAR answer
//       against the single-table exact executor asserted per query;
//   (b) sampled-path (stratified-by-shard) merged latency at each width,
//       in process and over TCP: one WorkerServer per shard on loopback and
//       a ShardCoordinator answering each query end to end (canonicalize,
//       scatter over pooled connections, merge), every answer checked
//       bit-identical to LocalShardGroup::Query for the same seed;
//   (c) a degradation drill: one shard killed, answer must come back
//       flagged with a CI at least as wide as the full answer's.
//
// The exact path is a full scan per shard, so the shard tier's win is
// parallelism: speedup_vs_1 at width w is (1-shard scan latency) / (w-shard
// scatter latency) with workers on threads — the in-process stand-in for w
// worker processes.
//
// Usage:
//   bench_shard [--preset smoke|full] [--rows N] [--queries Q]
//               [--out PATH] [--check]
// --check exits nonzero if any merged exact answer or TCP sample answer is
// not bit-identical, the 4-shard exact scatter does not beat one shard by
// >= 1.2x, or the degradation drill violates its invariants. The speedup gate applies only
// in the full preset on a machine with >= 4 hardware threads: at smoke
// scale the per-shard scan is ~1 ms and thread-spawn overhead swamps the
// parallelism, and on a 1-2 core box thread-per-shard scatter cannot beat a
// single scan at all — there correctness is gated, not speed (the JSON
// records hardware_threads so the reader can tell which regime produced it).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "kernels/kernels.h"
#include "service/result_cache.h"
#include "shard/coordinator.h"
#include "shard/local_group.h"
#include "shard/partial.h"
#include "shard/worker_server.h"
#include "workload/tpcd_skew.h"

namespace aqpp {
namespace {

constexpr size_t kShipCol = 7;   // l_shipdate
constexpr size_t kDiscCol = 5;   // l_discount
constexpr size_t kPriceCol = 10; // l_extendedprice
constexpr int64_t kMaxDay = 2557;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct WidthResult {
  size_t shards = 0;
  double exact_ms_mean = 0;
  double sample_ms_mean = 0;
  double tcp_sample_ms_mean = 0;
  double speedup_vs_1 = 0;
  bool bit_identical = true;
  bool tcp_bit_identical = true;
};

// Sample-mode answers over real sockets: one WorkerServer per shard and a
// coordinator answering each query through Query(). Each answer must equal
// the in-process group's merge of the same canonical query and seed.
// Returns false on a setup or query error.
bool TimeOverTcp(const shard::LocalShardGroup& group, const Table& table,
                 const std::vector<RangeQuery>& workload, WidthResult* r) {
  std::vector<std::unique_ptr<shard::WorkerServer>> servers;
  std::vector<std::vector<shard::ReplicaEndpoint>> endpoints;
  for (size_t i = 0; i < group.num_shards(); ++i) {
    auto server = std::make_unique<shard::WorkerServer>(&group.worker(i));
    if (Status st = server->Start(); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return false;
    }
    endpoints.push_back({{.host = "127.0.0.1", .port = server->port()}});
    servers.push_back(std::move(server));
  }
  shard::ShardCoordinator coordinator(endpoints);
  if (Status st = coordinator.Connect(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return false;
  }
  shard::MergeOptions merge{.mode = shard::MergeMode::kSample};
  merge.confidence_level = coordinator.options().confidence_level;
  merge.total_rows = coordinator.total_rows();
  QueryCanonicalizer canonicalizer(&table);
  double total = 0;
  for (const RangeQuery& q : workload) {
    Timer timer;
    auto answer = coordinator.Query(q);
    total += timer.ElapsedSeconds();
    if (!answer.ok()) {
      std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
      return false;
    }
    const CanonicalQuery canon = canonicalizer.Canonicalize(q);
    auto local = group.Query(canon.query, {.sample = true}, answer->seed,
                             merge);
    if (!local.ok() || answer->cache_hit || answer->merged.degraded ||
        canon.seed != answer->seed ||
        !SameBits(local->ci.estimate, answer->merged.ci.estimate) ||
        !SameBits(local->ci.half_width, answer->merged.ci.half_width)) {
      r->tcp_bit_identical = false;
      std::fprintf(stderr, "TCP MISMATCH: %zu shards, query %s\n",
                   group.num_shards(), q.ToString(table.schema()).c_str());
    }
  }
  r->tcp_sample_ms_mean = 1e3 * total / static_cast<double>(workload.size());
  return true;
}

std::vector<RangeQuery> MakeWorkload(size_t count, uint64_t seed) {
  // COUNT/SUM/AVG/VAR round-robin over random ship-date windows (~10-40% of
  // the domain), half of them with a discount sub-range stacked on.
  const AggregateFunction funcs[] = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kVar};
  Rng rng(seed);
  std::vector<RangeQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    RangeQuery q;
    q.func = funcs[i % 4];
    q.agg_column = kPriceCol;
    int64_t width = rng.NextInt(kMaxDay / 10, 2 * kMaxDay / 5);
    int64_t lo = rng.NextInt(1, kMaxDay - width);
    q.predicate.Add({kShipCol, lo, lo + width});
    if (i % 2 == 1) {
      q.predicate.Add({kDiscCol, 0, rng.NextInt(4, 9)});
    }
    queries.push_back(q);
  }
  return queries;
}

}  // namespace
}  // namespace aqpp

int main(int argc, char** argv) {
  using namespace aqpp;

  std::string preset = "full";
  std::string out_path = "BENCH_shard.json";
  size_t rows = 0, num_queries = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--preset" && i + 1 < argc) {
      preset = argv[++i];
    } else if (arg == "--rows" && i + 1 < argc) {
      rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--queries" && i + 1 < argc) {
      num_queries = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--preset smoke|full] [--rows N] [--queries Q] "
                   "[--out PATH] [--check]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool smoke = preset == "smoke";
  // Widths up to 8 need eight kShardRows grid blocks.
  if (rows == 0) rows = smoke ? 8 * kernels::kShardRows + 12345 : 8'000'000;
  if (num_queries == 0) num_queries = smoke ? 16 : 64;
  if (rows < 8 * kernels::kShardRows) {
    std::fprintf(stderr, "error: --rows must be >= %zu for 8 shards\n",
                 8 * static_cast<size_t>(kernels::kShardRows));
    return 2;
  }

  std::fprintf(stderr, "generating %zu-row TPCD-Skew table...\n", rows);
  std::shared_ptr<Table> table = bench::LoadTpcdSkew(rows);
  ExactExecutor exact(table.get());

  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = kPriceCol;
  tmpl.condition_columns = {kShipCol, kDiscCol};

  const std::vector<RangeQuery> workload = MakeWorkload(num_queries, 2024);

  // Ground truth once per query.
  std::vector<double> truths(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto t = exact.Execute(workload[i]);
    if (!t.ok()) {
      std::fprintf(stderr, "error: %s\n", t.status().ToString().c_str());
      return 1;
    }
    truths[i] = *t;
  }

  shard::LocalShardGroupOptions gopt;
  gopt.worker.sample_size = smoke ? 2048 : 16384;
  gopt.worker.cube_budget = 256;
  gopt.worker.base_seed = 42;

  std::vector<WidthResult> results;
  double one_shard_exact_ms = 0;
  bool all_identical = true;
  for (size_t shards : {1, 2, 4, 8}) {
    std::fprintf(stderr, "building %zu-shard group...\n", shards);
    auto group_or =
        shard::LocalShardGroup::Build(table, tmpl, shards, gopt);
    if (!group_or.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   group_or.status().ToString().c_str());
      return 1;
    }
    const shard::LocalShardGroup& group = **group_or;

    WidthResult r;
    r.shards = shards;
    shard::MergeOptions exact_opt{.mode = shard::MergeMode::kExact};
    shard::MergeOptions sample_opt{.mode = shard::MergeMode::kSample};

    double exact_total = 0, sample_total = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      Timer timer;
      auto merged = group.Query(workload[i], {.exact = true}, 7, exact_opt);
      exact_total += timer.ElapsedSeconds();
      if (!merged.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     merged.status().ToString().c_str());
        return 1;
      }
      if (!SameBits(merged->ci.estimate, truths[i])) {
        r.bit_identical = false;
        all_identical = false;
        std::fprintf(stderr,
                     "BIT MISMATCH: %zu shards, query %zu: %.17g vs %.17g\n",
                     shards, i, merged->ci.estimate, truths[i]);
      }

      Timer stimer;
      auto sampled = group.Query(workload[i], {.sample = true}, 7, sample_opt);
      sample_total += stimer.ElapsedSeconds();
      if (!sampled.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     sampled.status().ToString().c_str());
        return 1;
      }
    }
    r.exact_ms_mean = 1e3 * exact_total / static_cast<double>(workload.size());
    r.sample_ms_mean =
        1e3 * sample_total / static_cast<double>(workload.size());
    if (shards == 1) one_shard_exact_ms = r.exact_ms_mean;
    r.speedup_vs_1 = one_shard_exact_ms / r.exact_ms_mean;
    if (!TimeOverTcp(group, *table, workload, &r)) return 1;
    all_identical = all_identical && r.tcp_bit_identical;
    std::fprintf(stderr,
                 "  %zu shards: exact %.2f ms (%.2fx vs 1), sample %.3f ms, "
                 "tcp sample %.3f ms, bit_identical=%d tcp_bit_identical=%d\n",
                 shards, r.exact_ms_mean, r.speedup_vs_1, r.sample_ms_mean,
                 r.tcp_sample_ms_mean, r.bit_identical ? 1 : 0,
                 r.tcp_bit_identical ? 1 : 0);
    results.push_back(r);
  }

  // ---- Degradation drill: kill one shard of the 4-wide group -------------
  std::fprintf(stderr, "degradation drill...\n");
  bool degraded_ok = true;
  double ci_widening = 0;
  {
    auto group_or = shard::LocalShardGroup::Build(table, tmpl, 4, gopt);
    if (!group_or.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   group_or.status().ToString().c_str());
      return 1;
    }
    shard::LocalShardGroup& group = **group_or;
    RangeQuery q = workload[1];  // a SUM
    shard::MergeOptions mopt{.mode = shard::MergeMode::kSample};
    auto full = group.Query(q, {.sample = true}, 7, mopt);
    group.FailShard(2, true);
    auto degraded = group.Query(q, {.sample = true}, 7, mopt);
    if (!full.ok() || !degraded.ok()) {
      std::fprintf(stderr, "error: degradation drill query failed\n");
      return 1;
    }
    degraded_ok = degraded->degraded && !full->degraded &&
                  degraded->shards_answered == 3 &&
                  degraded->ci.half_width >= full->ci.half_width &&
                  std::isfinite(degraded->ci.estimate);
    ci_widening = full->ci.half_width > 0
                      ? degraded->ci.half_width / full->ci.half_width
                      : 0;
    std::fprintf(stderr, "  degraded flagged=%d widening=%.1fx\n",
                 degraded->degraded ? 1 : 0, ci_widening);
  }

  const double speedup4 = results[2].speedup_vs_1;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"benchmark\": \"shard_scatter_gather\",\n";
  out << StrFormat("  \"preset\": \"%s\",\n", preset.c_str());
  out << StrFormat("  \"rows\": %zu,\n", rows);
  out << StrFormat("  \"queries\": %zu,\n", workload.size());
  out << "  \"workload\": \"TPCD-Skew; COUNT/SUM/AVG/VAR(l_extendedprice) "
         "over random l_shipdate windows, half with an l_discount range\",\n";
  out << StrFormat("  \"all_bit_identical\": %s,\n",
                   all_identical ? "true" : "false");
  out << StrFormat("  \"hardware_threads\": %u,\n", hw_threads);
  out << "  \"widths\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const WidthResult& r = results[i];
    out << StrFormat(
        "    {\"shards\": %zu, \"exact_ms_mean\": %.3f, "
        "\"sample_ms_mean\": %.3f, \"tcp_sample_ms_mean\": %.3f, "
        "\"speedup_vs_1\": %.2f, \"bit_identical\": %s, "
        "\"tcp_bit_identical\": %s}%s\n",
        r.shards, r.exact_ms_mean, r.sample_ms_mean, r.tcp_sample_ms_mean,
        r.speedup_vs_1, r.bit_identical ? "true" : "false",
        r.tcp_bit_identical ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  out << "  ],\n";
  out << StrFormat(
      "  \"degradation\": {\"invariants_held\": %s, \"ci_widening\": %.2f},\n",
      degraded_ok ? "true" : "false", ci_widening);
  out << StrFormat("  \"peak_rss_bytes\": %zu\n", bench::PeakRssBytes());
  out << "}\n";
  out.close();
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  if (check) {
    int rc = 0;
    if (!all_identical) {
      std::fprintf(stderr,
                   "CHECK FAILED: merged exact or TCP sample answers "
                   "drifted\n");
      rc = 1;
    }
    if (!smoke && hw_threads >= 4 && speedup4 < 1.2) {
      std::fprintf(stderr,
                   "CHECK FAILED: 4-shard exact speedup %.2fx < 1.2x "
                   "(%u hardware threads)\n",
                   speedup4, hw_threads);
      rc = 1;
    } else if (!smoke && hw_threads < 4) {
      std::fprintf(stderr,
                   "note: speedup gate skipped (%u hardware threads < 4)\n",
                   hw_threads);
    }
    if (!degraded_ok) {
      std::fprintf(stderr, "CHECK FAILED: degradation invariants violated\n");
      rc = 1;
    }
    if (rc == 0) std::fprintf(stderr, "CHECK OK\n");
    return rc;
  }
  return 0;
}
