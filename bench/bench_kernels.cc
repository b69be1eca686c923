// Kernel-layer scan throughput: vectorized kernels vs the legacy scalar
// row loop, across selectivities and thread counts; plus the support-sparse
// bootstrap resampler vs the dense n-draw oracle.
//
// Produces BENCH_kernels.json (the PR's perf acceptance artifact): rows/sec
// for the fused filter+SUM path plus the COUNT / moments / min-max kernel
// profiles, at selectivities {0.001, 0.01, 0.1, 0.5, 1.0} and 1/4/8
// threads, against the identical query on the row-at-a-time scalar
// baseline (tests/exact_scan_oracle.h). The bootstrap section times one
// AVG difference CI (n = 25k sample rows, R = 120 resamples) at support
// fractions {0.5%, 5%, 50%, 100%}, sparse against dense.
//
// Usage:
//   bench_kernels [--preset smoke|full] [--rows N] [--out PATH] [--check]
// --check exits nonzero if the kernel path is slower than the scalar
// baseline on the 0.1-selectivity single-thread SUM case, if the sparse
// bootstrap is less than 5x faster than the dense oracle at 5% support, or
// if it is slower than the oracle at 100% support (the CI gates).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "dense_bootstrap_oracle.h"
#include "exact_scan_oracle.h"
#include "exec/executor.h"
#include "stats/bootstrap.h"
#include "storage/table.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace {

// Condition column domain; selectivity s maps to the range [0, s*kDomain).
constexpr int64_t kDomain = 100000;

std::shared_ptr<Table> BenchTable(size_t rows) {
  Schema schema({{"c", DataType::kInt64}, {"a", DataType::kDouble}});
  auto table = std::make_shared<Table>(schema);
  table->Reserve(rows);
  Rng rng(2024);
  auto& c = table->mutable_column(0).MutableInt64Data();
  auto& a = table->mutable_column(1).MutableDoubleData();
  for (size_t i = 0; i < rows; ++i) {
    c.push_back(rng.NextInt(0, kDomain - 1));
    a.push_back(rng.NextGaussian() * 50.0 + 100.0);
  }
  table->SetRowCountFromColumns();
  return table;
}

RangeQuery SumQuery(double selectivity) {
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 1;
  const int64_t hi =
      static_cast<int64_t>(selectivity * static_cast<double>(kDomain)) - 1;
  q.predicate.Add({0, 0, hi});
  return q;
}

// Best-of-repetitions wall time for one scan of `q` by `execute`
// (RangeQuery -> Result<double>). The minimum is robust against external
// load (interference only ever adds time); shared runners show multi-x
// throughput swings that make means/medians unusable.
template <typename Execute>
double TimeExecute(const Execute& execute, const RangeQuery& q,
                   double min_seconds) {
  (void)*execute(q);  // warm
  double best = std::numeric_limits<double>::infinity();
  size_t reps = 0;
  Timer total;
  while (reps < 5 ||
         (total.ElapsedSeconds() < min_seconds && reps < 400)) {
    Timer t;
    volatile double sink = *execute(q);
    (void)sink;
    best = std::min(best, t.ElapsedSeconds());
    ++reps;
  }
  return best;
}

struct CaseResult {
  double selectivity = 0;
  size_t threads = 0;
  double scalar_sum = 0;   // rows/sec
  double kernel_sum = 0;   // rows/sec
  double kernel_count = 0;
  double kernel_moments = 0;
  double kernel_minmax = 0;
  bool answers_match = false;
  bool deterministic = false;  // bit-identical vs the 1-thread kernel run
};

// Best-of-repetitions wall time of fn().
template <typename Fn>
double TimeBest(const Fn& fn, double min_seconds) {
  fn();  // warm
  double best = std::numeric_limits<double>::infinity();
  size_t reps = 0;
  Timer total;
  while (reps < 5 || (total.ElapsedSeconds() < min_seconds && reps < 400)) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
    ++reps;
  }
  return best;
}

struct BootstrapResult {
  double support = 0;   // fraction of rows on the support
  size_t k = 0;
  double dense_us = 0;
  double sparse_us = 0;
  bool estimates_match = false;  // bit-identical point estimates
};

// One AVG difference CI over an n-row sample whose support holds
// `support` * n rows: the sparse path (compaction from the dense series +
// support-sparse resampling) against the dense oracle (n draws and two
// n-row gathers per resample).
BootstrapResult TimeBootstrap(size_t n, size_t resamples, double support,
                              double min_seconds) {
  Rng gen(2025);
  std::vector<double> s(n, 0.0), c(n, 0.0);
  const size_t k = static_cast<size_t>(support * static_cast<double>(n));
  for (size_t i : SampleWithoutReplacement(n, k, gen)) {
    const auto v = AvgContribution(100.0 + 30.0 * gen.NextGaussian(),
                                   1.0 + gen.NextDouble(),
                                   gen.NextBernoulli(0.5) ? 1.0 : -1.0);
    s[i] = v[0];
    c[i] = v[1];
  }
  const PreValues pre{1e6, 1e4, 0.0};
  auto sparse = [&] {
    SupportSeries<2> contrib(n);
    for (size_t i = 0; i < n; ++i) contrib.Push({s[i], c[i]});
    Rng rng(7);
    return AvgDifferenceBootstrapCI(contrib, pre, 0.95, resamples, rng);
  };
  auto dense = [&] {
    Rng rng(7);
    return oracle::DenseAvgDifferenceBootstrapCI(s, c, pre, 0.95, resamples,
                                                 rng);
  };
  BootstrapResult r;
  r.support = support;
  r.k = k;
  r.estimates_match = std::bit_cast<uint64_t>(sparse().estimate) ==
                      std::bit_cast<uint64_t>(dense().estimate);
  // Alternate rounds so a slow period lands on both sides of the ratio;
  // the 100%-support gate compares two costs of the same order, so it gets
  // more rounds than the scan cases.
  r.dense_us = r.sparse_us = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 6; ++round) {
    r.dense_us = std::min(r.dense_us, 1e6 * TimeBest(dense, min_seconds / 2));
    r.sparse_us =
        std::min(r.sparse_us, 1e6 * TimeBest(sparse, min_seconds / 2));
  }
  return r;
}

}  // namespace
}  // namespace aqpp

int main(int argc, char** argv) {
  using namespace aqpp;

  std::string preset = "full";
  std::string out_path = "BENCH_kernels.json";
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
  if (rows == 0) rows = smoke ? 1'000'000 : 4'000'000;
  const double min_seconds = smoke ? 0.05 : 0.25;

  std::fprintf(stderr, "generating %zu rows...\n", rows);
  auto table = BenchTable(rows);
  const double drows = static_cast<double>(rows);

  const double selectivities[] = {0.001, 0.01, 0.1, 0.5, 1.0};
  const size_t thread_counts[] = {1, 4, 8};
  std::vector<CaseResult> results;
  double gate_speedup = 0.0;  // 0.1-selectivity single-thread SUM

  for (double sel : selectivities) {
    const RangeQuery q = SumQuery(sel);
    bool reference_bits_set = false;
    uint64_t reference_bits = 0;
    for (size_t threads : thread_counts) {
      ThreadPool pool(threads);
      ExecutorOptions kopts;
      kopts.pool = &pool;
      ExactExecutor executor(table.get(), kopts);
      auto kernel_ex = [&](const RangeQuery& query) {
        return executor.Execute(query);
      };
      auto scalar_ex = [&](const RangeQuery& query) {
        return oracle::ExactScan(*table, query, &pool);
      };

      CaseResult r;
      r.selectivity = sel;
      r.threads = threads;

      const double kernel_answer = *kernel_ex(q);
      const double scalar_answer = *scalar_ex(q);
      r.answers_match = std::abs(kernel_answer - scalar_answer) <=
                        1e-9 * (1.0 + std::abs(scalar_answer));
      const uint64_t bits = std::bit_cast<uint64_t>(kernel_answer);
      if (!reference_bits_set) {
        reference_bits = bits;
        reference_bits_set = true;
      }
      r.deterministic = bits == reference_bits;

      // Alternate kernel/scalar timing rounds so a machine-wide slow period
      // lands on both sides of the speedup ratio, not just one.
      double kernel_best = std::numeric_limits<double>::infinity();
      double scalar_best = std::numeric_limits<double>::infinity();
      for (int round = 0; round < 3; ++round) {
        kernel_best = std::min(
            kernel_best, TimeExecute(kernel_ex, q, min_seconds / 3));
        scalar_best = std::min(
            scalar_best, TimeExecute(scalar_ex, q, min_seconds / 3));
      }
      r.kernel_sum = drows / kernel_best;
      r.scalar_sum = drows / scalar_best;
      RangeQuery qc = q;
      qc.func = AggregateFunction::kCount;
      r.kernel_count = drows / TimeExecute(kernel_ex, qc, min_seconds);
      RangeQuery qv = q;
      qv.func = AggregateFunction::kVar;
      r.kernel_moments = drows / TimeExecute(kernel_ex, qv, min_seconds);
      RangeQuery qm = q;
      qm.func = AggregateFunction::kMin;
      r.kernel_minmax = drows / TimeExecute(kernel_ex, qm, min_seconds);

      if (sel == 0.1 && threads == 1) {
        gate_speedup = r.kernel_sum / r.scalar_sum;
      }
      std::fprintf(stderr,
                   "sel=%.3f threads=%zu scalar=%.3g kernel=%.3g rows/s "
                   "(%.2fx)%s%s\n",
                   sel, threads, r.scalar_sum, r.kernel_sum,
                   r.kernel_sum / r.scalar_sum,
                   r.answers_match ? "" : " ANSWER-MISMATCH",
                   r.deterministic ? "" : " NONDETERMINISTIC");
      results.push_back(r);
    }
  }

  constexpr size_t kBootstrapRows = 25000;
  constexpr size_t kBootstrapResamples = 120;
  std::vector<BootstrapResult> boot;
  for (double support : {0.005, 0.05, 0.5, 1.0}) {
    boot.push_back(TimeBootstrap(kBootstrapRows, kBootstrapResamples, support,
                                 min_seconds));
    const BootstrapResult& b = boot.back();
    std::fprintf(stderr,
                 "bootstrap support=%.3f k=%zu dense=%.1fus sparse=%.1fus "
                 "(%.1fx)%s\n",
                 b.support, b.k, b.dense_us, b.sparse_us,
                 b.dense_us / b.sparse_us,
                 b.estimates_match ? "" : " ESTIMATE-MISMATCH");
  }
  auto boot_speedup = [&](double support) {
    for (const BootstrapResult& b : boot) {
      if (b.support == support) return b.dense_us / b.sparse_us;
    }
    return 0.0;
  };

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"kernel_scans\",\n";
  out << StrFormat("  \"preset\": \"%s\",\n", preset.c_str());
  out << StrFormat("  \"rows\": %zu,\n", rows);
  out << "  \"workload\": \"SELECT f(a) WHERE 0 <= c < sel*domain; uniform "
         "int64 condition column, gaussian double measure\",\n";
  out << "  \"baseline\": \"tests/exact_scan_oracle.h ExactScan (row-at-a-"
         "time accessor scan, Welford moments)\",\n";
  out << StrFormat("  \"gate_speedup_sum_sel0.1_1thread\": %.3f,\n",
                   gate_speedup);
  out << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out << StrFormat(
        "    {\"selectivity\": %.3f, \"threads\": %zu,\n"
        "     \"scalar_sum_rows_per_sec\": %.4g, "
        "\"kernel_sum_rows_per_sec\": %.4g, \"speedup_sum\": %.2f,\n"
        "     \"kernel_count_rows_per_sec\": %.4g, "
        "\"kernel_moments_rows_per_sec\": %.4g, "
        "\"kernel_minmax_rows_per_sec\": %.4g,\n"
        "     \"answers_match\": %s, \"bit_identical_across_threads\": "
        "%s}%s\n",
        r.selectivity, r.threads, r.scalar_sum, r.kernel_sum,
        r.kernel_sum / r.scalar_sum, r.kernel_count, r.kernel_moments,
        r.kernel_minmax, r.answers_match ? "true" : "false",
        r.deterministic ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  out << "  ],\n";
  out << StrFormat(
      "  \"bootstrap\": {\"rows\": %zu, \"resamples\": %zu,\n"
      "    \"workload\": \"one AVG difference CI; sparse = compaction + "
      "Binomial(n, k/n) hits + k-row picks, dense = n draws + two n-row "
      "gathers per resample\",\n"
      "    \"gate_speedup_support0.05\": %.2f, "
      "\"gate_speedup_support1.0\": %.2f,\n"
      "    \"results\": [\n",
      kBootstrapRows, kBootstrapResamples, boot_speedup(0.05),
      boot_speedup(1.0));
  for (size_t i = 0; i < boot.size(); ++i) {
    const BootstrapResult& b = boot[i];
    out << StrFormat(
        "      {\"support\": %.3f, \"k\": %zu, \"dense_us\": %.1f, "
        "\"sparse_us\": %.1f, \"speedup\": %.2f, "
        "\"estimates_bit_identical\": %s}%s\n",
        b.support, b.k, b.dense_us, b.sparse_us, b.dense_us / b.sparse_us,
        b.estimates_match ? "true" : "false", i + 1 < boot.size() ? "," : "");
  }
  out << "    ]\n  }\n}\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  bool ok = true;
  for (const CaseResult& r : results) {
    if (!r.answers_match || !r.deterministic) ok = false;
  }
  for (const BootstrapResult& b : boot) {
    if (!b.estimates_match) ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: kernel/scalar mismatch, nondeterminism, or sparse/"
                 "dense bootstrap estimate mismatch\n");
    return 1;
  }
  if (check && boot_speedup(0.05) < 5.0) {
    std::fprintf(stderr,
                 "FAIL: sparse bootstrap less than 5x faster than the dense "
                 "oracle at 5%% support (%.2fx)\n",
                 boot_speedup(0.05));
    return 1;
  }
  if (check && boot_speedup(1.0) < 1.0) {
    std::fprintf(stderr,
                 "FAIL: sparse bootstrap slower than the dense oracle at "
                 "100%% support (%.2fx)\n",
                 boot_speedup(1.0));
    return 1;
  }
  if (check && gate_speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: kernel path slower than scalar baseline on the "
                 "0.1-selectivity single-thread SUM gate (%.2fx)\n",
                 gate_speedup);
    return 1;
  }
  return 0;
}
