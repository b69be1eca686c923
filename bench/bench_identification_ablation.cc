// Section 5 ablation — aggregate identification.
//
// Two claims to quantify:
//  (1) scoring the 4^d + 1 bracket candidates P- on a *subsample* loses
//      almost nothing versus scoring them on the full sample, while the
//      identification overhead shrinks proportionally (§5.2's "< 1/4^d"
//      rule);
//  (2) P- itself loses almost nothing versus brute-forcing the entire P+,
//      at orders of magnitude fewer candidates (Lemma 3).

#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/identification.h"
#include "core/precompute.h"
#include "sampling/samplers.h"
#include "stats/descriptive.h"
#include "synopsis/estimator.h"
#include "workload/query_gen.h"

namespace aqpp {
namespace bench {
namespace {

int Run() {
  const size_t rows = std::min<size_t>(BenchRows(), 600'000);
  const size_t num_queries = std::max<size_t>(50, BenchQueries() / 4);
  auto table = LoadTpcdSkew(rows);
  ExactExecutor executor(table.get());

  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 10;
  tmpl.condition_columns = {7, 4};  // l_shipdate, l_quantity
  Rng rng(131);
  auto sample = CreateUniformSample(*table, 0.02, rng);
  AQPP_CHECK_OK(sample.status());

  Precomputer pre(table.get(), &*sample, 10, {.forced_shape = {60, 40}});
  auto prepared = std::move(pre.Precompute(tmpl.condition_columns, 2400))
                      .value();
  QueryGenerator gen(table.get(), tmpl, {}, 132);
  auto queries = gen.GenerateMany(num_queries);
  AQPP_CHECK_OK(queries.status());
  auto truths = ComputeTruths(*queries, executor);
  AQPP_CHECK_OK(truths.status());

  SampleEstimator estimator(&*sample);
  auto realized = [&](const IdentifiedAggregate& id, size_t qi,
                      Rng& r) -> double {
    RangePredicate pred = id.pre.ToPredicate(prepared.cube->scheme());
    auto ci = estimator.EstimateWithPre((*queries)[qi], pred, id.values, r);
    AQPP_CHECK_OK(ci.status());
    return std::fabs((*truths)[qi]) < 1e-9
               ? 0.0
               : ci->half_width / std::fabs((*truths)[qi]);
  };

  PrintHeader(
      "Section 5 ablation: identification scoring policy",
      StrFormat("rows=%zu  2%% sample  cube 60x40  queries=%zu", rows,
                queries->size()));
  std::vector<int> widths = {22, 14, 16, 14};
  PrintRow({"policy", "mdn realized", "avg ident time", "avg #scored"},
           widths);
  PrintRule(widths);

  // (1) Subsample-rate sweep (including the full-sample reference).
  for (double rate : {-1.0, 0.25, 0.0625, 0.015625, 1.0}) {
    IdentificationOptions opts;
    if (rate >= 1.0) {
      opts.score_on_full_sample = true;
    } else if (rate > 0) {
      opts.subsample_rate = rate;
    }  // rate < 0: the auto rule
    Rng irng(200);
    AggregateIdentifier ident(prepared.cube.get(), &*sample, opts, irng);
    std::vector<double> errors;
    double total_time = 0, total_scored = 0;
    for (size_t qi = 0; qi < queries->size(); ++qi) {
      Timer t;
      auto id = ident.Identify((*queries)[qi], irng);
      AQPP_CHECK_OK(id.status());
      total_time += t.ElapsedSeconds();
      total_scored += static_cast<double>(id->num_candidates);
      errors.push_back(realized(*id, qi, irng));
    }
    std::string label =
        rate >= 1.0 ? "full sample"
                    : (rate < 0 ? "auto (1/4^d)"
                                : StrFormat("subsample %.3g", rate));
    PrintRow({label, Pct(Median(errors)),
              FormatDuration(total_time / static_cast<double>(queries->size())),
              StrFormat("%.0f", total_scored /
                                    static_cast<double>(queries->size()))},
             widths);
  }

  // (2) P- vs brute force over all of P+ (on a smaller cube so P+ is
  // tractable: (13 choose 2)^2-ish candidates).
  std::printf("\nLemma 3 check: P- vs exhaustive P+ (smaller 12x8 cube)\n");
  Precomputer small_pre(table.get(), &*sample, 10, {.forced_shape = {12, 8}});
  auto small = std::move(small_pre.Precompute(tmpl.condition_columns, 96))
                   .value();
  IdentificationOptions full_opts;
  full_opts.score_on_full_sample = true;
  Rng brng(300);
  AggregateIdentifier ident(small.cube.get(), &*sample, full_opts, brng);
  double fast_total = 0, brute_total = 0, fast_err = 0, brute_err = 0;
  size_t fast_cands = 0, brute_cands = 0;
  size_t compared = std::min<size_t>(queries->size(), 25);
  for (size_t qi = 0; qi < compared; ++qi) {
    Timer t1;
    auto fast = ident.Identify((*queries)[qi], brng);
    fast_total += t1.ElapsedSeconds();
    Timer t2;
    auto brute = ident.IdentifyBruteForce((*queries)[qi], brng);
    brute_total += t2.ElapsedSeconds();
    AQPP_CHECK_OK(fast.status());
    AQPP_CHECK_OK(brute.status());
    fast_err += fast->scored_error;
    brute_err += brute->scored_error;
    fast_cands += fast->num_candidates;
    brute_cands += brute->num_candidates;
  }
  std::printf(
      "  P-          : avg %zu candidates, %s/query, total scored error %.4g\n",
      fast_cands / compared,
      FormatDuration(fast_total / static_cast<double>(compared)).c_str(),
      fast_err);
  std::printf(
      "  brute force : avg %zu candidates, %s/query, total scored error %.4g\n",
      brute_cands / compared,
      FormatDuration(brute_total / static_cast<double>(compared)).c_str(),
      brute_err);
  std::printf("  error ratio P-/brute = %.4f (1.0 = no loss)\n",
              fast_err / std::max(1e-12, brute_err));

  std::printf(
      "\nExpected shape: subsampled scoring matches full-sample scoring "
      "within noise at a\nfraction of the time; P- matches exhaustive P+ "
      "while scoring ~100x fewer candidates.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace aqpp

int main() { return aqpp::bench::Run(); }
