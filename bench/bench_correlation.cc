// Section 4.2 ablation — the "back of the envelope analysis", measured.
//
// Var(q̂ - p̂re) = Var(q̂) + Var(p̂re) - 2 Cov(q̂, p̂re): as the overlap
// between the query and the precomputed aggregate grows, Cov grows and the
// AQP++ interval shrinks below the AQP interval; when the overlap is zero,
// the variances *add* and AQP++ (forced to use that pre) is worse than AQP.
// This bench sweeps the overlap fraction and reports measured interval
// widths plus empirical Cov across repeated sample draws.

#include <cmath>

#include "bench_util.h"
#include "common/string_util.h"
#include "sampling/samplers.h"
#include "stats/descriptive.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace bench {
namespace {

int Run() {
  const size_t rows = std::min<size_t>(BenchRows(), 400'000);
  auto table = LoadTpcdSkew(rows);
  ExactExecutor executor(table.get());

  // Query on l_shipdate: fixed width 400 days starting at 600.
  const int64_t q_lo = 600, q_hi = 999;
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 10;
  q.predicate.Add({7, q_lo, q_hi});
  double truth = *executor.Execute(q);

  PrintHeader(
      "Section 4.2 ablation: pre/query correlation vs interval width",
      StrFormat("rows=%zu  query=SUM(l_extendedprice) l_shipdate in "
                "[%lld, %lld]  sample=1%%",
                rows, static_cast<long long>(q_lo),
                static_cast<long long>(q_hi)));
  std::vector<int> widths = {10, 14, 14, 12, 14};
  PrintRow({"overlap", "width AQP", "width AQP++", "ratio", "corr(q̂,p̂re)"},
           widths);
  PrintRule(widths);

  Rng rng(111);
  for (double overlap : {1.0, 0.9, 0.75, 0.5, 0.25, 0.0}) {
    // pre covers the top `overlap` fraction of the query range, then extends
    // past it so |pre| = |q| (keeping Var(p̂re) comparable).
    int64_t width = q_hi - q_lo + 1;
    int64_t shift = static_cast<int64_t>((1.0 - overlap) * width);
    RangeQuery pre_q;
    pre_q.func = AggregateFunction::kSum;
    pre_q.agg_column = 10;
    pre_q.predicate.Add({7, q_lo + shift, q_hi + shift});
    double pre_truth = *executor.Execute(pre_q);

    // Repeated draws: measure widths and the empirical correlation between
    // the two direct estimators.
    std::vector<double> aqp_widths, aqpp_widths, q_hats, pre_hats;
    constexpr int kDraws = 30;
    for (int d = 0; d < kDraws; ++d) {
      auto s = CreateUniformSample(*table, 0.01, rng);
      AQPP_CHECK_OK(s.status());
      SampleEstimator est(&*s);
      auto direct = est.EstimateDirect(q, rng);
      auto with_pre = est.EstimateWithPre(q, pre_q.predicate,
                                          PreValues{pre_truth, 0, 0}, rng);
      auto pre_direct = est.EstimateDirect(pre_q, rng);
      AQPP_CHECK_OK(direct.status());
      AQPP_CHECK_OK(with_pre.status());
      AQPP_CHECK_OK(pre_direct.status());
      aqp_widths.push_back(direct->half_width);
      aqpp_widths.push_back(with_pre->half_width);
      q_hats.push_back(direct->estimate);
      pre_hats.push_back(pre_direct->estimate);
    }
    // Empirical correlation of the two estimators across draws.
    double mq = Mean(q_hats), mp = Mean(pre_hats);
    double cov = 0, vq = 0, vp = 0;
    for (int d = 0; d < kDraws; ++d) {
      cov += (q_hats[d] - mq) * (pre_hats[d] - mp);
      vq += (q_hats[d] - mq) * (q_hats[d] - mq);
      vp += (pre_hats[d] - mp) * (pre_hats[d] - mp);
    }
    double corr = cov / std::sqrt(std::max(1e-12, vq * vp));

    double aqp_w = Mean(aqp_widths);
    double aqpp_w = Mean(aqpp_widths);
    std::string ratio = aqpp_w < aqp_w * 1e-6
                            ? "exact"
                            : StrFormat("%.2fx", aqp_w / aqpp_w);
    PrintRow({StrFormat("%.0f%%", overlap * 100),
              StrFormat("%.3g", aqp_w), StrFormat("%.3g", aqpp_w),
              ratio, StrFormat("%+.2f", corr)},
             widths);
  }
  std::printf("\n(query truth = %.4g; widths are mean 95%% CI half-widths "
              "over %d sample draws)\n", truth, 30);
  std::printf(
      "Expected shape: at 100%% overlap AQP++ is exact; the advantage decays "
      "with overlap;\nat 0%% overlap Var(p̂re) adds with no covariance and "
      "AQP++ (forced pre) is WORSE than AQP\n— exactly why aggregate "
      "identification includes phi.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace aqpp

int main() { return aqpp::bench::Run(); }
