// The stratified estimation fold shared by StratifiedSynopsis and
// GroupedSynopsis — one implementation of "the shard fold contract"
// (src/shard/partial.cc's kSample merge):
//
//   SUM/COUNT   est = sum_h N_h mean_h(series),
//               Var = sum_h N_h^2 s_h^2(series) / n_h
//   AVG/VAR     delta method on the merged (c, s, q) totals with
//               per-stratum variance/covariance terms weighted N_h^2 / n_h
//
// Every stratum contributes three per-row series evaluated on its sample
// rows: c_i = d_i, s_i = A_i d_i, q_i = A_i^2 d_i, where d_i is the
// (difference-)predicate indicator in {-1, 0, 1} and A_i the measure. The
// fold is closed-form — no RNG — so callers are reproducible across thread
// counts by construction.

#ifndef AQPP_SYNOPSIS_STRATA_FOLD_H_
#define AQPP_SYNOPSIS_STRATA_FOLD_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "expr/query.h"
#include "stats/confidence.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace synopsis {

// One stratum's population size and per-sample-row series.
struct StratumSeries {
  double population = 0;  // N_h
  std::vector<double> c;  // predicate indicator per row
  std::vector<double> s;  // A * indicator
  std::vector<double> q;  // A^2 * indicator
};

// Folds the strata into a point + CI for `func` (kSum/kCount/kAvg/kVar).
// `pre` carries the precomputed offsets (zeros for the direct case);
// `level` the confidence level. Strata with no sample rows contribute
// nothing; single-row strata contribute their estimate with zero variance.
inline ConfidenceInterval FoldStrata(AggregateFunction func,
                                     const std::vector<StratumSeries>& strata,
                                     const PreValues& pre, double level) {
  const double lambda = NormalCriticalValue(level);
  ConfidenceInterval ci;
  ci.level = level;

  struct Moments {
    double n = 0;
    double mean_c = 0, mean_s = 0, mean_q = 0;
    double var_c = 0, var_s = 0, var_q = 0;
    double cov_cs = 0, cov_cq = 0, cov_sq = 0;
  };
  std::vector<Moments> folds(strata.size());
  for (size_t h = 0; h < strata.size(); ++h) {
    const StratumSeries& st = strata[h];
    Moments& f = folds[h];
    f.n = static_cast<double>(st.c.size());
    if (st.c.empty()) continue;
    double sc = 0, ss = 0, sq = 0;
    for (size_t i = 0; i < st.c.size(); ++i) {
      sc += st.c[i];
      ss += st.s[i];
      sq += st.q[i];
    }
    f.mean_c = sc / f.n;
    f.mean_s = ss / f.n;
    f.mean_q = sq / f.n;
    if (st.c.size() < 2) continue;
    double mcc = 0, mss = 0, mqq = 0, mcs = 0, mcq = 0, msq = 0;
    for (size_t i = 0; i < st.c.size(); ++i) {
      const double dc = st.c[i] - f.mean_c;
      const double ds = st.s[i] - f.mean_s;
      const double dq = st.q[i] - f.mean_q;
      mcc += dc * dc;
      mss += ds * ds;
      mqq += dq * dq;
      mcs += dc * ds;
      mcq += dc * dq;
      msq += ds * dq;
    }
    const double bessel = f.n - 1;  // sample (Bessel-corrected) moments
    f.var_c = mcc / bessel;
    f.var_s = mss / bessel;
    f.var_q = mqq / bessel;
    f.cov_cs = mcs / bessel;
    f.cov_cq = mcq / bessel;
    f.cov_sq = msq / bessel;
  }

  if (func == AggregateFunction::kSum || func == AggregateFunction::kCount) {
    double est = 0, var = 0;
    for (size_t h = 0; h < folds.size(); ++h) {
      const Moments& f = folds[h];
      if (f.n == 0) continue;
      const double num_pop = strata[h].population;
      const double mean =
          func == AggregateFunction::kSum ? f.mean_s : f.mean_c;
      const double v = func == AggregateFunction::kSum ? f.var_s : f.var_c;
      est += num_pop * mean;
      var += num_pop * num_pop * v / f.n;
    }
    ci.estimate = est + (func == AggregateFunction::kSum ? pre.sum : pre.count);
    ci.half_width = HalfWidthFromVariance(lambda, var);
    return ci;
  }

  // AVG / VAR: delta method on the merged totals.
  double chat = pre.count, shat = pre.sum, qhat = pre.sum_sq;
  double vc = 0, vs = 0, vq = 0, ccs = 0, ccq = 0, csq = 0;
  for (size_t h = 0; h < folds.size(); ++h) {
    const Moments& f = folds[h];
    if (f.n == 0) continue;
    const double num_pop = strata[h].population;
    const double w = num_pop * num_pop / f.n;
    chat += num_pop * f.mean_c;
    shat += num_pop * f.mean_s;
    qhat += num_pop * f.mean_q;
    vc += w * f.var_c;
    vs += w * f.var_s;
    vq += w * f.var_q;
    ccs += w * f.cov_cs;
    ccq += w * f.cov_cq;
    csq += w * f.cov_sq;
  }
  if (chat <= 0) {
    // No matching rows observed anywhere: mirror the single-estimator guard.
    ci.estimate = 0.0;
    ci.half_width = 0.0;
    return ci;
  }
  const double ratio = shat / chat;
  double est = 0, var = 0;
  if (func == AggregateFunction::kAvg) {
    est = ratio;
    var = (vs - 2.0 * ratio * ccs + ratio * ratio * vc) / (chat * chat);
  } else {  // kVar
    est = std::max(0.0, qhat / chat - ratio * ratio);
    const double gq = 1.0 / chat;
    const double gs = -2.0 * shat / (chat * chat);
    const double gc = (-qhat + 2.0 * shat * ratio) / (chat * chat);
    var = gq * gq * vq + gs * gs * vs + gc * gc * vc + 2.0 * gc * gs * ccs +
          2.0 * gc * gq * ccq + 2.0 * gs * gq * csq;
  }
  ci.estimate = est;
  ci.half_width = HalfWidthFromVariance(lambda, var);
  return ci;
}

}  // namespace synopsis
}  // namespace aqpp

#endif  // AQPP_SYNOPSIS_STRATA_FOLD_H_
