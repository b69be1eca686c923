// Closed-form, distribution-sensitive confidence intervals.
//
// The percentile bootstrap (stats/bootstrap.h) adapts to skew automatically
// but costs resamples × k work (k = support rows) and consumes RNG draws.
// These constructors get the same sensitivity analytically: a CLT interval
// widened by a third-moment (Johnson/Edgeworth) correction term, so
// heavy-tailed measure distributions produce wider intervals than the plain
// normal approximation would — at closed-form cost and with zero
// randomness.
//
// All three take dense per-row series holding the same per-row values as
// the support series the bootstrap CI constructors in synopsis/estimator.h
// take (AvgContribution / VarContribution, zeros included). The widening
// is additive on |mu3|, so a closed-form interval is never tighter than its
// plain CLT counterpart.

#ifndef AQPP_SYNOPSIS_CLOSED_FORM_H_
#define AQPP_SYNOPSIS_CLOSED_FORM_H_

#include <vector>

#include "stats/confidence.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace synopsis {

// CI for a population sum from expansion contributions z_i (z_i = n w_i y_i;
// estimate = mean(z), Var = s^2(z)/n). Skew-adjusted:
//   half = lambda * s/sqrt(n)  +  (1 + 2 lambda^2) |mu3| / (6 s^2 n)
// where mu3 is the third central moment of z (Johnson 1978's t-correction,
// applied as a symmetric widening).
ConfidenceInterval ClosedFormSumCI(const std::vector<double>& z, double level);

// CI for the ratio (pre.sum + S)/(pre.count + C) where S, C are estimated
// from per-row weighted contributions (s_contrib[i] = w_i A_i d_i,
// c_contrib[i] = w_i d_i — AvgContribution's values for every row).
// Delta method on the linearized series u_i = (z_s,i - R z_c,i)/den, with
// the same skew widening applied to u. Pass PreValues{} for the direct
// (no-precomputation) AVG.
ConfidenceInterval ClosedFormRatioCI(const std::vector<double>& s_contrib,
                                     const std::vector<double>& c_contrib,
                                     const PreValues& pre, double level);

// CI for VAR = (pre.sum_sq + S2)/T - ((pre.sum + S)/T)^2, T = pre.count + C,
// from the three contribution series of VarContribution, every row. Delta
// method with gradients (gq, gs, gc) on the linearized combination, plus the
// skew widening.
ConfidenceInterval ClosedFormVarCI(const std::vector<double>& s2_contrib,
                                   const std::vector<double>& s_contrib,
                                   const std::vector<double>& c_contrib,
                                   const PreValues& pre, double level);

}  // namespace synopsis
}  // namespace aqpp

#endif  // AQPP_SYNOPSIS_CLOSED_FORM_H_
