// Confidence-interval primitives (Section 4.1/4.2 of the paper).

#ifndef AQPP_STATS_CONFIDENCE_H_
#define AQPP_STATS_CONFIDENCE_H_

#include <cmath>
#include <string>

namespace aqpp {

// Inverse standard-normal CDF, Phi^{-1}(p) for p in (0,1).
// Acklam's rational approximation (|rel err| < 1.2e-9).
double InverseNormalCdf(double p);

// The CLT multiplier lambda for a two-sided confidence interval at `level`
// (e.g. level=0.95 -> 1.959964). Matches the paper's lambda in Example 1.
double NormalCriticalValue(double level);

// lambda * sqrt(var) for a variance that rounding may leave slightly below
// zero: a negative variance clamps to 0, a NaN one stays NaN
// (std::max(0.0, NaN) would read 0 and report a NaN estimate as certain).
inline double HalfWidthFromVariance(double lambda, double var) {
  return lambda * std::sqrt(var < 0.0 ? 0.0 : var);
}

// An interval estimate `estimate ± half_width` at confidence `level`.
struct ConfidenceInterval {
  double estimate = 0.0;
  double half_width = 0.0;
  double level = 0.95;

  double lower() const { return estimate - half_width; }
  double upper() const { return estimate + half_width; }
  bool Contains(double truth) const {
    return truth >= lower() && truth <= upper();
  }
  // The paper's `error(q, pre)`: half the CI width.
  double error() const { return half_width; }
  // Relative error epsilon / |truth| used throughout Section 7.
  double RelativeErrorVs(double truth) const;

  std::string ToString() const;
};

}  // namespace aqpp

#endif  // AQPP_STATS_CONFIDENCE_H_
