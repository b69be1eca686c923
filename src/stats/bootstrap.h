// Support-sparse percentile bootstrap (Section 4.1/4.2.2 of the paper).
//
// A bootstrap resample of an n-row sample draws n row indices uniformly with
// replacement. The AQP/AQP++ statistics ignore every row outside a support
// of k rows: for the difference estimator, the rows in the query box or the
// pre box but not both; every other row contributes an exact zero. Only the
// draws that land on the support matter. Their number is Binomial(n, k/n),
// and given that number they are iid uniform over the support, in draw
// order. So a resample draws K ~ Binomial(n, k/n) and then K uniform picks
// over the support: O(k) work instead of O(n), under exactly the resampling
// distribution of the dense n-draw loop.

#ifndef AQPP_STATS_BOOTSTRAP_H_
#define AQPP_STATS_BOOTSTRAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/random.h"

namespace aqpp {

// Draws bootstrap resamples of an n-row sample restricted to a k-row support.
// Every production bootstrap CI draws through one of these. The hit count
// comes from std::binomial_distribution (an exact sampler, not a normal
// approximation) fed Rng's 64-bit words; it may carry state between draws,
// so each CI constructs a fresh resampler.
class SupportResampler {
 public:
  // Requires k <= n. Records k in the aqpp_bootstrap_support_rows histogram
  // (one observation per bootstrap CI).
  SupportResampler(size_t n, size_t k);

  // Draws one resample: calls pick(j), j in [0, k), once per draw that lands
  // on the support, in draw order. With k == 0 it consumes no randomness.
  // Picking and accumulating in one loop lets the RNG chain and the
  // caller's accumulation chain overlap.
  template <typename Pick>
  void Draw(Rng& rng, Pick&& pick) {
    if (k_ == 0) return;
    const uint64_t hits = DrawHits(rng);
    for (uint64_t d = 0; d < hits; ++d) {
      pick(static_cast<size_t>(rng.NextBounded(k_)));
    }
  }

 private:
  // libstdc++'s binomial sampler calls lgamma, which writes the global
  // `signgam`, both when the distribution is built and inside a draw.
  // Construction and every draw therefore run under one process-wide mutex;
  // the draws themselves are unchanged.
  uint64_t DrawHits(Rng& rng);

  size_t k_;
  std::binomial_distribution<uint64_t> hits_;
};

// W paired per-row contribution series compacted to their support: the rows
// where some series is not ±0 (NaN counts as support), in ascending row
// order. A dropped row adds an exact zero to every resample sum, and a sum
// that starts at +0.0 never turns into -0.0, so sums over the support are
// bit-identical to sums over all n rows.
template <size_t W>
class SupportSeries {
 public:
  using Row = std::array<double, W>;

  // `n` is the full sample size, support included.
  explicit SupportSeries(size_t n) : n_(n) {}

  // Appends the next row's contributions (rows must arrive in ascending
  // row order); an all-±0 row is dropped.
  void Push(const Row& v) {
    for (double x : v) {
      if (!(x == 0.0)) {
        rows_.push_back(v);
        return;
      }
    }
  }

  size_t k() const { return rows_.size(); }
  const Row& operator[](size_t j) const { return rows_[j]; }

  // Full-sample sums of each series, accumulated in row order.
  Row Sums() const {
    Row sums{};
    for (const Row& r : rows_) Add(sums, r);
    return sums;
  }

  // `resamples` bootstrap replicates of stat(resample sums).
  template <typename Stat>
  std::vector<double> Resample(const Stat& stat, size_t resamples,
                               Rng& rng) const {
    SupportResampler resampler(n_, rows_.size());
    std::vector<double> estimates(resamples);
    for (double& e : estimates) {
      Row sums{};
      resampler.Draw(rng, [&](size_t j) { Add(sums, rows_[j]); });
      e = stat(sums);
    }
    return estimates;
  }

 private:
  static void Add(Row& sums, const Row& v) {
    for (size_t s = 0; s < W; ++s) sums[s] += v[s];
  }

  size_t n_;
  std::vector<Row> rows_;
};

// Percentile-method half-width (q_{1-alpha/2} - q_{alpha/2}) / 2 of the
// bootstrap replicates, alpha = 1 - level, with linear interpolation between
// order statistics.
double PercentileHalfWidth(std::vector<double> estimates, double level);

}  // namespace aqpp

#endif  // AQPP_STATS_BOOTSTRAP_H_
