#include "stats/bootstrap.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"
#include "obs/metrics.h"

namespace aqpp {

namespace {

obs::Histogram* SupportRowsHistogram() {
  static obs::Histogram* const h = obs::Registry::Global().GetHistogram(
      "aqpp_bootstrap_support_rows", "",
      {0, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576},
      "Support rows k per bootstrap CI; resampling cost scales with k.");
  return h;
}

std::mutex& LgammaMutex() {
  static std::mutex mu;
  return mu;
}

std::binomial_distribution<uint64_t> MakeHits(size_t n, size_t k) {
  std::lock_guard<std::mutex> lock(LgammaMutex());
  return std::binomial_distribution<uint64_t>(
      n, n == 0 ? 0.0 : static_cast<double>(k) / static_cast<double>(n));
}

}  // namespace

SupportResampler::SupportResampler(size_t n, size_t k)
    : k_(k), hits_(MakeHits(n, k)) {
  AQPP_CHECK_LE(k, n);
  SupportRowsHistogram()->Observe(static_cast<double>(k));
}

uint64_t SupportResampler::DrawHits(Rng& rng) {
  std::lock_guard<std::mutex> lock(LgammaMutex());
  return hits_(rng);
}

double PercentileHalfWidth(std::vector<double> estimates, double level) {
  if (estimates.empty()) return 0.0;
  std::sort(estimates.begin(), estimates.end());
  const size_t last = estimates.size() - 1;
  auto at = [&](double p) {
    const double idx = p * static_cast<double>(last);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, last);
    if (hi == lo) return estimates[lo];
    const double frac = idx - static_cast<double>(lo);
    return estimates[lo] + frac * (estimates[hi] - estimates[lo]);
  };
  const double alpha = (1.0 - level) / 2.0;
  return (at(1.0 - alpha) - at(alpha)) / 2.0;
}

}  // namespace aqpp
