#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace aqpp {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // Avoid the all-zero state (xoshiro fixed point).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  AQPP_DCHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  uint64_t draw = span == 0 ? Next() : NextBounded(span);
  return lo + static_cast<int64_t>(draw);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Guard against log(0).
  if (u1 <= 0) u1 = 0x1.0p-53;
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xa3c59ac2ULL); }

std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k, Rng& rng) {
  AQPP_CHECK_LE(k, n);
  // For dense draws a shuffle-prefix is cheaper than Floyd's hashing.
  if (k * 3 >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    // Partial Fisher-Yates: fix positions [0, k).
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(rng.NextBounded(n - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    std::sort(all.begin(), all.end());
    return all;
  }
  std::unordered_set<size_t> chosen;
  chosen.reserve(k * 2);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(rng.NextBounded(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  std::vector<size_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aqpp
