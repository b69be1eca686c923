// Fast, reproducible pseudo-random number generation.
//
// All randomized components of the library (samplers, generators, bootstrap)
// take an explicit `Rng&` so experiments are reproducible from a single seed.

#ifndef AQPP_COMMON_RANDOM_H_
#define AQPP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace aqpp {

// xoshiro256** with a SplitMix64 seeder. Satisfies the UniformRandomBitGenerator
// concept so it plugs into <random> distributions as well.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  // Raw 64 random bits.
  uint64_t operator()() { return Next(); }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound) using Lemire's nearly-divisionless
  // rejection method. Requires bound > 0. Inline: bootstrap resampling makes
  // millions of these draws per query.
  uint64_t NextBounded(uint64_t bound) {
    AQPP_DCHECK(bound > 0);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t t = -bound % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Bernoulli(p).
  bool NextBernoulli(double p) { return NextDouble() < p; }

  // Forks a statistically independent child generator (for parallel use).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  // Cached second Box-Muller variate.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// Fisher-Yates shuffle of `v` in place.
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.NextBounded(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

// Floyd's algorithm: k distinct indices drawn uniformly from [0, n).
// Returned sorted ascending. Requires k <= n.
std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k, Rng& rng);

}  // namespace aqpp

#endif  // AQPP_COMMON_RANDOM_H_
