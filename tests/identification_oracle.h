// Identification oracle: aggregate identification with the per-candidate
// scorer the batched pipeline (core/scoring.h) replaced. Every candidate is
// scored by SampleEstimator::EstimateWithPre over the identifier's scoring
// sample, re-evaluating the query and box predicates from scratch, with the
// RNG seeded per box by SeedFor, an independent transcription of the
// SplitMix64 mix that CandidateSeed documents, so a change to the
// production seed shows up as a score mismatch. The control flow (full
// enumeration of P- or the greedy per-dimension refinement, one base seed
// per sweep) mirrors AggregateIdentifier::Identify and ScoreAll, so tests
// can hold the batched scorer to equal winners and equal scores, and
// bench_micro times it as the legacy baseline. Not linked into any
// production target.
//
// `options` must be the IdentificationOptions the identifier was built
// with; only confidence_level and max_enumerated_candidates are read.

#ifndef AQPP_TESTS_IDENTIFICATION_ORACLE_H_
#define AQPP_TESTS_IDENTIFICATION_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/identification.h"
#include "cube/partition.h"
#include "cube/prefix_cube.h"
#include "expr/query.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace oracle {

// Exact cube values of `pre` (plane 0 = SUM, 1 = COUNT, 2 = SUM of squares).
inline PreValues CubeValues(const PrefixCube& cube, const PreAggregate& pre) {
  PreValues v;
  if (cube.num_measures() > 0) v.sum = cube.BoxValue(pre, 0);
  if (cube.num_measures() > 1) v.count = cube.BoxValue(pre, 1);
  if (cube.num_measures() > 2) v.sum_sq = cube.BoxValue(pre, 2);
  return v;
}

inline PreAggregate Phi(size_t d) {
  PreAggregate p;
  p.lo.assign(d, 0);
  p.hi.assign(d, 0);
  return p;
}

// Per-candidate seed: SplitMix64 steps over the box's lo then hi indices,
// starting from the sweep's base seed (the CandidateSeed contract).
inline uint64_t SeedFor(uint64_t base_seed, const PreAggregate& pre) {
  uint64_t h = base_seed;
  std::vector<size_t> coords = pre.lo;
  coords.insert(coords.end(), pre.hi.begin(), pre.hi.end());
  for (size_t v : coords) {
    h += 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(v);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

// CI half-width of `query` against `pre` on the scoring sample: one fresh
// estimator pass per candidate.
inline Result<double> ScoreCandidate(const AggregateIdentifier& ident,
                                     const IdentificationOptions& options,
                                     const RangeQuery& query,
                                     const PreAggregate& pre,
                                     uint64_t base_seed) {
  Rng rng(SeedFor(base_seed, pre));
  SampleEstimator estimator(&ident.scoring_sample(),
                            {.confidence_level = options.confidence_level,
                             .bootstrap_resamples = 40});
  AQPP_ASSIGN_OR_RETURN(
      auto ci,
      estimator.EstimateWithPre(query, pre.ToPredicate(ident.cube().scheme()),
                                CubeValues(ident.cube(), pre), rng));
  return ci.half_width;
}

// Per-dimension bracket indices of the query's endpoints (the {l, h} pairs
// of Equation 7): lower-bound candidates in (*u)[i], upper in (*v)[i].
inline void Brackets(const PartitionScheme& scheme, const RangeQuery& query,
                     std::vector<std::vector<size_t>>* u,
                     std::vector<std::vector<size_t>>* v) {
  const size_t d = scheme.num_dims();
  u->assign(d, {});
  v->assign(d, {});
  for (size_t i = 0; i < d; ++i) {
    const DimensionPartition& dim = scheme.dim(i);
    int64_t lo = std::numeric_limits<int64_t>::min();
    int64_t hi = std::numeric_limits<int64_t>::max();
    for (const auto& c : query.predicate.conditions()) {
      if (c.column == dim.column) {
        lo = std::max(lo, c.lo);
        hi = std::min(hi, c.hi);
      }
    }
    auto pair = [](size_t l, size_t h) {
      return l == h ? std::vector<size_t>{l} : std::vector<size_t>{l, h};
    };
    (*u)[i] = lo == std::numeric_limits<int64_t>::min()
                  ? std::vector<size_t>{0}
                  : pair(dim.LowerBracket(lo - 1), dim.UpperBracket(lo - 1));
    (*v)[i] = hi == std::numeric_limits<int64_t>::max()
                  ? std::vector<size_t>{dim.num_cuts()}
                  : pair(dim.LowerBracket(hi), dim.UpperBracket(hi));
  }
}

// True when |P-| exceeds the enumeration budget.
inline bool UsesGreedy(const AggregateIdentifier& ident,
                       const IdentificationOptions& options,
                       const RangeQuery& query) {
  std::vector<std::vector<size_t>> u, v;
  Brackets(ident.cube().scheme(), query, &u, &v);
  double total = 1.0;
  for (size_t i = 0; i < u.size(); ++i) {
    total *= static_cast<double>(u[i].size() * v[i].size());
  }
  return total > static_cast<double>(options.max_enumerated_candidates);
}

// Greedy refinement: one base seed, every distinct box scored once.
inline Result<IdentifiedAggregate> IdentifyGreedy(
    const AggregateIdentifier& ident, const IdentificationOptions& options,
    const RangeQuery& query, Rng& rng) {
  const PartitionScheme& scheme = ident.cube().scheme();
  const size_t d = scheme.num_dims();
  std::vector<std::vector<size_t>> u, v;
  Brackets(scheme, query, &u, &v);
  const uint64_t base_seed = rng.Next();
  std::map<std::pair<std::vector<size_t>, std::vector<size_t>>, double> seen;
  auto score = [&](const PreAggregate& pre) -> Result<double> {
    auto key = std::make_pair(pre.lo, pre.hi);
    auto hit = seen.find(key);
    if (hit != seen.end()) return hit->second;
    AQPP_ASSIGN_OR_RETURN(
        double err, ScoreCandidate(ident, options, query, pre, base_seed));
    seen.emplace(std::move(key), err);
    return err;
  };

  PreAggregate current;
  current.lo.resize(d);
  current.hi.resize(d);
  for (size_t i = 0; i < d; ++i) {
    current.lo[i] = u[i].front();
    current.hi[i] = v[i].back();
    if (current.lo[i] >= current.hi[i]) {
      current.lo[i] = 0;
      current.hi[i] = scheme.dim(i).num_cuts();
    }
  }
  for (size_t i = 0; i < d; ++i) {
    double best_err = std::numeric_limits<double>::infinity();
    std::pair<size_t, size_t> best{current.lo[i], current.hi[i]};
    for (size_t lo : u[i]) {
      for (size_t hi : v[i]) {
        if (lo >= hi) continue;
        PreAggregate trial = current;
        trial.lo[i] = lo;
        trial.hi[i] = hi;
        AQPP_ASSIGN_OR_RETURN(double err, score(trial));
        if (err < best_err) {
          best_err = err;
          best = {lo, hi};
        }
      }
    }
    current.lo[i] = best.first;
    current.hi[i] = best.second;
  }
  AQPP_ASSIGN_OR_RETURN(double current_err, score(current));
  AQPP_ASSIGN_OR_RETURN(double phi_err, score(Phi(d)));
  IdentifiedAggregate out;
  out.pre = phi_err < current_err ? Phi(d) : current;
  out.scored_error = std::min(current_err, phi_err);
  out.values = CubeValues(ident.cube(), out.pre);
  out.num_candidates = seen.size();
  return out;
}

// Identify(): score all of P- (or go greedy) and return the first argmin.
inline Result<IdentifiedAggregate> Identify(
    const AggregateIdentifier& ident, const IdentificationOptions& options,
    const RangeQuery& query, Rng& rng) {
  if (UsesGreedy(ident, options, query)) {
    return IdentifyGreedy(ident, options, query, rng);
  }
  const std::vector<PreAggregate> candidates =
      ident.EnumerateCandidates(query);
  const uint64_t base_seed = rng.Next();
  IdentifiedAggregate out;
  double best_err = std::numeric_limits<double>::infinity();
  for (const PreAggregate& pre : candidates) {
    AQPP_ASSIGN_OR_RETURN(
        double err, ScoreCandidate(ident, options, query, pre, base_seed));
    if (err < best_err) {
      best_err = err;
      out.pre = pre;
    }
  }
  out.values = CubeValues(ident.cube(), out.pre);
  out.scored_error = best_err;
  out.num_candidates = candidates.size();
  return out;
}

// ScoreAll(): every candidate of P- with its score, best first (at high d,
// the greedy winner and phi, phi scored under a fresh base seed).
inline Result<std::vector<ScoredCandidate>> ScoreAll(
    const AggregateIdentifier& ident, const IdentificationOptions& options,
    const RangeQuery& query, Rng& rng) {
  std::vector<ScoredCandidate> scored;
  if (UsesGreedy(ident, options, query)) {
    AQPP_ASSIGN_OR_RETURN(IdentifiedAggregate greedy,
                          IdentifyGreedy(ident, options, query, rng));
    scored.push_back({greedy.pre, greedy.scored_error});
    if (!greedy.pre.IsEmpty()) {
      const uint64_t base_seed = rng.Next();
      const PreAggregate phi = Phi(ident.cube().scheme().num_dims());
      AQPP_ASSIGN_OR_RETURN(
          double err, ScoreCandidate(ident, options, query, phi, base_seed));
      scored.push_back({phi, err});
    }
  } else {
    const uint64_t base_seed = rng.Next();
    for (const PreAggregate& pre : ident.EnumerateCandidates(query)) {
      AQPP_ASSIGN_OR_RETURN(
          double err, ScoreCandidate(ident, options, query, pre, base_seed));
      scored.push_back({pre, err});
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.scored_error < b.scored_error;
            });
  return scored;
}

}  // namespace oracle
}  // namespace aqpp

#endif  // AQPP_TESTS_IDENTIFICATION_ORACLE_H_
