// Aggregate identification (Problem 1, Section 5).
//
// Given a user query and a BP-Cube, pick the precomputed aggregate in P+
// that minimizes the query's confidence-interval width. Per Lemma 3 /
// Equation 7, only the 4^d + 1 candidates P- formed by the partition points
// bracketing each range endpoint need to be considered; each candidate is
// scored by estimating its CI on a cheap subsample (Section 5.2), and the
// winner is used for the final full-sample estimate.
//
// Scoring runs through the batched pipeline of core/scoring.h: the query
// mask and measure column are computed once per query, candidate supports
// are derived from a cell-id matrix over the scoring subsample, and
// candidates are scored concurrently on the persistent thread pool. Every
// candidate's RNG is seeded by CandidateSeed, a pure function of (query base
// seed, candidate box), so results are bit-identical regardless of thread
// count or schedule. The per-candidate reference scorer these scores are tested
// against lives in tests/identification_oracle.h.

#ifndef AQPP_CORE_IDENTIFICATION_H_
#define AQPP_CORE_IDENTIFICATION_H_

#include <map>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "core/scoring.h"
#include "cube/partition.h"
#include "cube/prefix_cube.h"
#include "expr/query.h"
#include "obs/trace.h"
#include "sampling/sample.h"
#include "synopsis/estimator.h"

namespace aqpp {

struct IdentificationOptions {
  // Subsampling rate for candidate scoring. <= 0 means "auto": 1/4^d, so
  // the total scoring work (|P-| * subsample rows) stays below one pass over
  // the full sample (Section 5.2), floored at 512 rows so the variance
  // estimates stay usable, and capped at the whole sample.
  double subsample_rate = -1.0;
  double confidence_level = 0.95;
  // When true, score candidates on the full sample instead of a subsample
  // (exact error(q, pre); used by tests and the brute-force comparison).
  bool score_on_full_sample = false;
  // Largest |P-| that is enumerated and scored in full. Above it,
  // identification falls back to greedy per-dimension bracket selection
  // (O(4d) candidates instead of O(4^d)), which keeps it tractable at
  // d ~ 10 (Figure 7's upper range). The default enumerates through d = 4
  // (4^4 + 1 = 257 candidates).
  size_t max_enumerated_candidates = 320;
  // Thread pool for parallel candidate scoring; nullptr uses the
  // process-global pool. Tests inject fixed-size pools here to assert
  // schedule independence.
  ThreadPool* scoring_pool = nullptr;
};

// Deterministic per-candidate RNG seed: SplitMix64-mixes the candidate box
// into the query's base seed (one Rng::Next() per scoring sweep). A
// candidate's score is therefore a pure function of (base_seed, box): it
// does not depend on which thread scores the box, in what order, or whether
// a memo hit skipped it, which is what makes parallel identification
// bit-identical to sequential.
uint64_t CandidateSeed(uint64_t base_seed, const PreAggregate& pre);

struct IdentifiedAggregate {
  PreAggregate pre;
  // Exact cube values of the box (sum / count / sum of squares).
  PreValues values;
  // The subsample-estimated error that won the comparison.
  double scored_error = 0.0;
  // Candidate-set size actually scored (|P-| after dedup and memoization).
  size_t num_candidates = 0;
};

// One candidate with its subsample-estimated error (EXPLAIN output).
struct ScoredCandidate {
  PreAggregate pre;
  double scored_error = 0.0;
};

class AggregateIdentifier {
 public:
  // `cube` and `sample` must outlive the identifier. The subsample used for
  // scoring is drawn once at construction (it is query-independent), and
  // the scorer's cell-id matrix over it is built here too.
  AggregateIdentifier(const PrefixCube* cube, const Sample* sample,
                      IdentificationOptions options, Rng& rng);

  // Enumerates the candidate set P- of Equation 7 for `query` (deduplicated;
  // phi always included). Conditions on columns that are not cube dimensions
  // are ignored for bracketing (the pre box never constrains them).
  std::vector<PreAggregate> EnumerateCandidates(const RangeQuery& query) const;

  // Full identification: enumerate P-, score each candidate's CI width on
  // the subsample, return the argmin. `trace`, when non-null, receives
  // kScoring spans around the batched scoring sweeps and one kCubeProbe
  // span around the winner's cube read; the matching global phase
  // histograms are observed either way.
  Result<IdentifiedAggregate> Identify(const RangeQuery& query, Rng& rng,
                                       obs::QueryTrace* trace = nullptr) const;

  // Scores the whole candidate set and returns it sorted best-first
  // (EXPLAIN support). Falls back to the greedy path's visited candidates
  // at high d.
  Result<std::vector<ScoredCandidate>> ScoreAll(const RangeQuery& query,
                                                Rng& rng) const;

  // Reference implementation for tests: scores *every* value in P+ on the
  // full sample (exponential in the cuts; only safe for tiny cubes).
  Result<IdentifiedAggregate> IdentifyBruteForce(const RangeQuery& query,
                                                 Rng& rng) const;

  // 0/1 mask of `pre` over the *full* estimation sample:
  // pre.ToPredicate(scheme) through RangePredicate::EvaluateMask, the same
  // predicate kernel that builds the query mask. Feeds the identified box
  // into SampleEstimator::EstimateWithPreMasked.
  std::vector<uint8_t> PreMaskOnSample(const PreAggregate& pre) const;

  const Sample& scoring_sample() const { return scoring_sample_; }
  const Sample& sample() const { return *sample_; }
  const PrefixCube& cube() const { return *cube_; }

 private:
  // Memoized candidate scores within one query, keyed by (lo || hi).
  using ScoreMemo = std::map<std::vector<size_t>, double>;

  // Reads all measure planes of `pre` from the cube.
  PreValues ReadPreValues(const PreAggregate& pre) const;

  // Scores every candidate in `cands` against the prepared query context,
  // memoizing by box within the query and scoring unmemoized boxes in
  // parallel on the pool. `memo` may be nullptr when the batch is known to
  // be deduplicated (skips the key/map machinery). Deterministic either way:
  // each box's RNG is seeded by CandidateSeed(base_seed, box), so memo hits,
  // dedup and scheduling can never change a score.
  Result<std::vector<double>> ScoreBatch(
      const BatchCandidateScorer::QueryContext& ctx,
      const std::vector<PreAggregate>& cands, uint64_t base_seed,
      ScoreMemo* memo) const;

  // Per-dimension bracket candidates (the {l,h} pairs of Equation 7).
  void BracketQuery(const RangeQuery& query,
                    std::vector<std::vector<size_t>>* u_cands,
                    std::vector<std::vector<size_t>>* v_cands) const;

  // True when |P-| exceeds options_.max_enumerated_candidates, so `query`
  // is identified by the greedy path instead of full enumeration.
  bool UsesGreedy(const RangeQuery& query) const;

  // Greedy fallback for high d: fixes one dimension's bracket pair at a
  // time, scoring each option on the subsample (scores memoized per query).
  Result<IdentifiedAggregate> IdentifyGreedy(
      const RangeQuery& query, const BatchCandidateScorer::QueryContext& ctx,
      Rng& rng, obs::QueryTrace* trace) const;

  const PrefixCube* cube_;
  const Sample* sample_;
  IdentificationOptions options_;
  Sample scoring_sample_;
  // Batched scorer over the scoring subsample.
  std::unique_ptr<BatchCandidateScorer> scorer_;
};

}  // namespace aqpp

#endif  // AQPP_CORE_IDENTIFICATION_H_
