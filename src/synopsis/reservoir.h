// ReservoirSynopsis: the sample-backed estimator behind the Synopsis
// interface.
//
// "reservoir" is the engines' default: BuildFromSample adopts the engine's
// own sample (any sampling method) by sharing its rows, and every estimate
// runs through SampleEstimator over those rows, so the synopsis answers
// exactly what SampleEstimator answers over the engine sample — including
// every bootstrap draw, RNG-step-for-step.
//
// "reservoir_closed" shares the sample but swaps interval construction to
// the closed-form skew-adjusted delta method (synopsis/closed_form.h):
// distribution-sensitive like the bootstrap, deterministic and O(n) like
// the CLT.

#ifndef AQPP_SYNOPSIS_RESERVOIR_H_
#define AQPP_SYNOPSIS_RESERVOIR_H_

#include <memory>
#include <string>
#include <vector>

#include "synopsis/synopsis.h"

namespace aqpp {
namespace synopsis {

class ReservoirSynopsis : public Synopsis {
 public:
  ReservoirSynopsis(std::string kind, SynopsisOptions options);

  const char* kind() const override { return kind_.c_str(); }

  Status BuildFromTable(const Table& table) override;
  // Shares the sample's rows ("reservoir" accepts any sampling method,
  // "reservoir_closed" uniform ones). Absorb copies them before its first
  // overwrite, so the source sample is never mutated.
  Status BuildFromSample(const Sample& sample) override;

  Result<ConfidenceInterval> Estimate(const RangeQuery& query,
                                      const ExecuteControl& control,
                                      Rng& rng) const override;
  Result<ConfidenceInterval> EstimateWithPre(const RangeQuery& query,
                                             const RangePredicate& pre_predicate,
                                             const PreValues& pre,
                                             const ExecuteControl& control,
                                             Rng& rng) const override;
  Result<ConfidenceInterval> EstimateWithPreMasked(
      const RangeQuery& query, const std::vector<uint8_t>& q_mask,
      const std::vector<uint8_t>& pre_mask, const PreValues& pre,
      const ExecuteControl& control, Rng& rng) const override;

  Status Absorb(const Table& batch) override;
  Status Degrade(double keep_fraction, Rng& rng) override;

  Status SerializeTo(std::string* out) const override;
  Status DeserializeFrom(const std::string& bytes) override;

  size_t MemoryUsage() const override;

  const Sample& sample() const { return sample_; }
  size_t rows_seen() const { return rows_seen_; }

 private:
  bool closed_form() const {
    return options_.ci_method == SynopsisOptions::CiMethod::kClosedForm;
  }
  // SampleEstimator over the rows, sharing the measure cache.
  SampleEstimator Estimator(obs::QueryTrace* trace) const;
  // Widens `ci` by the accumulated Degrade inflation (identity untouched
  // when no Degrade happened, preserving bit-parity with SampleEstimator).
  ConfidenceInterval Inflate(ConfidenceInterval ci) const;
  // Closed-form replacements for the estimator's per-aggregate paths.
  Result<ConfidenceInterval> ClosedFormMasked(
      const RangeQuery& query, const std::vector<uint8_t>& q_mask,
      const std::vector<uint8_t>* pre_mask, const PreValues& pre) const;

  std::string kind_;
  Sample sample_;
  // Algorithm R continuation counter (population rows represented).
  size_t rows_seen_ = 0;
  // Stream for Absorb's replacement decisions; re-derived deterministically
  // on deserialize (options_.seed mixed with rows_seen_).
  Rng absorb_rng_;
  mutable std::unique_ptr<MeasureCache> measure_cache_;
};

}  // namespace synopsis
}  // namespace aqpp

#endif  // AQPP_SYNOPSIS_RESERVOIR_H_
