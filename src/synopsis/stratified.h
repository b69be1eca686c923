// StratifiedSynopsis: per-stratum summaries over the stratified sampler.
//
// Strata are the distinct key-column value combinations (BlinkDB-style
// allocation, sampling/samplers.h). Estimation folds per-stratum moments
// exactly like the shard tier's stratified merge ("the shard fold
// contract", src/shard/partial.cc):
//   SUM/COUNT   est = sum_h N_h mean_h,  Var = sum_h N_h^2 s_h^2 / n_h
//   AVG/VAR     delta method on the merged (c, s, q) moment totals with
//               per-stratum variance/covariance terms weighted N_h^2 / n_h
// so a per-stratum synopsis over one table and a scatter-gather merge over
// shards of the same table agree on the estimator math. Estimation is fully
// closed-form: it consumes no RNG draws, making estimates trivially
// reproducible across thread counts.
//
// Absorb continues Vitter's Algorithm R independently per stratum (each
// stratum is its own reservoir with capacity n_h); batch rows whose key was
// never seen at build time are rejected before any mutation.

#ifndef AQPP_SYNOPSIS_STRATIFIED_H_
#define AQPP_SYNOPSIS_STRATIFIED_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "synopsis/synopsis.h"

namespace aqpp {
namespace synopsis {

class StratifiedSynopsis : public Synopsis {
 public:
  explicit StratifiedSynopsis(SynopsisOptions options);

  const char* kind() const override { return "stratified"; }

  Status BuildFromTable(const Table& table) override;
  // Accepts stratified samples, sharing their rows (Absorb copies first).
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
  // Refuses a batch holding a stratum key never seen at build time.
  Status ValidateAbsorb(const Table& batch) const override;
  Status Degrade(double keep_fraction, Rng& rng) override;

  Status SerializeTo(std::string* out) const override;
  Status DeserializeFrom(const std::string& bytes) override;

  size_t MemoryUsage() const override;

  const Sample& sample() const { return sample_; }

 private:
  // Shared estimation fold. `pre_mask` null means the direct (pre = phi)
  // case; `pre` then carries zeros.
  Result<ConfidenceInterval> EstimateSeries(
      const RangeQuery& query, const std::vector<uint8_t>& q_mask,
      const std::vector<uint8_t>* pre_mask, const PreValues& pre) const;

  // Absorb's validation: every batch row's stratum id, or the reason the
  // batch cannot be absorbed.
  Result<std::vector<int32_t>> StrataOf(const Table& batch) const;

  // Rebuilds key->stratum and per-stratum row-slot indexes from the sample
  // (after build, adopt, degrade, deserialize).
  void RebuildStratumIndex();

  Sample sample_;
  Rng absorb_rng_;
  // GroupKey over options_.key_columns -> stratum id (empty when the sample
  // was adopted without key columns configured; Absorb then refuses).
  std::unordered_map<GroupKey, int32_t, GroupKeyHash> key_to_stratum_;
  // Per stratum: indexes of its rows in sample_.rows (row order).
  std::vector<std::vector<size_t>> stratum_slots_;
};

}  // namespace synopsis
}  // namespace aqpp

#endif  // AQPP_SYNOPSIS_STRATIFIED_H_
