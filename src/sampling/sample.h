// The Sample abstraction shared by AQP, AQP++, and APA+.
//
// A sample is a materialized sub-table plus per-row Horvitz–Thompson style
// weights w_i (inverse inclusion probabilities, scaled so that
// sum_i w_i * y_i is an unbiased estimate of sum over the population of y).
// Stratified samples additionally carry stratum structure so estimation can
// be done per stratum (Section 7.4 of the paper).

#ifndef AQPP_SAMPLING_SAMPLE_H_
#define AQPP_SAMPLING_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "storage/table.h"

namespace aqpp {

enum class SamplingMethod {
  kUniform,        // fixed-size simple random sample without replacement
  kBernoulli,      // independent per-row inclusion
  kStratified,     // per-group allocation (BlinkDB-style [6])
  kMeasureBiased,  // with-replacement, p_i proportional to measure ([24])
  kWorkloadAware,  // with-replacement, p_i boosted by workload hit counts
};

const char* SamplingMethodToString(SamplingMethod m);

struct StratumInfo {
  // Population and sample row counts of this stratum.
  size_t population_rows = 0;
  size_t sample_rows = 0;
};

struct Sample {
  std::shared_ptr<Table> rows;
  // w_i per sample row; sum_i w_i * y_i estimates the population sum of y.
  std::vector<double> weights;
  // Stratum id per sample row (empty unless method == kStratified).
  std::vector<int32_t> strata;
  std::vector<StratumInfo> stratum_info;
  size_t population_size = 0;
  double sampling_fraction = 0.0;
  SamplingMethod method = SamplingMethod::kUniform;

  size_t size() const { return rows == nullptr ? 0 : rows->num_rows(); }
  bool stratified() const { return method == SamplingMethod::kStratified; }

  // Approximate storage footprint (what Table 1 reports as sample space).
  size_t MemoryUsage() const;
};

// Checks a sample read from outside the program against what estimation
// relies on: every stratum id names an entry of `stratum_info`, and a
// stratified sample has one id per row with each stratum's `sample_rows`
// equal to its row count (the n_h of the stratified interval).
Status ValidateStrata(const Sample& sample);

// Uniformly thins `sample` to ceil(rate * |sample|) rows, rescaling weights
// so estimates stay unbiased. Stratified samples are thinned per stratum.
// Used by aggregate identification (Section 5.2): candidates are scored on a
// cheap subsample before the winner runs on the full sample.
Result<Sample> Subsample(const Sample& sample, double rate, Rng& rng);

}  // namespace aqpp

#endif  // AQPP_SAMPLING_SAMPLE_H_
