// Progressive (online-aggregation-style) execution.
//
// The paper's related work discusses online aggregation and names the
// online-sampling setting an interesting direction for AQP++ (Section 2).
// This module provides that mode: the sample's rows are consumed in a fixed
// random order, and after every checkpoint the AQP++ difference estimator
// (or plain AQP when no pre is supplied) emits a confidence interval — so a
// dashboard can render an answer that tightens as 1/sqrt(rows consumed),
// with the precomputed aggregate shrinking the interval at every step.
//
// Supported aggregates: SUM and COUNT (closed-form intervals per prefix).

#ifndef AQPP_CORE_PROGRESSIVE_H_
#define AQPP_CORE_PROGRESSIVE_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/cancellation.h"
#include "core/identification.h"
#include "cube/prefix_cube.h"
#include "expr/query.h"
#include "sampling/sample.h"
#include "synopsis/estimator.h"

namespace aqpp {

struct ProgressiveStep {
  // Sample rows consumed at this checkpoint.
  size_t rows_used = 0;
  ConfidenceInterval ci;
};

struct ProgressiveOptions {
  double confidence_level = 0.95;
  // Checkpoint schedule as fractions of the sample; empty = geometric
  // doubling from 1/64 to 1.
  std::vector<double> checkpoints;
};

class ProgressiveExecutor {
 public:
  // `sample` must be a uniform (or Bernoulli) sample; stratified and
  // measure-biased samples are rejected (their per-row weights are not
  // exchangeable under prefix truncation). `cube` may be null (plain AQP).
  ProgressiveExecutor(const Sample* sample, const PrefixCube* cube,
                      ProgressiveOptions options = {});

  // Runs `query` through the checkpoint schedule. When a cube is present,
  // the pre is identified once (on the full sample) and reused at every
  // checkpoint, so the stream is monotone in information, not in choices.
  //
  // `cancel` (optional) is polled after every checkpoint: a stopped run
  // returns the steps produced so far instead of an error, so a timed-out
  // service request still gets a (wide) partial estimate. The first
  // checkpoint is always produced, even when the token is already stopped
  // on entry — "some answer with an honest interval" is the contract.
  Result<std::vector<ProgressiveStep>> Run(const RangeQuery& query, Rng& rng,
                                           const CancellationToken* cancel =
                                               nullptr);

 private:
  const Sample* sample_;
  const PrefixCube* cube_;
  ProgressiveOptions options_;
};

}  // namespace aqpp

#endif  // AQPP_CORE_PROGRESSIVE_H_
