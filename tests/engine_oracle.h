// The hand-wired estimator path an engine's default synopsis must reproduce
// bit for bit: aggregate identification, then SampleEstimator over the
// engine's own sample (EstimateDirectMasked when phi wins,
// EstimateWithPreMasked otherwise), all on one seeded Rng.

#ifndef AQPP_TESTS_ENGINE_ORACLE_H_
#define AQPP_TESTS_ENGINE_ORACLE_H_

#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "core/engine.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace testutil {

struct OracleAnswer {
  ConfidenceInterval ci;
  bool used_pre = false;
};

inline Result<OracleAnswer> OracleEstimate(const AqppEngine& engine,
                                           const RangeQuery& query,
                                           uint64_t seed) {
  Rng rng(seed);
  SampleEstimator est(&engine.sample(),
                      {.confidence_level = engine.options().confidence_level,
                       .bootstrap_resamples =
                           engine.options().bootstrap_resamples});
  AQPP_ASSIGN_OR_RETURN(auto q_mask, est.Mask(query.predicate));
  OracleAnswer out;
  const AggregateIdentifier* ident = engine.identifier();
  IdentifiedAggregate identified;
  if (ident != nullptr) {
    AQPP_ASSIGN_OR_RETURN(identified, ident->Identify(query, rng));
  }
  if (identified.pre.IsEmpty()) {
    AQPP_ASSIGN_OR_RETURN(out.ci, est.EstimateDirectMasked(query, q_mask, rng));
    return out;
  }
  AQPP_ASSIGN_OR_RETURN(
      out.ci, est.EstimateWithPreMasked(query, q_mask,
                                        ident->PreMaskOnSample(identified.pre),
                                        identified.values, rng));
  out.used_pre = true;
  return out;
}

}  // namespace testutil
}  // namespace aqpp

#endif  // AQPP_TESTS_ENGINE_ORACLE_H_
