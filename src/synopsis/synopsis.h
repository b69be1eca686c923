// The pluggable Synopsis interface: one seam between "what summary of the
// data do we keep" and "how does the engine use it".
//
// AQP++'s accuracy rests on the sample-side estimator that corrects the
// precomputed aggregate (Equation 4). Engines compute every scalar estimate
// through a Synopsis — by default the "reservoir" kind over the engine's own
// sample. The interface: Build summarizes a data source, Estimate
// answers a canonical scalar query with a point + confidence interval,
// Absorb keeps the summary fresh under appends, and Serialize/Deserialize
// plug into the warm-handoff seam so prepared state can move between
// processes. An engine keeps one synopsis for all its templates
// (EngineOptions::synopsis), the service exposes it over SET SYNOPSIS, and
// the shard PARTIAL wire carries the kind so coordinator and workers agree.
//
// Registered kinds (see docs/synopses.md for selection guidance):
//   "reservoir"        the default (kDefaultSynopsis): sample + bootstrap
//                      CIs through SampleEstimator. It adopts an engine's
//                      sample of any sampling method by sharing its rows, so
//                      every estimate is SampleEstimator's over that sample,
//                      RNG-step-for-step.
//   "reservoir_closed" same sample, but AVG/VAR intervals come from the
//                      closed-form skew-adjusted delta method
//                      (distribution-sensitive; arXiv:2008.03891 spirit)
//                      instead of the percentile bootstrap.
//   "stratified"       per-stratum synopsis over the stratified sampler;
//                      SUM/COUNT fold exactly like the shard tier's
//                      stratified merge, AVG/VAR by the same delta-method
//                      moment fold (shard fold contract).
//   "grouped"          tuple-bubble-style grouped synopsis (arXiv:2212.10150
//                      spirit): exact per-group moments on a hot key column
//                      plus a per-group row subsample. Queries that only
//                      constrain the key are answered exactly (zero-width
//                      CI); residual predicates are estimated per group.
//
// Statistical contract, enforced by tests/synopsis_test.cc and the
// parameterized coverage battery in tests/coverage_test.cc:
//   * Estimate is a pure function of (built state, canonical query, seed);
//   * Degrade never tightens an interval (conservative inflation);
//   * SerializeTo is deterministic and DeserializeFrom reproduces it byte
//     for byte;
//   * Absorb is statistically equivalent to a rebuild over base + batch and
//     never commits partial state under failpoints ("synopsis/absorb").

#ifndef AQPP_SYNOPSIS_SYNOPSIS_H_
#define AQPP_SYNOPSIS_SYNOPSIS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/execute_control.h"
#include "expr/query.h"
#include "sampling/sample.h"
#include "stats/confidence.h"
#include "storage/column_source.h"
#include "storage/table.h"
#include "synopsis/estimator.h"

namespace aqpp {
namespace synopsis {

struct SynopsisOptions {
  double confidence_level = 0.95;
  // Resamples for bootstrap CIs (reservoir AVG/VAR paths).
  size_t bootstrap_resamples = 120;
  // Build-time sampling budget as a fraction of the population.
  double sample_rate = 0.01;
  // Columns the synopsis keys on: the strata of "stratified", the bubble key
  // of "grouped" (first entry). Engines pass the template's condition
  // columns. Ignored by the reservoir kinds.
  std::vector<size_t> key_columns;
  // Measure column "grouped" keeps exact per-group moments for (the
  // template's aggregation attribute).
  size_t measure_column = 0;
  // AVG/VAR interval construction for the reservoir kinds: percentile
  // bootstrap (SampleEstimator's method) or the closed-form
  // skew-adjusted delta method. "reservoir_closed" is sugar for
  // kind=reservoir + kClosedForm.
  enum class CiMethod { kBootstrap, kClosedForm };
  CiMethod ci_method = CiMethod::kBootstrap;
  // Seed for build-time sampling and Absorb's reservoir continuation.
  uint64_t seed = 42;
};

class Synopsis {
 public:
  virtual ~Synopsis() = default;

  // Registered kind string ("reservoir", "stratified", ...).
  virtual const char* kind() const = 0;
  const SynopsisOptions& options() const { return options_; }

  // ---- Build ---------------------------------------------------------------

  // Summarizes `source` (one materializing pass by default; implementations
  // may override with a streaming build).
  virtual Status Build(ColumnSource& source);

  // Summarizes an in-memory table. The primary build path.
  virtual Status BuildFromTable(const Table& table) = 0;

  // Adopts an engine's already-drawn sample instead of re-sampling.
  // Unimplemented unless the synopsis is sample-backed and the sample's
  // method is compatible ("reservoir" accepts every method and shares the
  // rows; "reservoir_closed" uniform and "stratified" stratified samples).
  // The engine's sample is never mutated.
  virtual Status BuildFromSample(const Sample& sample);

  // True once Build/BuildFromTable/BuildFromSample/DeserializeFrom
  // succeeded.
  bool built() const { return built_; }

  // True while the synopsis's rows are a row-for-row image of the engine
  // sample it adopted (BuildFromSample), so engine-computed sample-row masks
  // are valid against it. Cleared by Absorb/Degrade/DeserializeFrom. Engines
  // re-adopt an aligned synopsis whenever their sample changes.
  bool engine_aligned() const { return engine_aligned_; }

  // ---- Estimation ----------------------------------------------------------

  // Point + CI for a canonical scalar query — a pure function of (built
  // state, query, rng state). The Rng-threading overload is what engines
  // call, so a synopsis estimate consumes the caller's stream (identification
  // and estimation draw from one seeded stream per query).
  virtual Result<ConfidenceInterval> Estimate(const RangeQuery& query,
                                              const ExecuteControl& control,
                                              Rng& rng) const = 0;

  // Convenience: runs on a private Rng seeded by control.seed (0 if unset).
  Result<ConfidenceInterval> Estimate(const RangeQuery& query,
                                      const ExecuteControl& control) const;

  // AQP++ difference path: pre(D) + (q̂(S) - p̂re(S)). Default Unimplemented —
  // the engine falls back to the direct estimate (used_pre = false).
  virtual Result<ConfidenceInterval> EstimateWithPre(
      const RangeQuery& query, const RangePredicate& pre_predicate,
      const PreValues& pre, const ExecuteControl& control, Rng& rng) const;

  // Mask-reusing difference variant for engine-aligned synopses: the masks
  // are over the engine's sample rows (identifier mask reuse). Only valid
  // when engine_aligned().
  virtual Result<ConfidenceInterval> EstimateWithPreMasked(
      const RangeQuery& query, const std::vector<uint8_t>& q_mask,
      const std::vector<uint8_t>& pre_mask, const PreValues& pre,
      const ExecuteControl& control, Rng& rng) const;

  // ---- Maintenance ---------------------------------------------------------

  // Ingests an appended batch (same schema as the base data). Implementations
  // validate the whole batch before mutating anything (stage-validate-commit)
  // and share the "synopsis/absorb" failpoint, so a torn absorb can never
  // leave partial state behind.
  virtual Status Absorb(const Table& batch) = 0;

  // The validation half of Absorb: OK iff Absorb(batch) would pass its
  // checks. Mutates nothing. Ingest calls it before acking a batch that a
  // non-aligned synopsis must absorb later. The default accepts every
  // batch; kinds whose Absorb can refuse a schema-valid batch override it.
  virtual Status ValidateAbsorb(const Table& batch) const;

  // Thins the retained rows to `keep_fraction` (memory pressure relief),
  // inflating every subsequent interval conservatively. Contract: for any
  // fixed query, the CI after Degrade is never tighter than before.
  virtual Status Degrade(double keep_fraction, Rng& rng) = 0;

  // ---- Persistence (warm-handoff seam) -------------------------------------

  // Deterministic byte encoding of the built state: serializing, restoring
  // with DeserializeFrom, and serializing again yields identical bytes.
  virtual Status SerializeTo(std::string* out) const = 0;
  virtual Status DeserializeFrom(const std::string& bytes) = 0;

  virtual size_t MemoryUsage() const = 0;

  // Multiplicative half-width inflation accumulated by Degrade calls.
  double ci_inflation() const { return ci_inflation_; }

 protected:
  explicit Synopsis(SynopsisOptions options) : options_(std::move(options)) {}

  SynopsisOptions options_;
  bool built_ = false;
  bool engine_aligned_ = false;
  double ci_inflation_ = 1.0;
};

// ---- Registry ---------------------------------------------------------------

using SynopsisFactory =
    std::function<std::unique_ptr<Synopsis>(const SynopsisOptions&)>;

// Creates a registered synopsis (built-ins: "reservoir", "reservoir_closed",
// "stratified", "grouped"). NotFound for unknown kinds.
Result<std::unique_ptr<Synopsis>> CreateSynopsis(const std::string& kind,
                                                 const SynopsisOptions& opts);

// The kind engines answer through when none is selected ("" or "off"): the
// engine-aligned reservoir over the engine's own sample.
inline constexpr char kDefaultSynopsis[] = "reservoir";

// Creates `kind` ("" and "off" select kDefaultSynopsis) and builds it over an
// engine's `sample` when the kind can adopt it (engine-aligned), else over
// `table`.
Result<std::shared_ptr<Synopsis>> BuildSynopsisFor(const std::string& kind,
                                                   const SynopsisOptions& opts,
                                                   const Sample& sample,
                                                   const Table& table);

// Registers an external kind (tests / experiments). Replaces on collision.
void RegisterSynopsis(const std::string& kind, SynopsisFactory factory);

// All registered kind names, sorted (deterministic for parameterized tests).
std::vector<std::string> RegisteredSynopses();

bool IsSynopsisRegistered(const std::string& kind);

// ---- Shared implementation helpers ------------------------------------------

// Column-for-column name/type equality (absorbed batches must match the
// summarized schema exactly).
Status CheckSameSchema(const Schema& expected, const Schema& actual);

// Verifies every string value in `batch` already exists in the corresponding
// dictionary of `rows` — the stage-validate-commit precondition shared by all
// Absorb implementations (new categories would invalidate the alphabetical
// ordinal coding; callers must re-build instead).
Status ValidateBatchDictionaries(const Table& rows, const Table& batch);

// Gives `sample` rows of its own when they are shared (an adopted engine
// sample), so an in-place Algorithm-R overwrite never reaches the source.
Status UnshareRows(Sample* sample);

// Algorithm R's replacement: overwrites slot `slot` of `rows` with row `row`
// of `batch`, re-coding strings into `rows`' dictionaries (which
// ValidateBatchDictionaries has checked).
Status OverwriteSlot(Table* rows, size_t slot, const Table& batch, size_t row);

// Vitter's Algorithm R continued over `batch`: each appended row replaces a
// uniformly random slot of `sample` with probability n / rows_seen, one
// `rng.NextBounded(rows_seen)` draw per row, so `sample` stays a uniform
// draw of everything seen. FailedPrecondition for a non-uniform sample and
// InvalidArgument for an unknown category, both before anything mutates;
// shared rows are copied before the first overwrite. On success advances
// `*rows_seen` and refreshes population_size, weights and sampling_fraction.
Status ContinueReservoir(Sample* sample, size_t* rows_seen, const Table& batch,
                         Rng& rng);

}  // namespace synopsis
}  // namespace aqpp

#endif  // AQPP_SYNOPSIS_SYNOPSIS_H_
