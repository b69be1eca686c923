// AqppEngine: the public session API of the library.
//
// Usage mirrors the paper's workflow:
//   1. Create(table, options)          — registers the data
//   2. Prepare(templates)              — draws the sample and precomputes one
//                                        BP-Cube per template (Section 6;
//                                        Appendix C for several templates)
//   3. Execute(query)                  — routing, aggregate identification
//                                        (Section 5) + difference estimation
//                                        (Section 4)
//
// Several templates share one sample and one synopsis; each owns a cube
// (with its identifier and optional extrema grid), and the cube budget is
// split across them by the error-equalizing allocator. RouteFor picks the
// template that answers a query, and only a template on the query's measure
// may answer it. With `enable_precompute = false`, without Prepare, or when
// no template has the query's measure, the engine is plain AQP — the
// `pre = phi` special case of Equation 4.
//
// Every estimate, scalar or per GROUP BY group, goes through the engine's
// synopsis. By default that is the engine-aligned "reservoir" over the
// engine's own sample: it shares the sample rows, so identification's
// sample-row masks apply to it unchanged.

#ifndef AQPP_CORE_ENGINE_H_
#define AQPP_CORE_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/cancellation.h"
#include "core/execute_control.h"
#include "core/identification.h"
#include "core/precompute.h"
#include "cube/extrema_grid.h"
#include "cube/prefix_cube.h"
#include "expr/query.h"
#include "obs/trace.h"
#include "sampling/sample.h"
#include "sampling/samplers.h"
#include "storage/table.h"
#include "synopsis/estimator.h"
#include "synopsis/synopsis.h"

namespace aqpp {

// The paper's query template (Definition 1): which aggregate over which
// measure, restricted by which condition attributes, optionally grouped.
struct QueryTemplate {
  AggregateFunction func = AggregateFunction::kSum;
  size_t agg_column = 0;
  std::vector<size_t> condition_columns;
  // Group-by attributes become exhaustive cube dimensions (Appendix C).
  std::vector<size_t> group_columns;

  std::string ToString(const Schema& schema) const;
};

struct EngineOptions {
  // Sampling configuration.
  double sample_rate = 0.01;
  SamplingMethod sampling = SamplingMethod::kUniform;
  // Stratification columns (only for kStratified; usually the group-by
  // attributes per Section 7.4).
  std::vector<size_t> stratify_columns;
  // Recorded query log (only for kWorkloadAware; predicates drive the
  // per-row inclusion boost).
  std::vector<RangeQuery> workload_history;

  // Total BP-Cube budget |P| <= k. One template gets all of it; several
  // split it with the error-equalizing allocator (core/allocation.h).
  size_t cube_budget = 10000;

  double confidence_level = 0.95;
  IdentificationOptions identification;
  PrecomputeOptions precompute;
  size_t bootstrap_resamples = 120;

  // When false, Prepare() skips precomputation: the engine is plain AQP.
  bool enable_precompute = true;

  // Build a block extrema grid alongside the cube so MIN/MAX queries get
  // deterministic bounds (the Section 8 future-work extension).
  bool enable_extrema = false;

  // Group-by identification policy (Appendix C): false = identify once on
  // the group-stripped query and reuse the range for every group (the
  // paper's cheap heuristic); true = run identification per group (more
  // accurate, costs one identification per group).
  bool per_group_identification = false;

  // Synopsis kind that answers scalar estimates ("" and "off" select the
  // default engine-aligned "reservoir"; see synopsis/synopsis.h for the
  // registered kinds). Prepare, LoadState and AdoptPrepared build it; before
  // the first of those the default answers.
  std::string synopsis;

  uint64_t seed = 42;
};

// Cube figures sum over every template's cube (extrema grids included in
// cube_bytes); `shape` is template 0's.
struct PrepareStats {
  double sample_seconds = 0.0;
  double stage1_seconds = 0.0;  // shape search + hill climbing (sample-side)
  double stage2_seconds = 0.0;  // full-scan cube construction
  size_t sample_bytes = 0;
  size_t cube_bytes = 0;
  size_t cube_cells = 0;
  std::vector<size_t> shape;

  double total_seconds() const {
    return sample_seconds + stage1_seconds + stage2_seconds;
  }
  size_t total_bytes() const { return sample_bytes + cube_bytes; }
};

struct ApproximateResult {
  ConfidenceInterval ci;
  // True when a non-phi precomputed aggregate was used.
  bool used_pre = false;
  std::string pre_description;
  size_t candidates_considered = 0;
  double identification_seconds = 0.0;
  double estimation_seconds = 0.0;

  double response_seconds() const {
    return identification_seconds + estimation_seconds;
  }
};

struct GroupApproximateResult {
  GroupKey key;
  ApproximateResult result;
};

class AqppEngine {
 public:
  static Result<std::unique_ptr<AqppEngine>> Create(
      std::shared_ptr<Table> table, EngineOptions options);

  // Draws the sample (first call only) and precomputes one BP-Cube per
  // template over it, splitting `cube_budget` across the templates. May be
  // called again; the templates and cubes are replaced, the sample is kept.
  // A template with group-by attributes must be the only one.
  Status Prepare(const std::vector<QueryTemplate>& templates);
  Status Prepare(const QueryTemplate& tmpl) {
    return Prepare(std::vector<QueryTemplate>{tmpl});
  }

  // The template that answers `query`, or -1 for plain AQP. Only templates
  // with a cube on the query's measure are candidates (any template for
  // COUNT); among them the score is covered condition columns minus 0.25 per
  // template column the query leaves unconstrained, and the first template
  // wins ties. A template on the measure answers even a query it covers no
  // column of (PRE[ALL] keeps full-table queries exact).
  int RouteFor(const RangeQuery& query) const;

  // Scalar query: routing, identification + estimation. Works with or
  // without a prepared cube (without, it is plain AQP).
  Result<ApproximateResult> Execute(const RangeQuery& query);

  // Scalar query with per-call control (cancellation, deterministic seed,
  // log opt-out). Calls that set `control.seed` are safe to run
  // concurrently with each other from multiple threads once the engine is
  // prepared; calls without a seed share the session RNG and must stay
  // single-threaded.
  Result<ApproximateResult> Execute(const RangeQuery& query,
                                    const ExecuteControl& control);

  // Group-by query (Appendix C): one identification pass on the
  // group-stripped query, then per-group difference estimation against the
  // group-pinned slice of the routed cube, through the live synopsis like a
  // scalar query.
  Result<std::vector<GroupApproximateResult>> ExecuteGroupBy(
      const RangeQuery& query);

  // Group-by with per-call control; same concurrency contract as the
  // scalar overload.
  Result<std::vector<GroupApproximateResult>> ExecuteGroupBy(
      const RangeQuery& query, const ExecuteControl& control);

  // Human-readable plan: the routed template, the candidate set P- with
  // per-candidate scored errors (best first) and the execution strategy the
  // engine would pick.
  Result<std::string> Explain(const RangeQuery& query);

  // The query log recorded by Execute/ExecuteGroupBy (bounded; newest
  // last). Feeds AdaptToWorkload(). Returns a snapshot copy: the ring is
  // mutex-guarded so concurrent Execute calls (service workers) cannot race
  // it, and a reference would dangle under concurrent eviction.
  std::vector<RangeQuery> recorded_workload() const;

  // Redraws the sample with workload-aware boosting from the recorded log
  // and re-prepares every template's cube — the Section 8
  // "workload-driven sample creation" loop, closed. Requires a prepared
  // template and a non-empty log.
  Status AdaptToWorkload();

  // Warm-start support: persists the prepared state (sample + every
  // template and its cube) into `dir`, and restores it without re-sampling
  // or re-precomputing. LoadState requires the engine to have been created
  // over the same table contents, and refuses a directory in an older state
  // format with FailedPrecondition.
  Status SaveState(const std::string& dir) const;
  Status LoadState(const std::string& dir);

  // Adopts already-built prepared state for one template (e.g. from the
  // one-pass streaming builder) instead of re-sampling and re-precomputing —
  // the shard-worker path, where cube and sample come out of
  // BuildCubeAndSampleFromSource over the shard's slab. Wiring matches
  // LoadState: the sample's schema must match the engine's table, and a null
  // cube leaves the engine in plain-AQP mode.
  Status AdoptPrepared(const QueryTemplate& tmpl, Sample sample,
                       std::shared_ptr<PrefixCube> cube);

  // Publishes maintained state (the streaming-ingest absorber's commit): the
  // absorbed sample and cubes (one per template, in template order; null
  // where a template has none) replace the current ones, the identifiers are
  // rebuilt, an engine-aligned synopsis is re-adopted over the new sample,
  // and the templates and extrema grids are kept. A synopsis that is not
  // engine-aligned is left alone — the absorber publishes its own absorbed
  // clone via AdoptSynopsis. NOT internally synchronized: the caller
  // serializes against concurrent Execute (IngestManager holds its state
  // mutex exclusively here while queries hold it shared). Validation happens
  // before any member is assigned, so a failed publish leaves the engine
  // untouched.
  Status PublishMaintained(Sample sample,
                           std::vector<std::shared_ptr<PrefixCube>> cubes);

  // Swaps the live synopsis pointer (thread-safe, never rebuilds; `s` must
  // be non-null). The ingest absorber publishes its absorbed clone of a
  // non-aligned synopsis through this.
  void AdoptSynopsis(std::shared_ptr<synopsis::Synopsis> s) {
    std::lock_guard<std::mutex> lock(synopsis_mu_);
    synopsis_ = std::move(s);
  }

  // Shared handle the ingest absorber clones template t's cube through.
  std::shared_ptr<PrefixCube> shared_cube(size_t t) const {
    return slots_[t].cube;
  }

  // Selects the synopsis that answers scalar estimates and builds it over
  // the engine's state ("" or "off" restores the default "reservoir").
  // Sample-backed kinds adopt the engine's sample and stay engine-aligned;
  // kinds that cannot fall back to a build over the full table. Later
  // Prepare / LoadState / AdoptPrepared calls rebuild the selected kind.
  Status SetSynopsis(const std::string& kind);

  // The live synopsis; non-null once the engine holds a sample (after
  // Prepare, LoadState, AdoptPrepared or the first Execute). Shared
  // ownership: SetSynopsis may swap the synopsis while the ingest absorber
  // still holds the old one.
  std::shared_ptr<synopsis::Synopsis> active_synopsis() const {
    std::lock_guard<std::mutex> lock(synopsis_mu_);
    return synopsis_;
  }

  const Table& table() const { return *table_; }
  const Sample& sample() const { return sample_; }
  const PrepareStats& prepare_stats() const { return prepare_stats_; }
  const EngineOptions& options() const { return options_; }

  // Prepared templates, in Prepare order; template t owns cube_of(t).
  size_t num_templates() const { return slots_.size(); }
  // Null when template t has no cube (enable_precompute = false).
  const PrefixCube* cube_of(size_t t) const { return slots_[t].cube.get(); }
  // Cell budget Prepare allotted to template t.
  size_t budget_of(size_t t) const { return slots_[t].budget; }

  // Template 0's state (the single-template view).
  std::optional<QueryTemplate> prepared_template() const {
    if (slots_.empty()) return std::nullopt;
    return slots_[0].tmpl;
  }
  bool has_cube() const { return cube() != nullptr; }
  const PrefixCube* cube() const {
    return slots_.empty() ? nullptr : slots_[0].cube.get();
  }
  // Identification over template 0's cube; nullptr in plain-AQP mode.
  const AggregateIdentifier* identifier() const {
    return slots_.empty() ? nullptr : slots_[0].identifier.get();
  }
  const ExtremaGrid* extrema_grid() const {
    return slots_.empty() ? nullptr : slots_[0].extrema.get();
  }

 private:
  // One prepared template: its cube and what is derived from it.
  struct Slot {
    QueryTemplate tmpl;
    size_t budget = 0;
    std::shared_ptr<PrefixCube> cube;
    std::shared_ptr<ExtremaGrid> extrema;
    std::unique_ptr<AggregateIdentifier> identifier;
  };

  AqppEngine(std::shared_ptr<Table> table, EngineOptions options)
      : table_(std::move(table)), options_(std::move(options)),
        rng_(options_.seed) {}

  Status EnsureSample();

  // The one place a sample is installed: sets the sample and sample_bytes,
  // then re-adopts an engine-aligned synopsis over the new rows (or creates
  // the default one on the first install).
  Status InstallSample(Sample sample);

  // The one place cubes are installed, one per slot: sets each cube and its
  // identifier over the current sample (a null cube leaves that template in
  // plain-AQP mode), then recounts the cube figures of prepare_stats_.
  void InstallCubes(std::vector<std::shared_ptr<PrefixCube>> cubes);

  // Builds `kind` over the engine's state and makes it the live synopsis.
  Status BuildSynopsis(const std::string& kind);

  // Replaces the slots by one per template (no cubes yet).
  void ResetSlots(const std::vector<QueryTemplate>& templates);

  std::shared_ptr<Table> table_;
  EngineOptions options_;
  Rng rng_;
  Sample sample_;
  bool has_sample_ = false;
  std::vector<Slot> slots_;
  PrepareStats prepare_stats_;
  // Live synopsis (null only before the first sample). Guarded: SET
  // SYNOPSIS may arrive from a service admin connection while seeded
  // Executes run on worker threads.
  mutable std::mutex synopsis_mu_;
  std::shared_ptr<synopsis::Synopsis> synopsis_;
  // Bounded query-log ring, guarded: Execute may be called concurrently
  // from service workers (with per-call seeds), and all of them record here.
  mutable std::mutex workload_mu_;
  std::vector<RangeQuery> recorded_workload_;

  // Appends to the bounded query log (thread-safe).
  void RecordQuery(const RangeQuery& query);
};

}  // namespace aqpp

#endif  // AQPP_CORE_ENGINE_H_
