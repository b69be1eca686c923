// Multi-template sessions (Appendix C, "Multiple Query Templates").
//
// A warehouse rarely serves one query template. MultiTemplateEngine draws a
// single shared sample, splits the total cube budget across templates with
// the error-equalizing allocator, precomputes one BP-Cube per template, and
// routes each incoming query to the best-matching cube (fully covering
// templates first, then maximal overlap; plain AQP when nothing fits).
// Estimates go through EstimateScalar, the path AqppEngine runs: each
// template answers through its synopsis, unrouted queries through the
// session's default view (the engine-aligned "reservoir" over the shared
// sample).

#ifndef AQPP_CORE_MULTI_ENGINE_H_
#define AQPP_CORE_MULTI_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/allocation.h"
#include "core/engine.h"
#include "core/identification.h"
#include "core/precompute.h"

namespace aqpp {

struct MultiEngineOptions {
  double sample_rate = 0.01;
  // Total cell budget shared by all templates.
  size_t total_cube_budget = 50'000;
  double confidence_level = 0.95;
  IdentificationOptions identification;
  ShapeOptions shape;
  size_t bootstrap_resamples = 120;
  uint64_t seed = 42;
  // Synopsis kind routed queries estimate with ("" or "off" = the session's
  // default view). Overridable per template.
  std::string default_synopsis;
  // Per-template override of default_synopsis, indexed like the Prepare()
  // template list; "" entries (or a short vector) fall back to the default.
  std::vector<std::string> synopsis_per_template;
};

class MultiTemplateEngine {
 public:
  static Result<std::unique_ptr<MultiTemplateEngine>> Create(
      std::shared_ptr<Table> table, MultiEngineOptions options);

  // Draws the shared sample (once), allocates the budget across `templates`
  // (error-equalizing), and precomputes one cube per template. Replaces any
  // previously prepared set.
  Status Prepare(const std::vector<QueryTemplate>& templates);

  // Routes to the best-matching template's cube; plain AQP when no template
  // covers any of the query's condition columns.
  Result<ApproximateResult> Execute(const RangeQuery& query);

  // Per-call control (cancellation, deterministic seed) — same contract as
  // AqppEngine::Execute: seeded calls are safe to run concurrently.
  Result<ApproximateResult> Execute(const RangeQuery& query,
                                    const ExecuteControl& control);

  // Index of the template Execute() would route `query` to, or -1 for the
  // direct AQP path.
  int RouteFor(const RangeQuery& query) const;

  size_t num_templates() const { return prepared_.size(); }
  const Table& table() const { return *table_; }
  const MultiEngineOptions& options() const { return options_; }
  const Sample& sample() const { return sample_; }
  // Budget actually allocated to template t.
  size_t budget_of(size_t t) const { return prepared_[t].budget; }
  const PrefixCube& cube_of(size_t t) const { return *prepared_[t].cube; }
  // Template t's synopsis (the default view unless one was selected).
  const synopsis::Synopsis* synopsis_of(size_t t) const {
    return prepared_[t].synopsis.get();
  }

 private:
  MultiTemplateEngine(std::shared_ptr<Table> table, MultiEngineOptions options)
      : table_(std::move(table)), options_(std::move(options)),
        rng_(options_.seed) {}

  struct PreparedTemplate {
    QueryTemplate tmpl;
    size_t budget = 0;
    std::shared_ptr<PrefixCube> cube;
    std::unique_ptr<AggregateIdentifier> identifier;
    // Per-template synopsis (MultiEngineOptions::default_synopsis /
    // synopsis_per_template); never null.
    std::shared_ptr<synopsis::Synopsis> synopsis;
  };

  std::shared_ptr<Table> table_;
  MultiEngineOptions options_;
  Rng rng_;
  Sample sample_;
  bool has_sample_ = false;
  // Engine-aligned "reservoir" over the session sample: answers unrouted
  // queries and every template without its own synopsis.
  std::shared_ptr<synopsis::Synopsis> default_view_;
  std::vector<PreparedTemplate> prepared_;
};

}  // namespace aqpp

#endif  // AQPP_CORE_MULTI_ENGINE_H_
