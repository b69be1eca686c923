#include "core/multi_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "sampling/samplers.h"

namespace aqpp {

Result<std::unique_ptr<MultiTemplateEngine>> MultiTemplateEngine::Create(
    std::shared_ptr<Table> table, MultiEngineOptions options) {
  if (table == nullptr || table->num_rows() == 0) {
    return Status::InvalidArgument("table must be non-empty");
  }
  if (options.sample_rate <= 0 || options.sample_rate > 1) {
    return Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  if (options.total_cube_budget == 0) {
    return Status::InvalidArgument("total_cube_budget must be > 0");
  }
  return std::unique_ptr<MultiTemplateEngine>(
      new MultiTemplateEngine(std::move(table), std::move(options)));
}

Status MultiTemplateEngine::Prepare(
    const std::vector<QueryTemplate>& templates) {
  if (templates.empty()) {
    return Status::InvalidArgument("no templates given");
  }
  for (const auto& t : templates) {
    if (t.condition_columns.empty()) {
      return Status::InvalidArgument("template without condition columns");
    }
    if (!t.group_columns.empty()) {
      return Status::Unimplemented(
          "multi-template sessions currently cover scalar templates");
    }
  }
  synopsis::SynopsisOptions sopts;
  sopts.confidence_level = options_.confidence_level;
  sopts.bootstrap_resamples = options_.bootstrap_resamples;
  sopts.sample_rate = options_.sample_rate;
  sopts.seed = options_.seed;
  if (!has_sample_) {
    AQPP_ASSIGN_OR_RETURN(
        sample_, CreateUniformSample(*table_, options_.sample_rate, rng_));
    AQPP_ASSIGN_OR_RETURN(
        default_view_,
        synopsis::BuildSynopsisFor("", sopts, sample_, *table_));
    has_sample_ = true;
  }

  // Error-equalizing budget split (Appendix C).
  std::vector<TemplateSpec> specs;
  for (const auto& t : templates) {
    specs.push_back({t.agg_column, t.condition_columns});
  }
  MultiTemplateAllocator allocator(sample_.rows.get(),
                                   sample_.population_size, options_.shape);
  AQPP_ASSIGN_OR_RETURN(auto allocation,
                        allocator.Allocate(specs,
                                           options_.total_cube_budget));

  prepared_.clear();
  for (size_t t = 0; t < templates.size(); ++t) {
    PreparedTemplate prep;
    prep.tmpl = templates[t];
    prep.budget = allocation.budgets[t];
    PrecomputeOptions popts;
    popts.shape = options_.shape;
    Precomputer precomputer(table_.get(), &sample_, templates[t].agg_column,
                            popts);
    AQPP_ASSIGN_OR_RETURN(
        auto pre, precomputer.Precompute(templates[t].condition_columns,
                                         std::max<size_t>(1, prep.budget)));
    prep.cube = pre.cube;
    IdentificationOptions iopts = options_.identification;
    iopts.confidence_level = options_.confidence_level;
    prep.identifier = std::make_unique<AggregateIdentifier>(
        prep.cube.get(), &sample_, iopts, rng_);

    // Per-template synopsis selection: the explicit override wins, else the
    // session default; "" (or "off") shares the session's default view.
    std::string kind = options_.default_synopsis;
    if (t < options_.synopsis_per_template.size() &&
        !options_.synopsis_per_template[t].empty()) {
      kind = options_.synopsis_per_template[t];
    }
    if (kind.empty() || kind == "off") {
      prep.synopsis = default_view_;
    } else {
      synopsis::SynopsisOptions tmpl_opts = sopts;
      tmpl_opts.key_columns = templates[t].condition_columns;
      tmpl_opts.measure_column = templates[t].agg_column;
      AQPP_ASSIGN_OR_RETURN(
          prep.synopsis,
          synopsis::BuildSynopsisFor(kind, tmpl_opts, sample_, *table_));
    }
    prepared_.push_back(std::move(prep));
  }
  return Status::OK();
}

int MultiTemplateEngine::RouteFor(const RangeQuery& query) const {
  // Condition columns referenced by the query.
  std::vector<size_t> query_cols;
  for (const auto& c : query.predicate.conditions()) {
    if (std::find(query_cols.begin(), query_cols.end(), c.column) ==
        query_cols.end()) {
      query_cols.push_back(c.column);
    }
  }
  if (query_cols.empty() || prepared_.empty()) return -1;

  int best = -1;
  // Score: covered columns minus a small penalty for unused cube dimensions
  // (wider cubes dilute the per-dimension budget); require the measure to
  // match and at least one covered column.
  double best_score = 0;
  for (size_t t = 0; t < prepared_.size(); ++t) {
    const auto& tmpl = prepared_[t].tmpl;
    if (tmpl.agg_column != query.agg_column) continue;
    size_t covered = 0;
    for (size_t qc : query_cols) {
      if (std::find(tmpl.condition_columns.begin(),
                    tmpl.condition_columns.end(),
                    qc) != tmpl.condition_columns.end()) {
        ++covered;
      }
    }
    if (covered == 0) continue;
    double score = static_cast<double>(covered) -
                   0.25 * static_cast<double>(tmpl.condition_columns.size() -
                                              covered);
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(t);
    }
  }
  return best;
}

Result<ApproximateResult> MultiTemplateEngine::Execute(
    const RangeQuery& query) {
  return Execute(query, ExecuteControl{});
}

Result<ApproximateResult> MultiTemplateEngine::Execute(
    const RangeQuery& query, const ExecuteControl& control) {
  if (!query.group_by.empty()) {
    return Status::Unimplemented(
        "multi-template sessions currently cover scalar queries");
  }
  if (!has_sample_) {
    return Status::FailedPrecondition("call Prepare() first");
  }
  AQPP_RETURN_IF_STOPPED(control.cancel);
  Rng local_rng(control.seed.value_or(0));
  Rng& rng = control.seed.has_value() ? local_rng : rng_;
  int route = RouteFor(query);
  if (route < 0) {
    return EstimateScalar(query, control, *default_view_, nullptr,
                          table_->schema(), rng);
  }
  const PreparedTemplate& prep = prepared_[static_cast<size_t>(route)];
  return EstimateScalar(query, control, *prep.synopsis, prep.identifier.get(),
                        table_->schema(), rng);
}

}  // namespace aqpp
