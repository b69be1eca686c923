// Progressive ("online aggregation") dashboard scenario.
//
// The user hits enter; the answer appears immediately and tightens as more
// of the sample streams in through AqppEngine::ExecuteOnline — once with
// plain AQP, once with AQP++ (same sample, same consumption order). Then the
// MIN/MAX extension answers extremum questions with deterministic bounds no
// sample could provide.
//
// Build & run:  ./build/examples/progressive_dashboard

#include <cmath>
#include <cstdio>

#include "core/engine.h"
#include "exec/executor.h"
#include "workload/bigbench.h"

int main() {
  using namespace aqpp;

  std::printf("generating 600k-row BigBench UserVisits table...\n");
  auto table = std::move(GenerateBigBench({.rows = 600'000})).value();
  ExactExecutor exact(table.get());

  size_t revenue = *table->GetColumnIndex("adRevenue");
  size_t visit_date = *table->GetColumnIndex("visitDate");
  size_t duration = *table->GetColumnIndex("duration");

  // Two engines over the same 2% sample (same seed): plain AQP, and AQP++
  // with a 2-D BP-Cube plus the extrema grid for MIN/MAX.
  QueryTemplate tmpl;
  tmpl.agg_column = revenue;
  tmpl.condition_columns = {visit_date, duration};
  auto make_engine = [&](bool precompute) {
    EngineOptions opts;
    opts.sample_rate = 0.02;
    opts.cube_budget = 10'000;
    opts.enable_precompute = precompute;
    opts.enable_extrema = precompute;
    opts.seed = 3;
    auto engine = std::move(AqppEngine::Create(table, opts)).value();
    AQPP_CHECK_OK(engine->Prepare(tmpl));
    return engine;
  };
  auto plain = make_engine(false);
  auto aqpp = make_engine(true);

  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = revenue;
  q.predicate.Add({visit_date, 101, 471});
  q.predicate.Add({duration, 33, 580});
  double truth = *exact.Execute(q);
  std::printf("\nquery: ad revenue for visits on days 101-471 lasting "
              "33-580s (truth %.5g)\n\n", truth);

  // The same seed draws the same consumption order on both engines.
  ExecuteControl control;
  control.seed = 7;
  auto plain_steps = std::move(plain->ExecuteOnline(q, control)).value();
  auto aqpp_steps = std::move(aqpp->ExecuteOnline(q, control)).value();

  std::printf("%-12s %-26s %-26s\n", "rows used", "AQP (plain sample)",
              "AQP++ (sample + BP-Cube)");
  for (size_t i = 0; i < plain_steps.size(); ++i) {
    auto rel = [&](const ConfidenceInterval& ci) {
      return 100.0 * ci.half_width / std::fabs(truth);
    };
    std::printf("%-12zu %.5g +-%5.2f%%        %.5g +-%5.2f%%\n",
                plain_steps[i].rows_used, plain_steps[i].ci.estimate,
                rel(plain_steps[i].ci), aqpp_steps[i].ci.estimate,
                rel(aqpp_steps[i].ci));
  }

  // ---- MIN/MAX with deterministic bounds (Section 8 extension) -----------
  std::printf("\nextremum questions (block extrema grid, deterministic "
              "bounds):\n");
  const ExtremaGrid* grid = aqpp->extrema_grid();
  RangeQuery max_q = q;
  max_q.func = AggregateFunction::kMax;
  double true_max = *exact.Execute(max_q);
  auto bounds = std::move(grid->MaxBounds(q.predicate)).value();
  std::printf("  MAX(adRevenue): bounds [%.5g, %.5g]%s   truth %.5g\n",
              bounds.has_lower ? bounds.lower : 0.0, bounds.upper,
              bounds.exact ? " (exact)" : "", true_max);
  RangeQuery min_q = q;
  min_q.func = AggregateFunction::kMin;
  double true_min = *exact.Execute(min_q);
  auto min_bounds = std::move(grid->MinBounds(q.predicate)).value();
  std::printf("  MIN(adRevenue): bounds [%.5g, %.5g]%s   truth %.5g\n",
              min_bounds.lower, min_bounds.has_lower ? min_bounds.upper : 0.0,
              min_bounds.exact ? " (exact)" : "", true_min);
  std::printf("\n(no sample of any size could bound an extremum; the grid "
              "answers from %zu cells)\n", grid->NumCells());
  return 0;
}
