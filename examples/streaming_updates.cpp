// Streaming-append scenario (Appendix C, "Data Updates").
//
// A warehouse receives daily batches. Instead of rebuilding the sample and
// the BP-Cube from scratch, the engine's IngestManager:
//   * commits each batch to an exact delta, which queries scan and add to
//     the engine's answer while it is small (SUM/COUNT fold exactly), and
//   * absorbs the delta on demand: a delta cube is added onto the BP-Cube
//     (a linear prefix-cube merge) and the sample is continued by
//     Algorithm R, so it stays a uniform draw of everything seen so far.
//
// The run exits non-zero if the manager's row accounting ever disagrees
// with the rows the example appended.
//
// Build & run:  ./build/examples/streaming_updates

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "exec/executor.h"
#include "workload/tpcd_skew.h"

int main() {
  using namespace aqpp;

  std::printf("day 0: initial load of 400k rows\n");
  auto base =
      std::move(GenerateTpcdSkew({.rows = 400'000, .skew = 1.0, .seed = 42}))
          .value();

  // Prepare sample + cube once on the initial load.
  EngineOptions options;
  options.sample_rate = 0.02;
  options.cube_budget = 64;
  auto engine = std::move(AqppEngine::Create(base, options)).value();
  const size_t price = *base->GetColumnIndex("l_extendedprice");
  const size_t shipdate = *base->GetColumnIndex("l_shipdate");
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = price;
  tmpl.condition_columns = {shipdate};
  AQPP_CHECK_OK(engine->Prepare(tmpl));

  // Manual absorbs: no background thread, the example decides when.
  IngestOptions ingest_options;
  ingest_options.background = false;
  IngestManager ingest(engine.get(), ingest_options);

  // The running query the dashboard keeps asking.
  RangeQuery query;
  query.func = AggregateFunction::kSum;
  query.agg_column = price;
  query.predicate.Add({shipdate, 403, 1207});

  // Keep every batch around only to compute the ground truth for the demo.
  std::vector<std::shared_ptr<Table>> all_tables = {base};
  auto exact_total = [&]() {
    double total = 0;
    for (const auto& t : all_tables) {
      ExactExecutor ex(t.get());
      total += *ex.Execute(query);
    }
    return total;
  };

  uint64_t appended = 0;
  for (int day = 1; day <= 5; ++day) {
    auto batch = std::move(GenerateTpcdSkew(
                               {.rows = 60'000, .skew = 1.0,
                                .seed = 1000 + static_cast<uint64_t>(day)}))
                     .value();
    AQPP_CHECK_OK(ingest.Append(*batch));
    appended += batch->num_rows();
    all_tables.push_back(batch);

    std::printf("day %d: +60k rows", day);
    if (day % 2 == 0) {
      Timer absorb_timer;
      AQPP_CHECK_OK(ingest.AbsorbNow());
      std::printf(", absorbed in %.1f ms", absorb_timer.ElapsedMillis());
    }

    // AQP++ over the published cube + sample, plus an exact scan of the
    // rows still in the delta.
    auto result = std::move(engine->Execute(query)).value();
    ConfidenceInterval ci = result.ci;
    ci.estimate += *IngestManager::FoldValue(*ingest.delta(), query);

    const IngestSnapshot snap = ingest.snapshot();
    const double truth = exact_total();
    std::printf(" (%zu rows pending)\n"
                "       AQP++ %s   truth %.6g   err %.3f%%\n",
                snap.delta_rows, ci.ToString().c_str(), truth,
                100 * std::fabs(ci.estimate - truth) / truth);
    if (snap.total_rows != base->num_rows() + appended) {
      std::fprintf(stderr, "row accounting mismatch: %llu != %llu\n",
                   static_cast<unsigned long long>(snap.total_rows),
                   static_cast<unsigned long long>(base->num_rows() +
                                                   appended));
      return 1;
    }
  }

  const IngestSnapshot snap = ingest.snapshot();
  std::printf("\nfinal: %llu rows appended, %llu absorbed, %zu pending; "
              "sample still %zu rows (weight %.1f)\n",
              static_cast<unsigned long long>(snap.rows_committed),
              static_cast<unsigned long long>(snap.rows_absorbed),
              snap.delta_rows, engine->sample().size(),
              engine->sample().weights[0]);
  return 0;
}
