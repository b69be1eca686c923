// Streaming-append scenario (Appendix C, "Data Updates").
//
// A warehouse receives daily batches. Instead of rebuilding the sample and
// the BP-Cube from scratch, the maintenance layer:
//   * streams each batch through a reservoir so the sample stays an exact
//     uniform draw of everything seen so far, and
//   * buffers batches against the cube, answering queries exactly from
//     cube + buffer, folding the buffer in (a linear prefix-cube merge)
//     when it grows.
//
// Build & run:  ./build/examples/streaming_updates

#include <cmath>
#include <cstdio>

#include "common/timer.h"
#include "core/identification.h"
#include "core/maintenance.h"
#include "core/precompute.h"
#include "exec/executor.h"
#include "sampling/samplers.h"
#include "synopsis/estimator.h"
#include "workload/tpcd_skew.h"

int main() {
  using namespace aqpp;

  std::printf("day 0: initial load of 400k rows\n");
  auto base =
      std::move(GenerateTpcdSkew({.rows = 400'000, .skew = 1.0, .seed = 42}))
          .value();

  // Prepare sample + cube once on the initial load.
  Rng rng(1);
  auto sample = std::move(CreateUniformSample(*base, 0.02, rng)).value();
  size_t price = *base->GetColumnIndex("l_extendedprice");
  size_t shipdate = *base->GetColumnIndex("l_shipdate");
  Precomputer precomputer(base.get(), &sample, price);
  auto prepared = std::move(precomputer.Precompute({shipdate}, 64)).value();

  CubeMaintainer cube_maintainer(prepared.cube, base,
                                 {.compact_threshold = 150'000});
  ReservoirMaintainer sample_maintainer(sample, 2);

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

  for (int day = 1; day <= 5; ++day) {
    auto batch = std::move(GenerateTpcdSkew(
                               {.rows = 60'000, .skew = 1.0,
                                .seed = 1000 + static_cast<uint64_t>(day)}))
                     .value();
    Timer absorb_timer;
    AQPP_CHECK_OK(cube_maintainer.Absorb(*batch));
    AQPP_CHECK_OK(sample_maintainer.Absorb(*batch));
    double absorb_ms = absorb_timer.ElapsedMillis();
    all_tables.push_back(batch);

    // Answer with AQP++ against the maintained artifacts: identify the best
    // pre on the maintained cube, read its (cube + pending buffer) values,
    // estimate the difference on the maintained sample.
    Rng qrng(10 + static_cast<uint64_t>(day));
    AggregateIdentifier identifier(&cube_maintainer.cube(),
                                   &sample_maintainer.sample(), {}, qrng);
    auto identified = std::move(identifier.Identify(query, qrng)).value();
    PreValues pre;
    pre.sum = cube_maintainer.BoxValue(identified.pre, 0);
    pre.count = cube_maintainer.BoxValue(identified.pre, 1);
    pre.sum_sq = cube_maintainer.BoxValue(identified.pre, 2);
    SampleEstimator estimator(&sample_maintainer.sample());
    RangePredicate pre_pred =
        identified.pre.ToPredicate(cube_maintainer.cube().scheme());
    auto ci = std::move(
                  estimator.EstimateWithPre(query, pre_pred, pre, qrng))
                  .value();

    double truth = exact_total();
    std::printf(
        "day %d: +60k rows (absorb %.1f ms, pending %zu rows)\n"
        "       AQP++ %s   truth %.6g   err %.3f%%\n",
        day, absorb_ms, cube_maintainer.pending_rows(),
        ci.ToString().c_str(), truth,
        100 * std::fabs(ci.estimate - truth) / truth);
  }

  std::printf("\nfinal: %zu rows absorbed, sample still %zu rows "
              "(weights %.1f), cube untouched by %s\n",
              cube_maintainer.total_absorbed_rows(),
              sample_maintainer.sample().size(),
              sample_maintainer.sample().weights[0],
              cube_maintainer.pending_rows() == 0 ? "compaction"
                                                  : "pending buffer");
  return 0;
}
