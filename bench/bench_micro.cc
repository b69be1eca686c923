// Engine microbenchmarks (google-benchmark): the primitive operations whose
// costs the paper's response-time and preprocessing-time columns decompose
// into — predicate scans, cube construction, cube lookups, sampling,
// aggregate identification, and the difference estimator.

#include <cstdlib>
#include <fstream>
#include <map>

#include <benchmark/benchmark.h>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/identification.h"
#include "core/precompute.h"
#include "cube/extrema_grid.h"
#include "cube/prefix_cube.h"
#include "exec/executor.h"
#include "exec/hash_join.h"
#include "identification_oracle.h"
#include "sampling/samplers.h"
#include "synopsis/estimator.h"
#include "workload/tpcd_skew.h"

namespace aqpp {
namespace {

std::shared_ptr<Table> MicroTable() {
  static std::shared_ptr<Table> table =
      std::move(GenerateTpcdSkew({.rows = 500'000, .seed = 7})).value();
  return table;
}

Sample& MicroSample() {
  static Sample sample = [] {
    Rng rng(1);
    return std::move(CreateUniformSample(*MicroTable(), 0.01, rng)).value();
  }();
  return sample;
}

RangeQuery MicroQuery() {
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 10;
  q.predicate.Add({7, 400, 1200});   // l_shipdate
  q.predicate.Add({4, 10, 40});      // l_quantity
  return q;
}

void BM_ExactScan(benchmark::State& state) {
  auto table = MicroTable();
  ExactExecutor executor(table.get());
  RangeQuery q = MicroQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(*executor.Execute(q));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_ExactScan);

void BM_PredicateMask(benchmark::State& state) {
  auto table = MicroTable();
  RangeQuery q = MicroQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(*q.predicate.EvaluateMask(*table));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_PredicateMask);

void BM_UniformSampling(benchmark::State& state) {
  auto table = MicroTable();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*CreateUniformSample(*table, 0.01, rng));
  }
}
BENCHMARK(BM_UniformSampling);

void BM_CubeBuild(benchmark::State& state) {
  auto table = MicroTable();
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(3);
  auto sample = MicroSample();
  Precomputer pre(table.get(), &sample, 10,
                  {.forced_shape = {k, k}});
  for (auto _ : state) {
    auto result = pre.Precompute({7, 4}, k * k);
    benchmark::DoNotOptimize(result->cube);
  }
}
BENCHMARK(BM_CubeBuild)->Arg(16)->Arg(64)->Arg(181);

void BM_CubeLookup(benchmark::State& state) {
  auto table = MicroTable();
  auto sample = MicroSample();
  Precomputer pre(table.get(), &sample, 10, {.forced_shape = {100, 100}});
  auto result = std::move(pre.Precompute({7, 4}, 10000)).value();
  PreAggregate box;
  box.lo = {3, 7};
  box.hi = {60, 80};
  for (auto _ : state) {
    benchmark::DoNotOptimize(result.cube->BoxValue(box, 0));
  }
}
BENCHMARK(BM_CubeLookup);

void BM_Identification(benchmark::State& state) {
  auto table = MicroTable();
  auto& sample = MicroSample();
  Precomputer pre(table.get(), &sample, 10, {.forced_shape = {100, 100}});
  auto result = std::move(pre.Precompute({7, 4}, 10000)).value();
  Rng rng(4);
  AggregateIdentifier ident(result.cube.get(), &sample, {}, rng);
  RangeQuery q = MicroQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(*ident.Identify(q, rng));
  }
}
BENCHMARK(BM_Identification);

// ---- Identification scoring: batched pipeline vs legacy path ----------------

// One prepared identification workload per dimensionality: a d-dimensional
// BP-Cube over TPCD-Skew condition columns plus a misaligned d-range query.
struct IdentSetup {
  std::shared_ptr<PrefixCube> cube;
  RangeQuery query;
};

const IdentSetup& IdentSetupFor(size_t d) {
  static std::map<size_t, IdentSetup> cache;
  auto it = cache.find(d);
  if (it != cache.end()) return it->second;

  // Condition columns and the per-dimension cube shapes/query ranges.
  static const size_t kCols[] = {7, 4, 5, 6, 8};         // dates, qty, pct
  static const size_t kShape[] = {32, 16, 8, 4, 4};
  static const int64_t kQueryLo[] = {400, 10, 1, 0, 300};
  static const int64_t kQueryHi[] = {1200, 40, 8, 5, 1500};

  IdentSetup setup;
  auto table = MicroTable();
  auto& sample = MicroSample();
  std::vector<size_t> shape(kShape, kShape + d);
  std::vector<size_t> cols(kCols, kCols + d);
  size_t budget = 1;
  for (size_t s : shape) budget *= s;
  Precomputer pre(table.get(), &sample, 10, {.forced_shape = shape});
  setup.cube = std::move(pre.Precompute(cols, budget)).value().cube;

  setup.query.func = AggregateFunction::kSum;
  setup.query.agg_column = 10;
  for (size_t i = 0; i < d; ++i) {
    setup.query.predicate.Add({kCols[i], kQueryLo[i], kQueryHi[i]});
  }
  return cache.emplace(d, std::move(setup)).first->second;
}

// Args: (d, batched). batched = 0 scores through the per-candidate oracle
// (tests/identification_oracle.h). Items processed = scoring-sample rows
// swept per query (candidates * subsample size), so the counter reads as
// rows/sec of candidate-scoring throughput; per-query latency is the
// iteration time.
void BM_IdentificationScoring(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  const IdentSetup& setup = IdentSetupFor(d);
  const IdentificationOptions opts;
  Rng crng(40);
  AggregateIdentifier ident(setup.cube.get(), &MicroSample(), opts, crng);
  auto identify = [&](Rng& rng) {
    return batched ? ident.Identify(setup.query, rng)
                   : oracle::Identify(ident, opts, setup.query, rng);
  };
  Rng rng(41);
  auto first = identify(rng);
  const size_t candidates = first.ok() ? first->num_candidates : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*identify(rng));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(candidates * ident.scoring_sample().size()));
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(candidates));
}
BENCHMARK(BM_IdentificationScoring)
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Args({3, 0})->Args({3, 1})
    ->Args({5, 0})->Args({5, 1});

void BM_DifferenceEstimator(benchmark::State& state) {
  auto& sample = MicroSample();
  SampleEstimator est(&sample);
  RangeQuery q = MicroQuery();
  RangeQuery pre_q = q;
  pre_q.predicate.mutable_conditions()[0].lo = 420;
  Rng rng(5);
  PreValues pre{1e9, 5e4, 1e13};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *est.EstimateWithPre(q, pre_q.predicate, pre, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample.size()));
}
BENCHMARK(BM_DifferenceEstimator);

void BM_CubeMerge(benchmark::State& state) {
  auto table = MicroTable();
  auto& sample = MicroSample();
  Precomputer pre(table.get(), &sample, 10, {.forced_shape = {100, 100}});
  auto a = std::move(pre.Precompute({7, 4}, 10000)).value();
  auto b = std::move(pre.Precompute({7, 4}, 10000)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.cube->MergeFrom(*b.cube).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.cube->NumCells() * 3));
}
BENCHMARK(BM_CubeMerge);

void BM_ExtremaGridBuild(benchmark::State& state) {
  auto table = MicroTable();
  PartitionScheme scheme(
      {DimensionPartition{7, [] {
         std::vector<int64_t> cuts;
         for (int64_t v = 26; v <= 2557; v += 26) cuts.push_back(v);
         cuts.push_back(2557);
         return cuts;
       }()},
       DimensionPartition{4, {10, 20, 30, 40, 50}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(*ExtremaGrid::Build(*table, scheme, 10));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_ExtremaGridBuild);

void BM_ExtremaBounds(benchmark::State& state) {
  auto table = MicroTable();
  PartitionScheme scheme({DimensionPartition{7, [] {
                            std::vector<int64_t> cuts;
                            for (int64_t v = 26; v <= 2557; v += 26) {
                              cuts.push_back(v);
                            }
                            cuts.push_back(2557);
                            return cuts;
                          }()},
                          DimensionPartition{4, {10, 20, 30, 40, 50}}});
  auto grid = std::move(ExtremaGrid::Build(*table, scheme, 10)).value();
  RangePredicate pred;
  pred.Add({7, 400, 1200});
  pred.Add({4, 10, 40});
  for (auto _ : state) {
    benchmark::DoNotOptimize(*grid->MaxBounds(pred));
  }
}
BENCHMARK(BM_ExtremaBounds);

void BM_HashJoinFk(benchmark::State& state) {
  auto fact = MicroTable();
  // Dimension keyed by l_suppkey.
  Schema dim_schema({{"id", DataType::kInt64}, {"tier", DataType::kInt64}});
  auto dim = std::make_shared<Table>(dim_schema);
  int64_t max_supp = *fact->column(2).MaxInt64();
  for (int64_t s = 1; s <= max_supp; ++s) {
    dim->AddRow().Int64(s).Int64(s % 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *HashJoinFk(*fact, 2, *dim, 0, {.dimension_prefix = "s_"}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fact->num_rows()));
}
BENCHMARK(BM_HashJoinFk);

void BM_HillClimb(benchmark::State& state) {
  auto table = MicroTable();
  auto& sample = MicroSample();
  HillClimbOptimizer climber(sample.rows.get(), 7, 10, table->num_rows());
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(*climber.Optimize(k));
  }
}
BENCHMARK(BM_HillClimb)->Arg(32)->Arg(256);

// Dedicated legacy-vs-batched comparison (legacy = the per-candidate oracle
// of tests/identification_oracle.h): measures per-query identification
// latency for both scorer paths at d in {1, 2, 3, 5}, checks that they pick
// the same winning pre with scores equal within 1e-9, and writes the whole
// record (the PR's perf acceptance artifact) to BENCH_identification.json.
void WriteIdentificationComparisonJson(const std::string& path) {
  struct Row {
    size_t d = 0;
    size_t candidates = 0;
    size_t scoring_rows = 0;
    double legacy_seconds = 0;
    double batched_seconds = 0;
    bool winner_matches = false;
    double score_diff = 0;
  };
  std::vector<Row> rows;
  for (size_t d : {1u, 2u, 3u, 5u}) {
    const IdentSetup& setup = IdentSetupFor(d);
    // Score on the full sample (no subsampling) so the comparison measures
    // the scoring pipeline itself rather than the subsample-rate policy;
    // both paths see the identical row set.
    IdentificationOptions opts;
    opts.score_on_full_sample = true;
    Rng c1(40);
    AggregateIdentifier ident(setup.cube.get(), &MicroSample(), opts, c1);
    auto batched = [&](Rng& rng) { return ident.Identify(setup.query, rng); };
    auto legacy = [&](Rng& rng) {
      return oracle::Identify(ident, opts, setup.query, rng);
    };

    Row row;
    row.d = d;
    row.scoring_rows = ident.scoring_sample().size();
    {
      Rng r1(41), r2(41);
      auto b = batched(r1);
      auto l = legacy(r2);
      if (!b.ok() || !l.ok()) continue;
      row.candidates = b->num_candidates;
      row.winner_matches =
          b->pre.lo == l->pre.lo && b->pre.hi == l->pre.hi;
      row.score_diff = std::abs(b->scored_error - l->scored_error) /
                       std::max(1.0, std::abs(l->scored_error));
    }
    auto time_path = [&](const auto& identify) {
      // Warm, then time enough repetitions for a stable per-query latency.
      Rng rng(42);
      (void)identify(rng);
      size_t reps = 0;
      Timer timer;
      while (reps < 20 || (timer.ElapsedSeconds() < 0.25 && reps < 5000)) {
        auto r = identify(rng);
        benchmark::DoNotOptimize(r);
        ++reps;
      }
      return timer.ElapsedSeconds() / static_cast<double>(reps);
    };
    row.batched_seconds = time_path(batched);
    row.legacy_seconds = time_path(legacy);
    rows.push_back(row);
  }

  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"identification_scoring\",\n";
  out << StrFormat("  \"table_rows\": %zu,\n", MicroTable()->num_rows());
  out << StrFormat("  \"sample_rows\": %zu,\n", MicroSample().size());
  out << "  \"equivalence\": \"same winner and relative |score delta| <= "
         "1e-9 between batched and legacy scorer\",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    double scored_rows = static_cast<double>(r.candidates * r.scoring_rows);
    out << StrFormat(
        "    {\"d\": %zu, \"candidates\": %zu, \"scoring_rows\": %zu,\n"
        "     \"legacy_query_seconds\": %.3e, \"batched_query_seconds\": "
        "%.3e,\n"
        "     \"legacy_rows_per_sec\": %.4g, \"batched_rows_per_sec\": "
        "%.4g,\n"
        "     \"speedup\": %.2f, \"winner_matches\": %s, \"score_diff\": "
        "%.3e}%s\n",
        r.d, r.candidates, r.scoring_rows, r.legacy_seconds,
        r.batched_seconds, scored_rows / r.legacy_seconds,
        scored_rows / r.batched_seconds,
        r.legacy_seconds / r.batched_seconds,
        r.winner_matches && r.score_diff <= 1e-9 ? "true" : "false",
        r.score_diff, i + 1 < rows.size() ? "," : "");
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace aqpp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The identification comparison artifact; set AQPP_BENCH_IDENT_JSON to
  // change the output path, or =skip to disable.
  const char* json_path = std::getenv("AQPP_BENCH_IDENT_JSON");
  std::string path = json_path != nullptr ? json_path
                                          : "BENCH_identification.json";
  if (path != "skip") {
    aqpp::WriteIdentificationComparisonJson(path);
  }
  return 0;
}
