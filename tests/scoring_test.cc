// Equivalence and determinism tests for the batched candidate-scoring
// pipeline (core/scoring.h):
//  * the cell-id matrix's box membership matches the predicate kernel's box
//    masks exactly,
//  * batched identification picks the same winning pre as the
//    per-candidate oracle (identification_oracle.h) with bit-identical CI
//    half-widths, for d in {1, 2, 3} and every supported aggregate
//    function,
//  * parallel scoring is bit-identical at 1, 4 and 8 threads.

#include <bit>
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "core/identification.h"
#include "core/scoring.h"
#include "cube/prefix_cube.h"
#include "identification_oracle.h"
#include "sampling/samplers.h"
#include "test_util.h"

namespace aqpp {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// A d-dimensional table: condition columns d0..d{d-1} uniform in [1, 32],
// measure column `a` (index d) Gaussian.
std::shared_ptr<Table> MakeTable(size_t d, size_t rows, uint64_t seed) {
  std::vector<ColumnSchema> cols;
  for (size_t i = 0; i < d; ++i) {
    cols.push_back({"d" + std::to_string(i), DataType::kInt64});
  }
  cols.push_back({"a", DataType::kDouble});
  auto table = std::make_shared<Table>(Schema(cols));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    auto row = table->AddRow();
    for (size_t i = 0; i < d; ++i) row.Int64(rng.NextInt(1, 32));
    row.Double(100.0 + 15.0 * rng.NextGaussian());
  }
  return table;
}

std::shared_ptr<PrefixCube> MakeCube(const Table& table, size_t d) {
  std::vector<DimensionPartition> dims;
  for (size_t i = 0; i < d; ++i) {
    dims.push_back(DimensionPartition{i, {8, 16, 24, 32}});
  }
  return std::move(PrefixCube::Build(
                       table, PartitionScheme(std::move(dims)),
                       {MeasureSpec::Sum(d), MeasureSpec::Count(),
                        MeasureSpec::SumSquares(d)}))
      .value();
}

RangeQuery MakeQuery(AggregateFunction func, size_t d, Rng& qrng) {
  RangeQuery q;
  q.func = func;
  q.agg_column = d;
  for (size_t i = 0; i < d; ++i) {
    int64_t lo = qrng.NextInt(1, 20);
    int64_t hi = lo + qrng.NextInt(5, 12);
    q.predicate.Add({i, lo, std::min<int64_t>(hi, 32)});
  }
  return q;
}

// ---- Cell-id matrix equivalence ---------------------------------------------

TEST(CellIndexTest, ContainsMatchesPredicateMask) {
  for (size_t d : {1u, 2u, 3u}) {
    auto table = MakeTable(d, 5000, 900 + d);
    auto cube = MakeCube(*table, d);
    Rng rng(901);
    auto sample = std::move(CreateUniformSample(*table, 0.3, rng)).value();

    CellIndex cells(*sample.rows, cube->scheme());
    ASSERT_EQ(cells.num_rows(), sample.size());

    Rng qrng(902);
    for (int trial = 0; trial < 5; ++trial) {
      RangeQuery q = MakeQuery(AggregateFunction::kSum, d, qrng);
      AggregateIdentifier ident(cube.get(), &sample, {}, rng);
      for (const auto& pre : ident.EnumerateCandidates(q)) {
        auto predicate_mask =
            pre.ToPredicate(cube->scheme()).EvaluateMask(*sample.rows);
        ASSERT_TRUE(predicate_mask.ok());
        for (size_t r = 0; r < sample.size(); ++r) {
          ASSERT_EQ(cells.Contains(r, pre) ? 1 : 0, (*predicate_mask)[r])
              << "d=" << d << " row " << r << " box "
              << pre.ToString(cube->scheme(), table->schema());
        }
      }
    }
  }
}

TEST(CellIndexTest, PreMaskOnSampleMatchesPredicateMask) {
  auto table = MakeTable(2, 5000, 910);
  auto cube = MakeCube(*table, 2);
  Rng rng(911);
  auto sample = std::move(CreateUniformSample(*table, 0.2, rng)).value();
  AggregateIdentifier ident(cube.get(), &sample, {}, rng);

  Rng qrng(912);
  RangeQuery q = MakeQuery(AggregateFunction::kSum, 2, qrng);
  for (const auto& pre : ident.EnumerateCandidates(q)) {
    auto predicate_mask =
        pre.ToPredicate(cube->scheme()).EvaluateMask(*sample.rows);
    ASSERT_TRUE(predicate_mask.ok());
    EXPECT_EQ(ident.PreMaskOnSample(pre), *predicate_mask);
  }
}

// ---- Batched scorer vs per-candidate oracle --------------------------------

TEST(BatchedScoringTest, MatchesLegacyPathAllFunctionsAndDims) {
  const AggregateFunction kFuncs[] = {
      AggregateFunction::kSum, AggregateFunction::kCount,
      AggregateFunction::kAvg, AggregateFunction::kVar};
  for (size_t d : {1u, 2u, 3u}) {
    auto table = MakeTable(d, 20000, 920 + d);
    auto cube = MakeCube(*table, d);
    Rng srng(921);
    auto sample = std::move(CreateUniformSample(*table, 0.2, srng)).value();

    // The oracle scores on the identifier's own scoring subsample.
    const IdentificationOptions opts;
    Rng c1(930);
    AggregateIdentifier batched(cube.get(), &sample, opts, c1);

    for (AggregateFunction func : kFuncs) {
      Rng qrng(940 + static_cast<uint64_t>(func));
      for (int trial = 0; trial < 3; ++trial) {
        RangeQuery q = MakeQuery(func, d, qrng);
        Rng r1(1000 + trial), r2(1000 + trial);
        auto b = batched.Identify(q, r1);
        auto l = oracle::Identify(batched, opts, q, r2);
        ASSERT_TRUE(b.ok()) << b.status();
        ASSERT_TRUE(l.ok()) << l.status();
        EXPECT_EQ(b->pre.lo, l->pre.lo) << "d=" << d << " trial=" << trial;
        EXPECT_EQ(b->pre.hi, l->pre.hi) << "d=" << d << " trial=" << trial;
        EXPECT_EQ(b->num_candidates, l->num_candidates);
        EXPECT_EQ(Bits(b->scored_error), Bits(l->scored_error))
            << "d=" << d << " trial=" << trial;
      }
    }
  }
}

TEST(BatchedScoringTest, ScoreAllMatchesLegacyPath) {
  auto table = MakeTable(2, 20000, 950);
  auto cube = MakeCube(*table, 2);
  Rng srng(951);
  auto sample = std::move(CreateUniformSample(*table, 0.2, srng)).value();

  const IdentificationOptions opts;
  Rng c1(952);
  AggregateIdentifier batched(cube.get(), &sample, opts, c1);

  Rng qrng(953);
  RangeQuery q = MakeQuery(AggregateFunction::kAvg, 2, qrng);
  Rng r1(954), r2(954);
  auto b = batched.ScoreAll(q, r1);
  auto l = oracle::ScoreAll(batched, opts, q, r2);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(l.ok());
  ASSERT_EQ(b->size(), l->size());
  for (size_t i = 0; i < b->size(); ++i) {
    EXPECT_EQ((*b)[i].pre.lo, (*l)[i].pre.lo);
    EXPECT_EQ((*b)[i].pre.hi, (*l)[i].pre.hi);
    EXPECT_EQ(Bits((*b)[i].scored_error), Bits((*l)[i].scored_error))
        << "candidate " << i;
  }
}

TEST(BatchedScoringTest, GreedyPathMatchesLegacy) {
  // d = 8 forces the greedy fallback; memoized batched scoring must agree
  // with the per-candidate oracle there too.
  auto table = MakeTable(8, 20000, 960);
  auto cube = MakeCube(*table, 8);
  Rng srng(961);
  auto sample = std::move(CreateUniformSample(*table, 0.2, srng)).value();

  const IdentificationOptions opts;
  Rng c1(962);
  AggregateIdentifier batched(cube.get(), &sample, opts, c1);

  Rng qrng(963);
  RangeQuery q = MakeQuery(AggregateFunction::kSum, 8, qrng);
  ASSERT_TRUE(oracle::UsesGreedy(batched, opts, q));
  Rng r1(964), r2(964);
  auto b = batched.Identify(q, r1);
  auto l = oracle::Identify(batched, opts, q, r2);
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(l.ok()) << l.status();
  EXPECT_EQ(b->pre.lo, l->pre.lo);
  EXPECT_EQ(b->pre.hi, l->pre.hi);
  EXPECT_EQ(b->num_candidates, l->num_candidates);
  EXPECT_EQ(Bits(b->scored_error), Bits(l->scored_error));
}

// ---- Schedule independence --------------------------------------------------

TEST(BatchedScoringTest, DeterministicAcrossThreadCounts) {
  const AggregateFunction kFuncs[] = {AggregateFunction::kSum,
                                      AggregateFunction::kAvg};
  auto table = MakeTable(3, 20000, 970);
  auto cube = MakeCube(*table, 3);
  Rng srng(971);
  auto sample = std::move(CreateUniformSample(*table, 0.2, srng)).value();

  for (AggregateFunction func : kFuncs) {
    // Reference run on a single-thread pool, then compare 4- and 8-thread
    // pools for bit-identical output.
    struct Outcome {
      PreAggregate pre;
      double scored_error;
    };
    std::vector<Outcome> outcomes;
    for (size_t threads : {1u, 4u, 8u}) {
      ThreadPool pool(threads);
      IdentificationOptions opts;
      opts.scoring_pool = &pool;
      Rng crng(972);
      AggregateIdentifier ident(cube.get(), &sample, opts, crng);
      Rng qrng(973);
      RangeQuery q = MakeQuery(func, 3, qrng);
      Rng r(974);
      auto best = ident.Identify(q, r);
      ASSERT_TRUE(best.ok()) << best.status();
      outcomes.push_back({best->pre, best->scored_error});
    }
    for (size_t i = 1; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].pre.lo, outcomes[0].pre.lo);
      EXPECT_EQ(outcomes[i].pre.hi, outcomes[0].pre.hi);
      // Bit-identical, not merely close: the schedule must not perturb a
      // single floating-point operation.
      EXPECT_EQ(outcomes[i].scored_error, outcomes[0].scored_error);
    }
  }
}

}  // namespace
}  // namespace aqpp
