// Shard tier unit battery: plan/seed determinism, wire round-trips, the
// exact-path bit-identity guarantee, the stratified merge fold, degradation
// semantics, and coordinator-over-TCP parity with the in-process group.
//
// The load-bearing assertions are bitwise (memcmp on doubles), not
// approximate: the shard tier's contract is that distribution is invisible
// in the answer bits, so EXPECT_NEAR would under-test it.

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "expr/query.h"
#include "kernels/kernels.h"
#include "service/client.h"
#include "shard/coordinator.h"
#include "shard/coordinator_server.h"
#include "shard/local_group.h"
#include "shard/partial.h"
#include "shard/partition.h"
#include "shard/worker.h"
#include "shard/worker_server.h"
#include "stats/confidence.h"
#include "storage/table.h"
#include "test_util.h"

namespace aqpp {
namespace shard {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

QueryTemplate SyntheticTemplate() {
  QueryTemplate t;
  t.func = AggregateFunction::kSum;
  t.agg_column = 2;  // measure `a`
  t.condition_columns = {0, 1};
  return t;
}

RangeQuery MakeQuery(AggregateFunction func, int64_t lo1, int64_t hi1,
                     int64_t lo2 = 0, int64_t hi2 = 49) {
  RangeQuery q;
  q.func = func;
  q.agg_column = 2;
  q.predicate.Add({0, lo1, hi1});
  q.predicate.Add({1, lo2, hi2});
  return q;
}

// ---- Plan & seeds ----------------------------------------------------------

TEST(ShardPlanTest, GridAlignedContiguousEvenSplit) {
  const uint64_t rows = 4 * kernels::kShardRows + 999;
  auto plan = MakeShardPlan(rows, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->num_shards(), 4u);
  EXPECT_EQ(plan->total_rows, rows);
  uint64_t expect_begin = 0;
  for (size_t i = 0; i < plan->shards.size(); ++i) {
    const ShardRange& r = plan->shards[i];
    EXPECT_EQ(r.row_begin, expect_begin) << "shard " << i;
    EXPECT_GT(r.rows(), 0u) << "shard " << i;
    if (i + 1 < plan->shards.size()) {
      EXPECT_EQ(r.row_end % kernels::kShardRows, 0u)
          << "interior boundary of shard " << i << " off the grid";
    }
    expect_begin = r.row_end;
  }
  EXPECT_EQ(expect_begin, rows);
}

TEST(ShardPlanTest, RejectsDegenerateRequests) {
  EXPECT_FALSE(MakeShardPlan(0, 2).ok());
  EXPECT_FALSE(MakeShardPlan(1000, 0).ok());
  // One grid block cannot feed two shards.
  EXPECT_FALSE(MakeShardPlan(kernels::kShardRows, 2).ok());
}

TEST(ShardSeedTest, DeterministicAndShardDistinct) {
  EXPECT_EQ(ShardSeed(42, 0), ShardSeed(42, 0));
  EXPECT_NE(ShardSeed(42, 0), ShardSeed(42, 1));
  EXPECT_NE(ShardSeed(42, 0), ShardSeed(43, 0));
}

// ---- Wire round-trips ------------------------------------------------------

TEST(ShardWireTest, PartialSpecRoundTrips) {
  PartialSpec spec;
  spec.query = MakeQuery(AggregateFunction::kVar, 30, 90, 1, 25);
  spec.wants = {.exact = true, .sample = true, .engine = true};
  spec.seed = 0xdeadbeefcafeULL;

  auto parsed = ParsePartialSpec(FormatPartialSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->query.func, spec.query.func);
  EXPECT_EQ(parsed->query.agg_column, spec.query.agg_column);
  ASSERT_EQ(parsed->query.predicate.size(), 2u);
  EXPECT_EQ(parsed->query.predicate.conditions()[0].column, 0u);
  EXPECT_EQ(parsed->query.predicate.conditions()[0].lo, 30);
  EXPECT_EQ(parsed->query.predicate.conditions()[1].hi, 25);
  EXPECT_TRUE(parsed->wants.exact);
  EXPECT_TRUE(parsed->wants.sample);
  EXPECT_TRUE(parsed->wants.engine);
  EXPECT_EQ(parsed->seed, spec.seed);
}

TEST(ShardWireTest, PartialRoundTripsBitExactly) {
  // Doubles chosen to exercise the full mantissa: a %.15g encoding would
  // fail this test, %.17g must not.
  ShardPartial p;
  p.shard_index = 1;
  p.num_shards = 4;
  p.rows = kernels::kShardRows + 17;
  p.has_exact = true;
  p.blocks.resize(2);
  p.blocks[0].count = kernels::kShardRows;
  p.blocks[1].count = 17;
  for (size_t l = 0; l < kernels::kAccumulatorLanes; ++l) {
    p.blocks[0].sum[l] = 1.0 / 3.0 + static_cast<double>(l);
    p.blocks[0].sum_sq[l] = M_PI * static_cast<double>(l + 1);
    p.blocks[1].sum[l] = -7.25e-13 * static_cast<double>(l + 1);
    p.blocks[1].sum_sq[l] = 2.0 / 7.0;
  }
  p.has_sample = true;
  p.stratum = {.sample_rows = 128,
               .population_rows = p.rows,
               .mean_c = 0.1875,
               .mean_s = 12.000000000000237,
               .mean_q = 1.0 / 9.0,
               .var_c = 0.25,
               .var_s = 1e300,
               .var_q = 2.2250738585072014e-308,  // smallest normal double
               .cov_cs = -1.0 / 3.0,
               .cov_cq = 0.0,
               .cov_sq = 1234.5678901234567};
  p.has_engine = true;
  p.engine_estimate = -987654.32109876543;
  p.engine_half_width = 1.0000000000000002;
  p.engine_used_pre = true;
  p.exec_seconds = 0.001953125;

  Response response;
  EncodePartial(p, &response);
  auto back = ParsePartial(response);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(back->shard_index, p.shard_index);
  EXPECT_EQ(back->num_shards, p.num_shards);
  EXPECT_EQ(back->rows, p.rows);
  ASSERT_TRUE(back->has_exact);
  ASSERT_EQ(back->blocks.size(), p.blocks.size());
  for (size_t b = 0; b < p.blocks.size(); ++b) {
    EXPECT_EQ(back->blocks[b].count, p.blocks[b].count);
    for (size_t l = 0; l < kernels::kAccumulatorLanes; ++l) {
      EXPECT_TRUE(SameBits(back->blocks[b].sum[l], p.blocks[b].sum[l]));
      EXPECT_TRUE(SameBits(back->blocks[b].sum_sq[l], p.blocks[b].sum_sq[l]));
    }
  }
  ASSERT_TRUE(back->has_sample);
  EXPECT_EQ(back->stratum.sample_rows, p.stratum.sample_rows);
  EXPECT_EQ(back->stratum.population_rows, p.stratum.population_rows);
  EXPECT_TRUE(SameBits(back->stratum.mean_s, p.stratum.mean_s));
  EXPECT_TRUE(SameBits(back->stratum.var_s, p.stratum.var_s));
  EXPECT_TRUE(SameBits(back->stratum.var_q, p.stratum.var_q));
  EXPECT_TRUE(SameBits(back->stratum.cov_cs, p.stratum.cov_cs));
  EXPECT_TRUE(SameBits(back->stratum.cov_sq, p.stratum.cov_sq));
  ASSERT_TRUE(back->has_engine);
  EXPECT_TRUE(SameBits(back->engine_estimate, p.engine_estimate));
  EXPECT_TRUE(SameBits(back->engine_half_width, p.engine_half_width));
  EXPECT_TRUE(back->engine_used_pre);
}

// ---- Shared fixture: one multi-block table, groups at several widths -------

class ShardGroupTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Four grid blocks (3 full + 1 partial) so 1/2/4-shard plans all exist
    // and the last shard ends off-grid.
    testutil::SyntheticOptions opt;
    opt.rows = 3 * kernels::kShardRows + 12345;
    opt.correlated = true;
    opt.seed = testutil::TestSeed(9001);
    table_ = testutil::MakeSynthetic(opt);

    LocalShardGroupOptions gopt;
    gopt.worker.sample_size = 512;
    gopt.worker.cube_budget = 64;
    gopt.worker.base_seed = 42;
    for (size_t n : {1, 2, 4}) {
      auto group = LocalShardGroup::Build(table_, SyntheticTemplate(), n, gopt);
      ASSERT_TRUE(group.ok()) << group.status().ToString();
      groups_.push_back(std::move(*group));
    }
  }

  static void TearDownTestSuite() {
    groups_.clear();
    table_.reset();
  }

  static const LocalShardGroup& GroupOf(size_t shards) {
    for (const auto& g : groups_) {
      if (g->num_shards() == shards) return *g;
    }
    ADD_FAILURE() << "no group with " << shards << " shards";
    return *groups_.front();
  }

  static std::shared_ptr<Table> table_;
  static std::vector<std::unique_ptr<LocalShardGroup>> groups_;
};

std::shared_ptr<Table> ShardGroupTest::table_;
std::vector<std::unique_ptr<LocalShardGroup>> ShardGroupTest::groups_;

TEST_F(ShardGroupTest, ExactMergeIsBitIdenticalToSingleTableScan) {
  ExactExecutor exact(table_.get());
  const std::vector<RangeQuery> battery = {
      MakeQuery(AggregateFunction::kCount, 0, 99),
      MakeQuery(AggregateFunction::kSum, 0, 99),
      MakeQuery(AggregateFunction::kSum, 30, 90, 1, 25),
      MakeQuery(AggregateFunction::kAvg, 10, 80),
      MakeQuery(AggregateFunction::kVar, 0, 99),
      MakeQuery(AggregateFunction::kVar, 25, 60, 5, 40),
  };
  for (const RangeQuery& q : battery) {
    auto truth = exact.Execute(q);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    for (size_t shards : {1, 2, 4}) {
      auto merged = GroupOf(shards).Query(
          q, {.exact = true}, /*seed=*/7, {.mode = MergeMode::kExact});
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      EXPECT_FALSE(merged->degraded);
      EXPECT_EQ(merged->shards_answered, static_cast<uint32_t>(shards));
      // The whole point of the tier: sharding must be invisible in the bits.
      EXPECT_TRUE(SameBits(merged->ci.estimate, *truth))
          << shards << " shards, " << q.ToString(table_->schema())
          << ": merged " << merged->ci.estimate << " vs exact " << *truth;
      // Exact answers carry a zero-width "interval".
      EXPECT_EQ(merged->ci.half_width, 0.0);
    }
  }
}

TEST_F(ShardGroupTest, EngineMergeOnAnotherMeasureLeansOnNoCube) {
  // Every shard engine's cube is on `a`; a SUM over `c2` must be each
  // shard's plain-AQP answer, not a difference against sums of `a`.
  RangeQuery q = MakeQuery(AggregateFunction::kSum, 20, 85);
  q.agg_column = 1;
  auto truth = ExactExecutor(table_.get()).Execute(q);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  for (size_t shards : {1, 2, 4}) {
    auto merged = GroupOf(shards).Query(q, {.engine = true}, /*seed=*/13,
                                        {.mode = MergeMode::kEngine});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_FALSE(merged->used_pre) << shards << " shards";
    EXPECT_TRUE(merged->ci.Contains(*truth))
        << shards << " shards: " << merged->ci.ToString() << " vs truth "
        << *truth;
  }
}

TEST_F(ShardGroupTest, SampleMergeMatchesStratifiedFoldWitness) {
  // Recompute the documented stratified-by-shard fold from the raw stratum
  // moments and demand bitwise agreement with MergePartials — pins the merge
  // to the stratified formula (est = sum N_h mean_h, var = sum N_h^2 s_h^2 /
  // n_h), term order included.
  const RangeQuery sum_q = MakeQuery(AggregateFunction::kSum, 20, 85);
  const RangeQuery count_q = MakeQuery(AggregateFunction::kCount, 20, 85);
  for (size_t shards : {2, 4}) {
    const LocalShardGroup& group = GroupOf(shards);
    for (const RangeQuery& q : {sum_q, count_q}) {
      auto partials = group.Scatter(q, {.sample = true}, /*seed=*/11);
      double est = 0, var = 0;
      for (const auto& p : partials) {
        ASSERT_TRUE(p.has_value());
        const StratumPartial& st = p->stratum;
        if (st.sample_rows == 0) continue;
        const double num_pop = static_cast<double>(st.population_rows);
        const double n_h = static_cast<double>(st.sample_rows);
        const bool is_sum = q.func == AggregateFunction::kSum;
        est += num_pop * (is_sum ? st.mean_s : st.mean_c);
        var += num_pop * num_pop * (is_sum ? st.var_s : st.var_c) / n_h;
      }
      const double half =
          NormalCriticalValue(0.95) * std::sqrt(std::max(0.0, var));

      auto merged =
          MergePartials(q, partials, {.mode = MergeMode::kSample,
                                      .total_rows = group.total_rows()});
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      EXPECT_FALSE(merged->degraded);
      EXPECT_TRUE(SameBits(merged->ci.estimate, est)) << shards << " shards";
      EXPECT_TRUE(SameBits(merged->ci.half_width, half)) << shards << " shards";
    }
  }
}

TEST_F(ShardGroupTest, ScatterIsDeterministicAndThreadingInvisible) {
  // Same (data, query, seed) must produce the same partial bits whether the
  // scatter ran on threads or inline — and across repeated runs.
  LocalShardGroupOptions seq;
  seq.worker.sample_size = 512;
  seq.worker.cube_budget = 64;
  seq.worker.base_seed = 42;
  seq.parallel = false;
  auto sequential = LocalShardGroup::Build(table_, SyntheticTemplate(), 2, seq);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 15, 70, 2, 30);
  const PartialWants wants = {.exact = true, .sample = true, .engine = true};
  auto a = GroupOf(2).Scatter(q, wants, 99);
  auto b = GroupOf(2).Scatter(q, wants, 99);
  auto c = (*sequential)->Scatter(q, wants, 99);
  ASSERT_EQ(a.size(), 2u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].has_value() && b[i].has_value() && c[i].has_value());
    for (const auto* other : {&b[i], &c[i]}) {
      EXPECT_TRUE(SameBits(a[i]->stratum.mean_s, (*other)->stratum.mean_s));
      EXPECT_TRUE(SameBits(a[i]->stratum.var_s, (*other)->stratum.var_s));
      EXPECT_TRUE(SameBits(a[i]->engine_estimate, (*other)->engine_estimate));
      EXPECT_TRUE(
          SameBits(a[i]->engine_half_width, (*other)->engine_half_width));
      ASSERT_EQ(a[i]->blocks.size(), (*other)->blocks.size());
      for (size_t blk = 0; blk < a[i]->blocks.size(); ++blk) {
        EXPECT_TRUE(SameBits(a[i]->blocks[blk].sum[0],
                             (*other)->blocks[blk].sum[0]));
      }
    }
  }
  // Different seed, different reservoir-consumer draws on the engine view.
  auto d = GroupOf(2).Scatter(q, wants, 100);
  ASSERT_TRUE(d[0].has_value());
  // (The sample/exact views are seed-independent by construction.)
  EXPECT_TRUE(SameBits(a[0]->stratum.mean_s, d[0]->stratum.mean_s));
  EXPECT_TRUE(SameBits(a[0]->blocks[0].sum[0], d[0]->blocks[0].sum[0]));
}

TEST_F(ShardGroupTest, MergeRejectsMisshapenPartials) {
  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 0, 99);
  auto partials = GroupOf(2).Scatter(q, {.sample = true}, 3);
  ASSERT_EQ(partials.size(), 2u);

  // Slot/index mismatch.
  std::vector<std::optional<ShardPartial>> swapped = {partials[1], partials[0]};
  EXPECT_FALSE(MergePartials(q, swapped, {.mode = MergeMode::kSample}).ok());

  // Shard-count mismatch.
  auto wrong_count = partials;
  wrong_count[0]->num_shards = 3;
  EXPECT_FALSE(
      MergePartials(q, wrong_count, {.mode = MergeMode::kSample}).ok());

  // Mode requests a view the partial doesn't carry.
  EXPECT_FALSE(MergePartials(q, partials, {.mode = MergeMode::kExact}).ok());

  // Unsupported shapes.
  RangeQuery minq = MakeQuery(AggregateFunction::kMin, 0, 99);
  EXPECT_FALSE(MergePartials(minq, partials, {.mode = MergeMode::kSample}).ok());
  RangeQuery grouped = q;
  grouped.group_by = {1};
  EXPECT_FALSE(
      MergePartials(grouped, partials, {.mode = MergeMode::kSample}).ok());
}

TEST_F(ShardGroupTest, NanStratumVarianceGivesNanHalfWidth) {
  // A NaN variance must surface as a NaN interval, never as a certain one:
  // clamping it to 0 would report a NaN estimate with half-width 0.
  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 0, 99);
  auto partials = GroupOf(2).Scatter(q, {.sample = true}, 3);
  ASSERT_TRUE(partials[1].has_value());
  partials[1]->stratum.mean_s = std::nan("");
  partials[1]->stratum.var_s = std::nan("");
  auto merged = MergePartials(q, partials, {.mode = MergeMode::kSample});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(std::isnan(merged->ci.estimate));
  EXPECT_TRUE(std::isnan(merged->ci.half_width));
}

TEST_F(ShardGroupTest, DegradedMergeIsFlaggedAndNeverTighter) {
  // Mutate a private copy, not the shared fixture group.
  LocalShardGroupOptions gopt;
  gopt.worker.sample_size = 512;
  gopt.worker.cube_budget = 64;
  gopt.worker.base_seed = 42;
  auto owned = LocalShardGroup::Build(table_, SyntheticTemplate(), 4, gopt);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  LocalShardGroup& group = **owned;

  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90);
  MergeOptions mopt;
  mopt.mode = MergeMode::kSample;
  mopt.total_rows = group.total_rows();

  auto full = group.Query(q, {.sample = true}, 5, mopt);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->degraded);

  group.FailShard(2, true);
  auto degraded = group.Query(q, {.sample = true}, 5, mopt);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->shards_total, 4u);
  EXPECT_EQ(degraded->shards_answered, 3u);
  EXPECT_TRUE(std::isfinite(degraded->ci.estimate));
  // Chaos invariant (b): a degraded CI must never read tighter than the
  // full answer's.
  EXPECT_GE(degraded->ci.half_width, full->ci.half_width);

  // Degradation disabled: a missing shard fails the merge outright.
  MergeOptions strict = mopt;
  strict.allow_degraded = false;
  EXPECT_FALSE(group.Query(q, {.sample = true}, 5, strict).ok());

  // Nobody answered: no answer to extrapolate from.
  for (uint32_t s = 0; s < 4; ++s) group.FailShard(s, true);
  EXPECT_FALSE(group.Query(q, {.sample = true}, 5, mopt).ok());
}

// ---- Coordinator over real sockets -----------------------------------------

class CoordinatorTcpTest : public ShardGroupTest {
 protected:
  void SetUp() override {
    const LocalShardGroup& group = GroupOf(2);
    for (size_t i = 0; i < group.num_shards(); ++i) {
      auto server = std::make_unique<WorkerServer>(&group.worker(i));
      ASSERT_TRUE(server->Start().ok());
      endpoints_.push_back({{.host = "127.0.0.1", .port = server->port()}});
      servers_.push_back(std::move(server));
    }
  }

  void TearDown() override {
    for (auto& s : servers_) s->Stop();
  }

  std::vector<std::unique_ptr<WorkerServer>> servers_;
  std::vector<std::vector<ReplicaEndpoint>> endpoints_;
};

TEST_F(CoordinatorTcpTest, TcpScatterMatchesInProcessGroupBitwise) {
  CoordinatorOptions copt;
  copt.mode = MergeMode::kSample;
  ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());
  EXPECT_EQ(coordinator.num_shards(), 2u);
  EXPECT_EQ(coordinator.total_rows(), GroupOf(2).total_rows());

  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 30, 90, 1, 25);
  MergeOptions mopt;
  mopt.mode = MergeMode::kSample;
  mopt.total_rows = coordinator.total_rows();

  auto local = GroupOf(2).Query(q, {.sample = true}, 123, mopt);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  auto partials = coordinator.Scatter(q, 123);
  auto remote = MergePartials(q, partials, mopt);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // TCP transport (encode -> %.17g wire -> parse) must be invisible.
  EXPECT_TRUE(SameBits(remote->ci.estimate, local->ci.estimate));
  EXPECT_TRUE(SameBits(remote->ci.half_width, local->ci.half_width));
}

// PARTIALs that arrive together at one WorkerServer are fused into shared
// PartialBatch passes; over the wire every reply must still carry exactly
// the bits a solo ShardWorker::Partial computes for the same request.
TEST_F(CoordinatorTcpTest, ConcurrentWirePartialsMatchSoloPartialBitwise) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  const ShardWorker& worker = GroupOf(2).worker(0);
  const AggregateFunction funcs[] = {
      AggregateFunction::kSum, AggregateFunction::kCount,
      AggregateFunction::kAvg, AggregateFunction::kVar};

  // The reply line minus its wall-clock field, which legitimately differs.
  auto canonical = [](ShardPartial p) {
    p.exec_seconds = 0;
    Response r;
    EncodePartial(p, &r);
    return FormatResponse(r);
  };

  std::vector<PartialSpec> specs;
  std::vector<std::string> expected;
  for (int i = 0; i < kClients * kRequestsPerClient; ++i) {
    PartialSpec spec;
    spec.query = MakeQuery(funcs[i % 4], 5 + i, 60 + i, i % 7, 30 + i % 11);
    spec.wants = {.exact = i % 3 == 0, .sample = true, .engine = i % 2 == 0};
    spec.seed = 1000 + static_cast<uint64_t>(i);
    auto solo = worker.Partial(spec.query, spec.wants, spec.seed);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    expected.push_back(canonical(*solo));
    specs.push_back(std::move(spec));
  }

  std::vector<std::string> got(specs.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServiceClient::Connect("127.0.0.1", servers_[0]->port());
      // Start together so requests overlap and batches actually form.
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      if (!client.ok()) return;  // its replies stay empty and mismatch
      for (int j = 0; j < kRequestsPerClient; ++j) {
        const size_t i = static_cast<size_t>(c * kRequestsPerClient + j);
        auto reply = client->Call("PARTIAL " + FormatPartialSpec(specs[i]));
        if (!reply.ok()) {
          got[i] = reply.status().ToString();
          continue;
        }
        auto partial = ParsePartial(*reply);
        got[i] = partial.ok() ? canonical(*partial)
                              : partial.status().ToString();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "request " << i;
  }
}

TEST_F(CoordinatorTcpTest, QueryCachesFullAnswersButNeverDegradedOnes) {
  CoordinatorOptions copt;
  copt.mode = MergeMode::kSample;
  copt.shard_timeout_seconds = 1.0;
  ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());

  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 30, 90, 1, 25);
  auto first = coordinator.Query(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_FALSE(first->merged.degraded);

  auto second = coordinator.Query(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(SameBits(second->merged.ci.estimate, first->merged.ci.estimate));
  EXPECT_TRUE(
      SameBits(second->merged.ci.half_width, first->merged.ci.half_width));

  // Kill shard 1's only replica: a fresh query degrades — and must not be
  // cached, so asking again still scatters and still reports degraded.
  servers_[1]->Stop();
  const RangeQuery q2 = MakeQuery(AggregateFunction::kSum, 5, 60);
  auto degraded = coordinator.Query(q2);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(degraded->cache_hit);
  EXPECT_TRUE(degraded->merged.degraded);
  EXPECT_EQ(degraded->merged.shards_answered, 1u);

  auto again = coordinator.Query(q2);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit) << "degraded answer must never be cached";
  EXPECT_TRUE(again->merged.degraded);

  // The cached full answer is still served.
  auto cached = coordinator.Query(q);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit);
  EXPECT_FALSE(cached->merged.degraded);
}

TEST_F(CoordinatorTcpTest, ClientDegradedRetryPolicy) {
  // End-to-end pin of the RetryPolicy::retry_degraded contract through the
  // coordinator server: SQL in, degraded flag out, client loop behavior.
  CoordinatorOptions copt;
  copt.mode = MergeMode::kSample;
  copt.shard_timeout_seconds = 1.0;
  ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());

  Catalog catalog;
  catalog.Register("t", table_);
  CoordinatorServer front(&coordinator, &catalog);
  ASSERT_TRUE(front.Start().ok());

  auto client = ServiceClient::Connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::string sql =
      "SELECT SUM(a) FROM t WHERE c1 BETWEEN 10 AND 90";
  auto healthy = client->Query(sql);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->degraded);

  servers_[0]->Stop();
  const std::string sql2 =
      "SELECT SUM(a) FROM t WHERE c1 BETWEEN 20 AND 80";

  // Default policy: a degraded reply is an answer, returned immediately.
  int backoffs = 0;
  RetryPolicy no_retry;
  no_retry.max_attempts = 3;
  no_retry.on_backoff = [&](int, double) { ++backoffs; };
  auto lenient = client->QueryWithRetry(sql2, no_retry);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_TRUE(lenient->degraded);
  EXPECT_EQ(backoffs, 0);

  // Opt-in: the loop resubmits hoping for a full answer and hands back the
  // last degraded reply only once attempts are exhausted.
  backoffs = 0;
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.retry_degraded = true;
  retry.initial_backoff_seconds = 0.001;
  retry.on_backoff = [&](int, double) { ++backoffs; };
  auto strict = client->QueryWithRetry(sql2, retry);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_TRUE(strict->degraded);
  EXPECT_EQ(backoffs, 2) << "each non-final degraded attempt backs off";

  client->Close();
  front.Stop();
}

}  // namespace
}  // namespace shard
}  // namespace aqpp
