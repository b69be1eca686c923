// Chaos battery for the scatter-gather tier. Drives the real TCP stack
// (WorkerServer replicas + ShardCoordinator) through the deterministic
// fault-injection seams and asserts the three shard invariants from the
// design doc:
//
//   (a) fault-free merged answers are bit-identical to the single-engine
//       answer (and to the in-process group) — faults that are fully
//       absorbed by replica failover must leave the bits untouched;
//   (b) degraded answers are flagged, carry a CI no tighter than the full
//       answer's, and are never cached;
//   (c) the whole tier is a pure function of its seeds: the same seed
//       produces the same answer fingerprint, faults included.
//
// Connection-drop faults use the shard/worker/recv and shard/worker/send
// failpoints (the stand-ins for a killed worker mid-request); a stopped
// WorkerServer stands in for a worker that is gone entirely.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "expr/query.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "shard/coordinator.h"
#include "shard/local_group.h"
#include "shard/partial.h"
#include "shard/worker_server.h"
#include "storage/table.h"
#include "test_util.h"

namespace aqpp {
namespace shard {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// FNV-1a over the %.17g rendering of each answer, the same shape the chaos
// runner uses for schedule fingerprints: any single-bit drift in any answer
// changes the fingerprint.
uint64_t Fingerprint(const std::vector<MergedAnswer>& answers) {
  uint64_t h = 1469598103934665603ULL;
  char buf[128];
  for (const MergedAnswer& a : answers) {
    int n = std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%d|%u", a.ci.estimate,
                          a.ci.half_width, a.degraded ? 1 : 0,
                          a.shards_answered);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

QueryTemplate SyntheticTemplate() {
  QueryTemplate t;
  t.func = AggregateFunction::kSum;
  t.agg_column = 2;
  t.condition_columns = {0, 1};
  return t;
}

RangeQuery MakeQuery(AggregateFunction func, int64_t lo1, int64_t hi1) {
  RangeQuery q;
  q.func = func;
  q.agg_column = 2;
  q.predicate.Add({0, lo1, hi1});
  return q;
}

std::vector<RangeQuery> Battery() {
  return {MakeQuery(AggregateFunction::kCount, 0, 99),
          MakeQuery(AggregateFunction::kSum, 10, 90),
          MakeQuery(AggregateFunction::kSum, 40, 60),
          MakeQuery(AggregateFunction::kAvg, 5, 75),
          MakeQuery(AggregateFunction::kVar, 20, 95)};
}

// Two shards, two interchangeable replicas per shard (the same worker object
// served twice — replicas of a shard are bit-identical by construction, and
// serving one worker from two sockets is the cheapest honest model of that).
class ShardChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testutil::SyntheticOptions opt;
    opt.rows = kernels::kShardRows + 23456;  // two grid blocks
    opt.correlated = true;
    opt.seed = testutil::TestSeed(31337);
    table_ = testutil::MakeSynthetic(opt);

    LocalShardGroupOptions gopt;
    gopt.worker.sample_size = 512;
    gopt.worker.cube_budget = 64;
    gopt.worker.base_seed = 42;
    auto group = LocalShardGroup::Build(table_, SyntheticTemplate(), 2, gopt);
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    group_ = std::move(*group);
  }

  static void TearDownTestSuite() {
    group_.reset();
    table_.reset();
  }

  void SetUp() override {
    fail::Registry::Global().DisableAll();
    for (size_t shard = 0; shard < group_->num_shards(); ++shard) {
      std::vector<ReplicaEndpoint> reps;
      for (int r = 0; r < 2; ++r) {
        auto server = std::make_unique<WorkerServer>(&group_->worker(shard));
        ASSERT_TRUE(server->Start().ok());
        reps.push_back({.host = "127.0.0.1", .port = server->port()});
        servers_.push_back(std::move(server));
      }
      endpoints_.push_back(std::move(reps));
    }
  }

  void TearDown() override {
    fail::Registry::Global().DisableAll();
    for (auto& s : servers_) s->Stop();
    servers_.clear();
    endpoints_.clear();
  }

  // Scatter+merge through a coordinator, bypassing its cache so every call
  // exercises the sockets.
  static Result<MergedAnswer> Ask(const ShardCoordinator& c,
                                  const RangeQuery& q, uint64_t seed,
                                  MergeMode mode) {
    MergeOptions mopt;
    mopt.mode = mode;
    mopt.total_rows = c.total_rows();
    return MergePartials(q, c.Scatter(q, seed), mopt);
  }

  // Waits (up to 10 s) until no worker server holds a connection.
  bool WaitForIdleWorkers() const {
    for (int i = 0; i < 1000; ++i) {
      bool idle = true;
      for (const auto& s : servers_) {
        idle = idle && s->active_connections() == 0;
      }
      if (idle) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  static std::shared_ptr<Table> table_;
  static std::unique_ptr<LocalShardGroup> group_;
  std::vector<std::unique_ptr<WorkerServer>> servers_;
  std::vector<std::vector<ReplicaEndpoint>> endpoints_;
};

std::shared_ptr<Table> ShardChaosTest::table_;
std::unique_ptr<LocalShardGroup> ShardChaosTest::group_;

TEST_F(ShardChaosTest, FaultFreeTcpExactMatchesSingleEngineBitwise) {
  // Invariant (a), strongest form: the distributed exact path over real
  // sockets equals the unsharded in-memory scan, bit for bit.
  CoordinatorOptions copt;
  copt.mode = MergeMode::kExact;
  ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());
  ExactExecutor exact(table_.get());
  for (const RangeQuery& q : Battery()) {
    auto truth = exact.Execute(q);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    auto merged = Ask(coordinator, q, 7, MergeMode::kExact);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_FALSE(merged->degraded);
    EXPECT_TRUE(SameBits(merged->ci.estimate, *truth))
        << q.ToString(table_->schema());
  }
}

TEST_F(ShardChaosTest, DroppedConnectionIsAbsorbedByReplicaFailover) {
  if (!fail::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (AQPP_ENABLE_FAILPOINTS=OFF)";
  }
  CoordinatorOptions copt;
  copt.mode = MergeMode::kSample;
  copt.shard_timeout_seconds = 1.0;
  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90);
  std::optional<MergedAnswer> baseline;
  {
    ShardCoordinator coordinator(endpoints_, copt);
    ASSERT_TRUE(coordinator.Connect().ok());
    auto first = Ask(coordinator, q, 99, MergeMode::kSample);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_FALSE(first->degraded);
    baseline = *first;
  }
  obs::Counter* failovers =
      obs::Registry::Global().GetCounter("aqpp_coord_failovers_total");

  // One connection dies mid-request; every shard still has a healthy
  // replica, so the answer must come back full — and because replicas are
  // bit-identical, with the same bits. The recv seam fires before a
  // connection's next read, so a pooled connection would take the fault
  // after its request instead of dropping it. Each seam therefore gets a
  // fresh coordinator, armed once every worker connection from before has
  // closed: the measured query's own connections are the only readers.
  for (const char* seam : {"shard/worker/recv", "shard/worker/send"}) {
    ShardCoordinator coordinator(endpoints_, copt);
    ASSERT_TRUE(coordinator.Connect().ok());
    ASSERT_TRUE(WaitForIdleWorkers()) << seam;
    const uint64_t failovers_before = failovers->value();
    fail::Registry::Global().Enable(seam, fail::Trigger::OneShot(),
                                    {.kind = fail::ActionKind::kReturnError});
    auto merged = Ask(coordinator, q, 99, MergeMode::kSample);
    fail::Registry::Global().DisableAll();
    ASSERT_TRUE(merged.ok()) << seam << ": " << merged.status().ToString();
    EXPECT_FALSE(merged->degraded) << seam;
    EXPECT_EQ(merged->shards_answered, 2u) << seam;
    EXPECT_TRUE(SameBits(merged->ci.estimate, baseline->ci.estimate)) << seam;
    EXPECT_TRUE(SameBits(merged->ci.half_width, baseline->ci.half_width))
        << seam;
    if (obs::kCompiledIn) {
      EXPECT_GT(failovers->value(), failovers_before)
          << seam << ": the fault missed the measured query";
    }
  }
}

TEST_F(ShardChaosTest, DeadShardDegradesFlaggedWiderAndUncached) {
  CoordinatorOptions copt;
  copt.mode = MergeMode::kSample;
  copt.shard_timeout_seconds = 1.0;
  ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());

  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90);
  auto full = coordinator.Query(q);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->merged.degraded);

  // Kill every replica of shard 1: servers_[2] and servers_[3].
  servers_[2]->Stop();
  servers_[3]->Stop();

  // The full-coverage reference for the next query comes from the
  // in-process group (no sockets involved, unaffected by the kill).
  const RangeQuery q2 = MakeQuery(AggregateFunction::kSum, 15, 85);
  MergeOptions mopt;
  mopt.mode = MergeMode::kSample;
  mopt.total_rows = group_->total_rows();
  auto reference = group_->Query(q2, {.sample = true}, full->seed, mopt);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  auto degraded = coordinator.Query(q2);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  // Invariant (b): flagged, strictly fewer shards, CI no tighter than the
  // full-coverage answer to the same query.
  EXPECT_TRUE(degraded->merged.degraded);
  EXPECT_FALSE(degraded->cache_hit);
  EXPECT_EQ(degraded->merged.shards_answered, 1u);
  EXPECT_TRUE(std::isfinite(degraded->merged.ci.estimate));
  EXPECT_GE(degraded->merged.ci.half_width, reference->ci.half_width);

  // ... and never cached: the same query scatters again and stays degraded.
  auto again = coordinator.Query(q2);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);
  EXPECT_TRUE(again->merged.degraded);
}

TEST_F(ShardChaosTest, SameSeedSameFingerprintFaultsIncluded) {
  // Invariant (c): two coordinators with the same seed against the same
  // (live, then partially dead) fleet produce identical answer fingerprints.
  auto run_battery = [&](uint64_t seed) -> uint64_t {
    CoordinatorOptions copt;
    copt.mode = MergeMode::kSample;
    copt.seed = seed;
    copt.shard_timeout_seconds = 1.0;
    ShardCoordinator coordinator(endpoints_, copt);
    AQPP_CHECK_OK(coordinator.Connect());
    std::vector<MergedAnswer> answers;
    uint64_t qseed = 1000;
    for (const RangeQuery& q : Battery()) {
      auto merged = Ask(coordinator, q, qseed++, MergeMode::kSample);
      AQPP_CHECK_OK(merged.status());
      answers.push_back(*merged);
    }
    return Fingerprint(answers);
  };

  const uint64_t fp1 = run_battery(4242);
  const uint64_t fp2 = run_battery(4242);
  EXPECT_EQ(fp1, fp2);

  // Deterministic damage: kill one replica of each shard. Replica picks are
  // seeded, so the two runs fail over identically and the fingerprints still
  // match — and because surviving replicas are bit-identical, the damaged
  // fingerprint equals the healthy one.
  servers_[1]->Stop();
  servers_[2]->Stop();
  const uint64_t fp3 = run_battery(4242);
  const uint64_t fp4 = run_battery(4242);
  EXPECT_EQ(fp3, fp4);
  EXPECT_EQ(fp3, fp1);

  // A different coordinator seed may pick different replicas but must not
  // change any answer bits either (replicas are interchangeable).
  EXPECT_EQ(run_battery(777), fp1);
}

TEST_F(ShardChaosTest, TotalLossFailsCleanlyAndRecovers) {
  if (!fail::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (AQPP_ENABLE_FAILPOINTS=OFF)";
  }
  CoordinatorOptions copt;
  copt.mode = MergeMode::kSample;
  copt.shard_timeout_seconds = 0.4;
  ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());

  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90);
  auto healthy = Ask(coordinator, q, 5, MergeMode::kSample);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();

  // Every send truncated on every replica: no shard can answer, and with
  // nothing to extrapolate from the merge must fail — cleanly, not by
  // fabricating an answer.
  fail::Registry::Global().Enable("shard/worker/send", fail::Trigger::Always(),
                                  {.kind = fail::ActionKind::kPartialIo,
                                   .io_fraction = 0.3});
  auto lost = Ask(coordinator, q, 5, MergeMode::kSample);
  EXPECT_FALSE(lost.ok());
  fail::Registry::Global().DisableAll();

  // Faults cleared: same seed, same bits as before the outage.
  auto recovered = Ask(coordinator, q, 5, MergeMode::kSample);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(SameBits(recovered->ci.estimate, healthy->ci.estimate));
  EXPECT_TRUE(SameBits(recovered->ci.half_width, healthy->ci.half_width));
}

}  // namespace
}  // namespace shard
}  // namespace aqpp
