// Batching: fused shard partial batches must be bit-identical to solo
// partials; batch formation in the admission controller must group same-key
// jobs; and the service's single-flight dedup must share outcomes without
// ever fanning an error out or re-inserting a stale cache entry.

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "kernels/kernels.h"
#include "service/admission.h"
#include "service/service.h"
#include "shard/worker.h"
#include "test_util.h"

namespace aqpp {
namespace {

using namespace std::chrono_literals;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Polls `pred` until it holds or ~5 seconds pass.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Shard PARTIAL batching: fused partials == solo partials, bit for bit.
// ---------------------------------------------------------------------------

TEST(BatchShardTest, PartialBatchMatchesSoloPartialsBitForBit) {
  auto table = testutil::MakeSynthetic({.rows = 65536 * 2});
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  shard::ShardWorkerOptions wopts;
  wopts.sample_size = 2048;
  auto worker = shard::ShardWorker::Build(table, tmpl, 0, 2, 0, wopts);
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();

  Rng rng = testutil::MakeTestRng(8103);
  shard::PartialWants wants;
  wants.exact = true;
  wants.sample = true;
  wants.engine = true;
  std::vector<shard::ShardWorker::PartialRequest> requests;
  for (int i = 0; i < 7; ++i) {
    RangeQuery q;
    q.func = i % 2 == 0 ? AggregateFunction::kSum : AggregateFunction::kCount;
    q.agg_column = 2;
    int64_t lo = rng.NextInt(1, 80);
    q.predicate.Add({0, lo, rng.NextInt(lo, 100)});
    requests.push_back(shard::ShardWorker::PartialRequest{
        q, wants, 1000 + static_cast<uint64_t>(i)});
  }
  // One invalid member mid-batch: MIN is unsupported on the partial path.
  {
    RangeQuery bad;
    bad.func = AggregateFunction::kMin;
    bad.agg_column = 2;
    requests.insert(requests.begin() + 3,
                    shard::ShardWorker::PartialRequest{bad, wants, 77});
  }

  auto fused = (*worker)->PartialBatch(requests);
  ASSERT_EQ(fused.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto solo = (*worker)->Partial(requests[i].query, requests[i].wants,
                                   requests[i].seed);
    if (!solo.ok()) {
      ASSERT_FALSE(fused[i].ok()) << "member " << i;
      EXPECT_EQ(fused[i].status().message(), solo.status().message());
      continue;
    }
    ASSERT_TRUE(fused[i].ok()) << "member " << i << ": "
                               << fused[i].status().ToString();
    const shard::ShardPartial& a = *fused[i];
    const shard::ShardPartial& b = *solo;
    ASSERT_EQ(a.blocks.size(), b.blocks.size()) << "member " << i;
    for (size_t blk = 0; blk < a.blocks.size(); ++blk) {
      EXPECT_EQ(a.blocks[blk].count, b.blocks[blk].count);
      for (size_t l = 0; l < kernels::kAccumulatorLanes; ++l) {
        EXPECT_EQ(Bits(a.blocks[blk].sum[l]), Bits(b.blocks[blk].sum[l]));
        EXPECT_EQ(Bits(a.blocks[blk].sum_sq[l]),
                  Bits(b.blocks[blk].sum_sq[l]));
      }
    }
    EXPECT_EQ(Bits(a.stratum.mean_c), Bits(b.stratum.mean_c)) << i;
    EXPECT_EQ(Bits(a.stratum.mean_s), Bits(b.stratum.mean_s)) << i;
    EXPECT_EQ(Bits(a.stratum.mean_q), Bits(b.stratum.mean_q)) << i;
    EXPECT_EQ(Bits(a.stratum.var_s), Bits(b.stratum.var_s)) << i;
    EXPECT_EQ(Bits(a.stratum.cov_cs), Bits(b.stratum.cov_cs)) << i;
    EXPECT_EQ(Bits(a.engine_estimate), Bits(b.engine_estimate)) << i;
    EXPECT_EQ(Bits(a.engine_half_width), Bits(b.engine_half_width)) << i;
  }
}

// ---------------------------------------------------------------------------
// Admission batch formation.
// ---------------------------------------------------------------------------

struct Gate {
  std::atomic<bool> closed{true};
  std::function<void()> hook() {
    return [this] {
      while (closed.load()) std::this_thread::sleep_for(1ms);
    };
  }
  void Open() { closed.store(false); }
};

TEST(BatchAdmissionTest, QueuedSameKeyJobsFormOneBatch) {
  Gate gate;
  AdmissionOptions opts;
  opts.num_workers = 1;
  opts.worker_hook = gate.hook();
  AdmissionController ctrl(opts);

  // Park the worker on a plain job, then queue three same-key batchable
  // jobs from different sessions behind it.
  std::promise<void> plain_done;
  AdmissionController::Job plain;
  plain.run = [&plain_done] { plain_done.set_value(); };
  ASSERT_TRUE(ctrl.Submit(1, std::move(plain)).ok());

  std::atomic<int> batch_calls{0};
  std::atomic<size_t> batch_jobs{0};
  std::atomic<int> members_run{0};
  std::vector<std::promise<void>> done(3);
  for (int i = 0; i < 3; ++i) {
    AdmissionController::Job job;
    job.batch_key = "tbl:test";
    job.run = [&members_run, &done, i] {
      members_run.fetch_add(1);
      done[static_cast<size_t>(i)].set_value();
    };
    job.run_batch = [&](std::vector<AdmissionController::Job>&& jobs) {
      batch_calls.fetch_add(1);
      batch_jobs.store(jobs.size());
      for (auto& j : jobs) j.run();
    };
    ASSERT_TRUE(ctrl.Submit(static_cast<uint64_t>(10 + i), std::move(job)).ok());
  }
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().queue_depth == 3; }));

  gate.Open();
  for (auto& d : done) d.get_future().wait();
  plain_done.get_future().wait();

  // The worker popped one member and absorbed the other two: exactly one
  // run_batch call covering all three jobs (the queue-depth trigger, no
  // window wait involved).
  EXPECT_EQ(batch_calls.load(), 1);
  EXPECT_EQ(batch_jobs.load(), 3u);
  EXPECT_EQ(members_run.load(), 3);
  // The worker counts a job completed after its run returns, which is
  // after the job's promise fired: wait for the count instead of racing it.
  EXPECT_TRUE(WaitFor([&] { return ctrl.stats().completed == 4; }));
  AdmissionStats stats = ctrl.stats();
  EXPECT_EQ(stats.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members, 3u);
  EXPECT_EQ(stats.completed, 4u);
  ctrl.Stop();
}

TEST(BatchAdmissionTest, LoneBatchableJobRunsSoloAndDisabledBatchingNeverGroups) {
  // Lone job: no company arrives, the window closes, run() executes it.
  {
    AdmissionOptions opts;
    opts.num_workers = 1;
    opts.batch_window_seconds = 0.002;
    AdmissionController ctrl(opts);
    std::promise<void> done;
    AdmissionController::Job job;
    job.batch_key = "tbl:test";
    job.run = [&done] { done.set_value(); };
    job.run_batch = [](std::vector<AdmissionController::Job>&& jobs) {
      for (auto& j : jobs) j.run();
    };
    ASSERT_TRUE(ctrl.Submit(1, std::move(job)).ok());
    done.get_future().wait();
    EXPECT_EQ(ctrl.stats().batches_formed, 0u);
    ctrl.Stop();
  }
  // enable_batching = false: same-key jobs queued together still run solo.
  {
    Gate gate;
    AdmissionOptions opts;
    opts.num_workers = 1;
    opts.enable_batching = false;
    opts.worker_hook = gate.hook();
    AdmissionController ctrl(opts);
    std::atomic<int> batch_calls{0};
    std::vector<std::promise<void>> done(3);
    for (int i = 0; i < 3; ++i) {
      AdmissionController::Job job;
      job.batch_key = "tbl:test";
      job.run = [&done, i] { done[static_cast<size_t>(i)].set_value(); };
      job.run_batch = [&batch_calls](
                          std::vector<AdmissionController::Job>&& jobs) {
        batch_calls.fetch_add(1);
        for (auto& j : jobs) j.run();
      };
      ASSERT_TRUE(
          ctrl.Submit(static_cast<uint64_t>(i + 1), std::move(job)).ok());
    }
    gate.Open();
    for (auto& d : done) d.get_future().wait();
    EXPECT_EQ(batch_calls.load(), 0);
    EXPECT_EQ(ctrl.stats().batches_formed, 0u);
    ctrl.Stop();
  }
}

// ---------------------------------------------------------------------------
// Service single-flight.
// ---------------------------------------------------------------------------

std::shared_ptr<AqppEngine> MakePreparedEngine(
    const std::shared_ptr<Table>& table) {
  EngineOptions opts;
  opts.sample_rate = 0.05;
  opts.cube_budget = 64;
  auto engine = AqppEngine::Create(table, opts);
  AQPP_CHECK_OK(engine.status());
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  AQPP_CHECK_OK((*engine)->Prepare(tmpl));
  return std::shared_ptr<AqppEngine>(std::move(*engine));
}

RangeQuery SumQuery() {
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, 13, 57});
  q.predicate.Add({1, 7, 23});
  return q;
}

TEST(SingleFlightTest, IdenticalInFlightQueryAttachesAndSharesTheOutcome) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  Gate gate;
  ServiceOptions sopts;
  sopts.admission.num_workers = 1;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(EngineRef(engine.get()), sopts);
  auto s1 = service.sessions().Open("");
  auto s2 = service.sessions().Open("");
  ASSERT_TRUE(s1.ok() && s2.ok());

  QueryOutcome leader, follower;
  std::thread t1([&] { leader = service.Execute((*s1)->id(), SumQuery()); });
  ASSERT_TRUE(WaitFor([&] { return service.stats().admission.admitted == 1; }));
  std::thread t2([&] { follower = service.Execute((*s2)->id(), SumQuery()); });
  // Give the follower time to reach the single-flight table; the leader's
  // entry stays in place until the gate opens, so the follower must attach.
  std::this_thread::sleep_for(100ms);
  gate.Open();
  t1.join();
  t2.join();

  ASSERT_TRUE(leader.status.ok()) << leader.status.ToString();
  ASSERT_TRUE(follower.status.ok()) << follower.status.ToString();
  EXPECT_FALSE(leader.single_flight);
  EXPECT_TRUE(follower.single_flight);
  EXPECT_EQ(Bits(follower.ci.estimate), Bits(leader.ci.estimate));
  EXPECT_EQ(Bits(follower.ci.half_width), Bits(leader.ci.half_width));
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.single_flight_attached, 1u);
  // Only the leader ever touched the admission queue.
  EXPECT_EQ(stats.admission.admitted, 1u);
}

// Regression: the single-flight leader's insert rides the same
// generation-guarded InsertIfCurrent as every worker. If maintenance wipes
// the cache while the flight is executing, the leader's result must be
// shared with attached followers (it is correct for them) but must NOT be
// re-inserted into the cache after the wipe.
TEST(SingleFlightTest, StaleInsertAfterMidFlightInvalidationIsDropped) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  Gate gate;
  ServiceOptions sopts;
  sopts.admission.num_workers = 1;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(EngineRef(engine.get()), sopts);
  auto s1 = service.sessions().Open("");
  auto s2 = service.sessions().Open("");
  ASSERT_TRUE(s1.ok() && s2.ok());

  QueryOutcome leader, follower;
  std::thread t1([&] { leader = service.Execute((*s1)->id(), SumQuery()); });
  ASSERT_TRUE(WaitFor([&] { return service.stats().admission.admitted == 1; }));
  std::thread t2([&] { follower = service.Execute((*s2)->id(), SumQuery()); });
  std::this_thread::sleep_for(100ms);

  // Maintenance wipes the cache while the leader is parked mid-flight: its
  // generation snapshot is now stale.
  service.InvalidateCache();
  gate.Open();
  t1.join();
  t2.join();

  ASSERT_TRUE(leader.status.ok()) << leader.status.ToString();
  ASSERT_TRUE(follower.status.ok()) << follower.status.ToString();
  EXPECT_TRUE(follower.single_flight);
  EXPECT_EQ(Bits(follower.ci.estimate), Bits(leader.ci.estimate));

  // The stale insert was dropped: a re-execution misses the cache.
  QueryOutcome again = service.Execute((*s1)->id(), SumQuery());
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_FALSE(again.cache_hit);
  // And the post-invalidation re-execution repopulates it normally.
  QueryOutcome hit = service.Execute((*s1)->id(), SumQuery());
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
}

TEST(SingleFlightTest, FollowerReExecutesWhenLeaderFails) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  Gate gate;
  ServiceOptions sopts;
  sopts.enable_cache = false;
  sopts.progressive_fallback = false;
  sopts.admission.num_workers = 1;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(EngineRef(engine.get()), sopts);
  auto s1 = service.sessions().Open("");
  auto s2 = service.sessions().Open("");
  ASSERT_TRUE(s1.ok() && s2.ok());

  // Leader carries a deadline that burns out while it is parked; the
  // follower has none and must not inherit the leader's DeadlineExceeded.
  QueryOutcome leader, follower;
  std::thread t1(
      [&] { leader = service.Execute((*s1)->id(), SumQuery(), 0.01); });
  ASSERT_TRUE(WaitFor([&] { return service.stats().admission.admitted == 1; }));
  std::thread t2([&] { follower = service.Execute((*s2)->id(), SumQuery()); });
  std::this_thread::sleep_for(100ms);
  gate.Open();
  t1.join();
  t2.join();

  EXPECT_EQ(leader.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(follower.status.ok()) << follower.status.ToString();
  EXPECT_FALSE(follower.single_flight);
}

}  // namespace
}  // namespace aqpp
