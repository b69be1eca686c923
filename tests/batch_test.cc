// Batching: fused shard partial batches must be bit-identical to batches of
// one and to an independent per-block scan; the admission controller must
// pop its whole queue as one batch; and the service's single-flight dedup
// must share outcomes without ever fanning an error out or re-inserting a
// stale cache entry.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "kernels/kernels.h"
#include "kernels/scan_internal.h"
#include "service/admission.h"
#include "service/service.h"
#include "shard/worker.h"
#include "admission_jobs.h"
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
// Shard PARTIAL batching: fused partials == batches of one, bit for bit.
// ---------------------------------------------------------------------------

// Reference for the exact view: each kShardRows block scanned alone by the
// solo kernel, with a fresh accumulator per block — the shape of the
// worker's exact partial before it was fused.
Result<std::vector<shard::BlockMoments>> ExactBlocksOracle(
    const Table& table, const RangeQuery& query) {
  AQPP_ASSIGN_OR_RETURN(
      kernels::BoundPredicate pred,
      kernels::BindConditions(table, query.predicate.conditions()));
  const kernels::ScanProfile profile = kernels::ProfileFor(query.func);
  kernels::ValueRef values;
  if (query.func != AggregateFunction::kCount) {
    values = kernels::ValueRef::FromColumn(table.column(query.agg_column));
  }
  const size_t n = table.num_rows();
  const size_t nblocks = (n + kernels::kShardRows - 1) / kernels::kShardRows;
  std::vector<shard::BlockMoments> blocks(nblocks);
  for (size_t b = 0; b < nblocks; ++b) {
    const size_t begin = b * kernels::kShardRows;
    const size_t end = std::min(n, begin + kernels::kShardRows);
    kernels::internal::ShardAccum acc;
    if (!pred.never_matches) {
      if (values.dbl != nullptr) {
        kernels::internal::ScanShard<double>(
            pred, values.dbl, begin, end, profile,
            kernels::ScanStrategy::kAdaptive, acc);
      } else {
        kernels::internal::ScanShard<int64_t>(
            pred, values.i64, begin, end, profile,
            kernels::ScanStrategy::kAdaptive, acc);
      }
    }
    blocks[b].count = acc.count;
    for (size_t l = 0; l < kernels::kAccumulatorLanes; ++l) {
      blocks[b].sum[l] = acc.sum[l];
      blocks[b].sum_sq[l] = acc.sum_sq[l];
    }
  }
  return blocks;
}

void ExpectSameBlocks(const std::vector<shard::BlockMoments>& a,
                      const std::vector<shard::BlockMoments>& b,
                      size_t member) {
  ASSERT_EQ(a.size(), b.size()) << "member " << member;
  for (size_t blk = 0; blk < a.size(); ++blk) {
    EXPECT_EQ(a[blk].count, b[blk].count) << member;
    for (size_t l = 0; l < kernels::kAccumulatorLanes; ++l) {
      EXPECT_EQ(Bits(a[blk].sum[l]), Bits(b[blk].sum[l])) << member;
      EXPECT_EQ(Bits(a[blk].sum_sq[l]), Bits(b[blk].sum_sq[l])) << member;
    }
  }
}

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

  // A batch of N against N batches of one (Partial), and every member's
  // exact view against the independent per-block scan.
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
    ExpectSameBlocks(a.blocks, b.blocks, i);
    auto oracle = ExactBlocksOracle((*worker)->table(), requests[i].query);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ExpectSameBlocks(a.blocks, *oracle, i);
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

TEST(BatchAdmissionTest, QueuedJobsFormOneBatchInRoundRobinOrder) {
  Gate gate;
  AdmissionOptions opts;
  opts.num_workers = 1;
  opts.batch_window_seconds = 0;
  opts.worker_hook = gate.hook();
  std::mutex mu;
  std::vector<size_t> batch_sizes;
  std::vector<uint64_t> order;
  AdmissionController ctrl(
      opts, [&](std::vector<AdmissionController::Job>& batch) {
        {
          std::lock_guard<std::mutex> lock(mu);
          batch_sizes.push_back(batch.size());
        }
        testutil::RunClosures(batch);
      });

  // Park the worker on a lone job, then queue three jobs from different
  // sessions behind it.
  auto make_job = [&](uint64_t sid) {
    return testutil::ClosureJob([&mu, &order, sid] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(sid);
    });
  };
  ASSERT_TRUE(ctrl.Submit(1, make_job(1)).ok());
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().queue_depth == 0; }));
  for (uint64_t sid = 10; sid <= 12; ++sid) {
    ASSERT_TRUE(ctrl.Submit(sid, make_job(sid)).ok());
  }
  ASSERT_EQ(ctrl.stats().queue_depth, 3u);

  gate.Open();
  // The worker counts a job completed after its batch returns: wait for the
  // count instead of racing it.
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().completed == 4; }));
  ctrl.Stop();

  // The lone job ran as a batch of one; the worker then popped the whole
  // queue as one batch, in round-robin (arrival) order.
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{1, 3}));
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 10, 11, 12}));
  // Only the multi-member batch is counted.
  AdmissionStats stats = ctrl.stats();
  EXPECT_EQ(stats.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members, 3u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(BatchAdmissionTest, LoneJobWaitsOutTheWindowThenRunsAsBatchOfOne) {
  AdmissionOptions opts;
  opts.num_workers = 1;
  opts.batch_window_seconds = 0.002;
  std::vector<size_t> batch_sizes;
  AdmissionController ctrl(
      opts, [&](std::vector<AdmissionController::Job>& batch) {
        batch_sizes.push_back(batch.size());
        testutil::RunClosures(batch);
      });
  std::promise<void> done;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      ctrl.Submit(1, testutil::ClosureJob([&done] { done.set_value(); }))
          .ok());
  done.get_future().wait();
  // No company arrived, so the worker held the window open in full.
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::duration<double>(opts.batch_window_seconds));
  ctrl.Stop();
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{1}));
  EXPECT_EQ(ctrl.stats().batches_formed, 0u);
  EXPECT_EQ(ctrl.stats().batch_members, 0u);
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

// A lone request and a batch of queued ones take the same path: every OK
// answer is bit-identical to a seeded engine execution of its canonical
// query.
TEST(ServiceBatchTest, LoneAndBatchedAnswersEqualSeededEngineExecution) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  Gate gate;
  ServiceOptions sopts;
  sopts.admission.num_workers = 1;
  sopts.admission.batch_window_seconds = 0;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(engine.get(), sopts);

  std::vector<RangeQuery> queries;
  for (AggregateFunction func :
       {AggregateFunction::kSum, AggregateFunction::kCount,
        AggregateFunction::kAvg, AggregateFunction::kVar,
        AggregateFunction::kSum}) {
    RangeQuery q = SumQuery();
    q.func = func;
    q.predicate = RangePredicate();
    q.predicate.Add({0, 5 + static_cast<int64_t>(queries.size()), 71});
    q.predicate.Add({1, 3, 40});
    queries.push_back(q);
  }
  std::vector<QueryOutcome> outcomes(queries.size());
  std::vector<std::thread> threads;
  auto submit = [&](size_t i) {
    auto session = service.sessions().Open("");
    ASSERT_TRUE(session.ok());
    threads.emplace_back([&, i, sid = (*session)->id()] {
      outcomes[i] = service.Execute(sid, queries[i]);
    });
  };
  // The first request parks the worker as a batch of one; the rest queue
  // behind it and run as one batch.
  submit(0);
  ASSERT_TRUE(WaitFor([&] {
    AdmissionStats s = service.stats().admission;
    return s.admitted == 1 && s.queue_depth == 0;
  }));
  for (size_t i = 1; i < queries.size(); ++i) submit(i);
  ASSERT_TRUE(WaitFor([&] {
    return service.stats().admission.queue_depth == queries.size() - 1;
  }));
  gate.Open();
  for (auto& t : threads) t.join();
  EXPECT_EQ(service.stats().admission.batches_formed, 1u);
  EXPECT_EQ(service.stats().admission.batch_members, queries.size() - 1);

  QueryCanonicalizer canonicalizer(table.get());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
    CanonicalQuery canon = canonicalizer.Canonicalize(queries[i]);
    ExecuteControl control;
    control.seed = canon.seed;
    control.record = false;
    auto direct = engine->Execute(canon.query, control);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(Bits(outcomes[i].ci.estimate), Bits(direct->ci.estimate)) << i;
    EXPECT_EQ(Bits(outcomes[i].ci.half_width), Bits(direct->ci.half_width))
        << i;
  }
}

TEST(SingleFlightTest, IdenticalInFlightQueryAttachesAndSharesTheOutcome) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  Gate gate;
  ServiceOptions sopts;
  sopts.admission.num_workers = 1;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(engine.get(), sopts);
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
  QueryService service(engine.get(), sopts);
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
  sopts.cache.capacity = 0;
  sopts.progressive_fallback = false;
  sopts.admission.num_workers = 1;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(engine.get(), sopts);
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
