// Admission control and deadlines: bounded queues, explicit backpressure,
// round-robin fairness, Stop() draining, and partial answers from the first
// online round when a deadline fires mid-flight.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cancellation.h"
#include "core/engine.h"
#include "service/admission.h"
#include "service/service.h"
#include "admission_jobs.h"
#include "test_util.h"

namespace aqpp {
namespace {

using namespace std::chrono_literals;
using testutil::ClosureJob;
using testutil::RunClosures;

// Polls `pred` until it holds or ~5 seconds pass.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(CancellationTokenTest, CancelledAndExpiredReportTheRightStatus) {
  CancellationToken plain;
  EXPECT_FALSE(plain.ShouldStop());
  plain.Cancel();
  EXPECT_TRUE(plain.ShouldStop());
  EXPECT_EQ(plain.StopStatus().code(), StatusCode::kCancelled);

  CancellationToken expired(Deadline::After(-1.0));
  EXPECT_TRUE(expired.expired());
  EXPECT_TRUE(expired.ShouldStop());
  EXPECT_EQ(expired.StopStatus().code(), StatusCode::kDeadlineExceeded);

  // Cancellation wins over expiry in the reported status.
  expired.Cancel();
  EXPECT_EQ(expired.StopStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, DeadlineSemantics) {
  EXPECT_TRUE(Deadline::Infinite().infinite());
  EXPECT_FALSE(Deadline::Infinite().expired());
  EXPECT_TRUE(Deadline::After(-0.5).expired());
  Deadline far = Deadline::After(3600);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_seconds(), 3500.0);
}

// A hook that parks the worker until the test opens the gate, so queue
// contents are deterministic while the single worker is "busy".
struct Gate {
  std::atomic<bool> closed{true};
  std::function<void()> hook() {
    return [this] {
      while (closed.load()) std::this_thread::sleep_for(1ms);
    };
  }
  void Open() { closed.store(false); }
};

TEST(AdmissionControllerTest, GlobalBoundRejectsWithRetryAfter) {
  Gate gate;
  AdmissionOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 3;
  opts.max_per_session = 8;
  opts.retry_floor_seconds = 0.025;
  // No window: the parked worker's batch is the first job alone.
  opts.batch_window_seconds = 0;
  opts.worker_hook = gate.hook();
  AdmissionController ctrl(opts, RunClosures);

  std::atomic<int> ran{0};
  auto make_job = [&ran] { return ClosureJob([&ran] { ran.fetch_add(1); }); };

  // The worker picks this up and parks in the hook.
  ASSERT_TRUE(ctrl.Submit(1, make_job()).ok());
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().queue_depth == 0; }));

  // Fill the global queue, one job per session (per-session bound untouched).
  for (uint64_t sid = 2; sid <= 4; ++sid) {
    ASSERT_TRUE(ctrl.Submit(sid, make_job()).ok());
  }
  EXPECT_EQ(ctrl.stats().queue_depth, 3u);

  // Overflow: rejected immediately — no hang — with a retry hint at or above
  // the floor.
  double retry_after = 0;
  Status st = ctrl.Submit(5, make_job(), &retry_after);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(retry_after, 0.025);

  gate.Open();
  ctrl.Stop();
  EXPECT_EQ(ran.load(), 4);  // every admitted job ran, the rejected one never
  AdmissionStats stats = ctrl.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed + stats.drained, 4u);
  EXPECT_LE(stats.peak_queue_depth, 3u);
}

TEST(AdmissionControllerTest, PerSessionBoundKeepsOtherSessionsAdmittable) {
  Gate gate;
  AdmissionOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 64;
  opts.max_per_session = 2;
  // No window: the parked worker's batch is the first job alone.
  opts.batch_window_seconds = 0;
  opts.worker_hook = gate.hook();
  AdmissionController ctrl(opts, RunClosures);

  std::atomic<int> ran{0};
  auto make_job = [&ran] { return ClosureJob([&ran] { ran.fetch_add(1); }); };

  ASSERT_TRUE(ctrl.Submit(1, make_job()).ok());
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().queue_depth == 0; }));

  // The chatty session saturates its own bound...
  ASSERT_TRUE(ctrl.Submit(1, make_job()).ok());
  ASSERT_TRUE(ctrl.Submit(1, make_job()).ok());
  Status st = ctrl.Submit(1, make_job());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("per-session"), std::string::npos);

  // ...while another session is still admitted.
  EXPECT_TRUE(ctrl.Submit(2, make_job()).ok());
  EXPECT_TRUE(ctrl.Submit(2, make_job()).ok());

  gate.Open();
  ctrl.Stop();
  EXPECT_EQ(ran.load(), 5);
}

TEST(AdmissionControllerTest, DrainsSessionsRoundRobin) {
  Gate gate;
  AdmissionOptions opts;
  opts.num_workers = 1;
  opts.batch_window_seconds = 0;
  opts.worker_hook = gate.hook();
  AdmissionController ctrl(opts, RunClosures);

  std::mutex mu;
  std::vector<uint64_t> order;
  auto make_job = [&](uint64_t sid) {
    return ClosureJob([&mu, &order, sid] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(sid);
    });
  };

  // Park the worker on a throwaway job, then queue 3 from A and 2 from B.
  ASSERT_TRUE(ctrl.Submit(9, make_job(9)).ok());
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().queue_depth == 0; }));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ctrl.Submit(1, make_job(1)).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(ctrl.Submit(2, make_job(2)).ok());

  gate.Open();
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().completed == 6; }));
  ctrl.Stop();

  // One chatty session does not starve the other: strict alternation while
  // both have work. The five queued jobs run as one batch, whose order is
  // the round-robin pop order.
  std::vector<uint64_t> expected = {9, 1, 2, 1, 2, 1};
  EXPECT_EQ(order, expected);
}

TEST(AdmissionControllerTest, StopCancelsAndRunsQueuedJobs) {
  Gate gate;
  AdmissionOptions opts;
  opts.num_workers = 1;
  opts.batch_window_seconds = 0;
  opts.worker_hook = gate.hook();
  AdmissionController ctrl(opts, RunClosures);

  ASSERT_TRUE(ctrl.Submit(1, ClosureJob([] {})).ok());
  ASSERT_TRUE(WaitFor([&] { return ctrl.stats().queue_depth == 0; }));

  std::mutex mu;
  std::vector<bool> cancelled_at_run;
  std::vector<std::shared_ptr<CancellationToken>> tokens;
  for (uint64_t sid = 2; sid <= 4; ++sid) {
    auto token = std::make_shared<CancellationToken>();
    tokens.push_back(token);
    AdmissionController::Job job = ClosureJob(
        [&mu, &cancelled_at_run, token] {
          std::lock_guard<std::mutex> lock(mu);
          cancelled_at_run.push_back(token->cancelled());
        },
        token);
    ASSERT_TRUE(ctrl.Submit(sid, std::move(job)).ok());
  }

  // Stop while the worker is parked: it must exit without taking the queued
  // jobs, and the drain must cancel-and-run each of them.
  std::thread stopper([&ctrl] { ctrl.Stop(); });
  std::this_thread::sleep_for(50ms);
  gate.Open();
  stopper.join();

  ASSERT_EQ(cancelled_at_run.size(), 3u);
  for (bool cancelled : cancelled_at_run) EXPECT_TRUE(cancelled);
  for (const auto& token : tokens) EXPECT_TRUE(token->cancelled());
  EXPECT_EQ(ctrl.stats().drained, 3u);

  // And the controller refuses new work afterwards.
  EXPECT_EQ(ctrl.Submit(1, ClosureJob([] {})).code(),
            StatusCode::kFailedPrecondition);
}

std::shared_ptr<AqppEngine> MakePreparedEngine(
    const std::shared_ptr<Table>& table) {
  EngineOptions opts;
  opts.sample_rate = 0.05;
  // A coarse 2-D cube (64 cells over a 100x50 domain), so range endpoints
  // rarely align with the cuts and the sample-estimated difference region is
  // nonempty — the CI widths below must be nonzero.
  opts.cube_budget = 64;
  auto engine = AqppEngine::Create(table, opts);
  AQPP_CHECK_OK(engine.status());
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  AQPP_CHECK_OK((*engine)->Prepare(tmpl));
  return std::shared_ptr<AqppEngine>(std::move(*engine));
}

// `lo` varies the query, so requests that must queue separately do not
// share one execution through single-flight.
RangeQuery SumQuery(int64_t lo = 13) {
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, lo, 57});
  q.predicate.Add({1, 7, 23});
  return q;
}

TEST(ServiceDeadlineTest, ExpiredDeadlineYieldsWidenedPartialAnswer) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  ServiceOptions sopts;
  sopts.cache.capacity = 0;  // a hit would bypass the deadline path
  sopts.admission.num_workers = 1;
  // Every job spends 30ms in the queue-to-run gap, so a 1ms deadline is
  // guaranteed to have burned out before the engine is touched.
  sopts.admission.worker_hook = [] { std::this_thread::sleep_for(30ms); };
  QueryService service(engine.get(), sopts);
  auto session = service.sessions().Open("deadline");
  ASSERT_TRUE(session.ok());
  uint64_t sid = (*session)->id();

  QueryOutcome full = service.Execute(sid, SumQuery());
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_FALSE(full.partial);

  QueryOutcome timed = service.Execute(sid, SumQuery(), 0.001);
  ASSERT_TRUE(timed.status.ok()) << timed.status.ToString();
  EXPECT_TRUE(timed.partial);
  EXPECT_GT(timed.partial_rows_used, 0u);
  EXPECT_LT(timed.partial_rows_used, service.engine().sample().size());
  // A prefix of the sample answers with less precision: the CI must be
  // strictly wider than the full run's.
  EXPECT_GT(timed.ci.half_width, full.ci.half_width);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.partial, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ((*session)->counters().timed_out, 1u);
}

TEST(ServiceDeadlineTest, FallbackOnAnotherMeasureAnswersWithoutACube) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);  // its one cube is on `a`

  ServiceOptions sopts;
  sopts.cache.capacity = 0;
  sopts.admission.num_workers = 1;
  sopts.admission.worker_hook = [] { std::this_thread::sleep_for(30ms); };
  QueryService service(engine.get(), sopts);
  auto session = service.sessions().Open("deadline");
  ASSERT_TRUE(session.ok());
  uint64_t sid = (*session)->id();

  RangeQuery q = SumQuery();
  q.agg_column = 1;  // SUM(c2): no template has this measure
  QueryOutcome timed = service.Execute(sid, q, 0.001);
  ASSERT_TRUE(timed.status.ok()) << timed.status.ToString();
  ASSERT_TRUE(timed.partial);

  // The fallback is the engine's first online round under the same seed:
  // plain AQP over a 1/64 prefix, never a difference against the cube's sums
  // of `a`.
  CanonicalQuery canon = QueryCanonicalizer(table.get()).Canonicalize(q);
  CancellationToken stopped;
  stopped.Cancel();
  ExecuteControl control;
  control.cancel = &stopped;
  control.seed = canon.seed;
  control.record = false;
  auto steps = engine->ExecuteOnline(canon.query, control);
  ASSERT_TRUE(steps.ok()) << steps.status();
  ASSERT_EQ(steps->size(), 1u);
  EXPECT_EQ(timed.partial_rows_used, steps->back().rows_used);
  EXPECT_EQ(timed.ci.estimate, steps->back().ci.estimate);
  EXPECT_EQ(timed.ci.half_width, steps->back().ci.half_width);
  EXPECT_FALSE(timed.used_pre);
}

// A timed-out query the online path refuses — MIN/MAX, or any query over a
// stratified sample — has no partial answer and reports DeadlineExceeded.
TEST(ServiceDeadlineTest, OnlineRefusedQueryReportsDeadlineExceeded) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  EngineOptions stratified;
  stratified.sample_rate = 0.05;
  stratified.cube_budget = 64;
  stratified.sampling = SamplingMethod::kStratified;
  stratified.stratify_columns = {1};
  auto strat_engine = std::move(AqppEngine::Create(table, stratified)).value();
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  ASSERT_TRUE(strat_engine->Prepare(tmpl).ok());

  RangeQuery max_q = SumQuery();
  max_q.func = AggregateFunction::kMax;
  auto engine = MakePreparedEngine(table);
  const std::vector<std::pair<AqppEngine*, RangeQuery>> cases = {
      {engine.get(), max_q}, {strat_engine.get(), SumQuery()}};
  for (const auto& [eng, query] : cases) {
    ServiceOptions sopts;
    sopts.cache.capacity = 0;
    sopts.admission.num_workers = 1;
    sopts.admission.worker_hook = [] { std::this_thread::sleep_for(30ms); };
    QueryService service(eng, sopts);
    auto session = service.sessions().Open("");
    ASSERT_TRUE(session.ok());

    QueryOutcome out = service.Execute((*session)->id(), query, 0.001);
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(out.partial);
    EXPECT_EQ(service.stats().timed_out, 1u);
    EXPECT_EQ(service.stats().partial, 0u);
  }
}

TEST(ServiceBackpressureTest, SaturationRejectsWithRetryAfterNotHang) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  Gate gate;
  ServiceOptions sopts;
  sopts.cache.capacity = 0;
  // This test pins per-query queue occupancy: no window, so the parked
  // worker's batch is the first request alone, and distinct queries, so
  // single-flight attaches none of them.
  sopts.admission.batch_window_seconds = 0;
  sopts.admission.num_workers = 1;
  sopts.admission.max_queue_depth = 1;
  sopts.admission.max_per_session = 4;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(engine.get(), sopts);

  uint64_t sids[3];
  for (auto& sid : sids) {
    auto session = service.sessions().Open("");
    ASSERT_TRUE(session.ok());
    sid = (*session)->id();
  }

  // First request: admitted, its worker parks in the gate.
  QueryOutcome out1, out2;
  std::thread t1([&] { out1 = service.Execute(sids[0], SumQuery()); });
  ASSERT_TRUE(WaitFor([&] {
    AdmissionStats s = service.stats().admission;
    return s.admitted == 1 && s.queue_depth == 0;
  }));

  // Second request: fills the one queue slot.
  std::thread t2([&] { out2 = service.Execute(sids[1], SumQuery(14)); });
  ASSERT_TRUE(WaitFor(
      [&] { return service.stats().admission.queue_depth == 1; }));

  // Third request: rejected synchronously with a retry hint — the explicit
  // backpressure contract, instead of an unbounded wait.
  QueryOutcome out3 = service.Execute(sids[2], SumQuery(15));
  EXPECT_EQ(out3.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(out3.retry_after_seconds, 0.0);

  gate.Open();
  t1.join();
  t2.join();
  EXPECT_TRUE(out1.status.ok()) << out1.status.ToString();
  EXPECT_TRUE(out2.status.ok()) << out2.status.ToString();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
  auto rejected_session = service.sessions().Get(sids[2]);
  ASSERT_TRUE(rejected_session.ok());
  EXPECT_EQ((*rejected_session)->counters().rejected, 1u);
}

TEST(ServiceBackpressureTest, StopResolvesQueuedRequestsAsCancelled) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  auto engine = MakePreparedEngine(table);

  Gate gate;
  ServiceOptions sopts;
  sopts.cache.capacity = 0;
  // The second request must stay queued, apart from the first: no window,
  // and a distinct query. The point is the queued job's Cancelled
  // resolution, not sharing the first one's outcome.
  sopts.admission.batch_window_seconds = 0;
  sopts.admission.num_workers = 1;
  sopts.admission.worker_hook = gate.hook();
  QueryService service(engine.get(), sopts);
  auto s1 = service.sessions().Open("");
  auto s2 = service.sessions().Open("");
  ASSERT_TRUE(s1.ok() && s2.ok());

  QueryOutcome running, queued;
  std::thread t1([&] { running = service.Execute((*s1)->id(), SumQuery()); });
  ASSERT_TRUE(WaitFor([&] {
    AdmissionStats s = service.stats().admission;
    return s.admitted == 1 && s.queue_depth == 0;
  }));
  std::thread t2(
      [&] { queued = service.Execute((*s2)->id(), SumQuery(14)); });
  ASSERT_TRUE(WaitFor(
      [&] { return service.stats().admission.queue_depth == 1; }));

  // Stop with one request in flight and one queued: the queued caller must
  // not be left waiting on a promise nobody fulfills.
  std::thread stopper([&service] { service.Stop(); });
  std::this_thread::sleep_for(50ms);
  gate.Open();
  stopper.join();
  t1.join();
  t2.join();

  EXPECT_TRUE(running.status.ok()) << running.status.ToString();
  EXPECT_EQ(queued.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

}  // namespace
}  // namespace aqpp
