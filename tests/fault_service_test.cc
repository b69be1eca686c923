// Service-layer fault tests: the client retry loop under a SimClock, the
// result cache's invalidation-generation guard, and failpoint-injected
// admission / socket faults against a live server.
//
// The SimClock and cache tests run in every build flavor; the injection
// tests skip themselves when failpoints are compiled out.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/failpoint.h"
#include "core/engine.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/service.h"
#include "test_util.h"

namespace aqpp {
namespace {

using namespace std::chrono_literals;

#define SKIP_WITHOUT_FAILPOINTS()                                    \
  do {                                                               \
    if (!fail::kCompiledIn)                                          \
      GTEST_SKIP() << "failpoints compiled out (AQPP_ENABLE_FAILPOINTS=OFF)"; \
  } while (0)

bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// Same stack as service_test.cc: engine + service + TCP server on an
// ephemeral port.
struct TestServer {
  explicit TestServer(ServiceOptions sopts = {}) {
    table = testutil::MakeSynthetic({.rows = 20000});
    EngineOptions eopts;
    eopts.sample_rate = 0.05;
    eopts.cube_budget = 400;
    auto created = AqppEngine::Create(table, eopts);
    AQPP_CHECK_OK(created.status());
    engine = std::shared_ptr<AqppEngine>(std::move(*created));
    QueryTemplate tmpl;
    tmpl.agg_column = 2;
    tmpl.condition_columns = {0, 1};
    AQPP_CHECK_OK(engine->Prepare(tmpl));
    AQPP_CHECK_OK(catalog.Register("t", table));
    service = std::make_unique<QueryService>(engine.get(), sopts);
    server = std::make_unique<ServiceServer>(service.get(), &catalog);
    AQPP_CHECK_OK(server->Start());
  }

  ~TestServer() {
    server->Stop();
    service->Stop();
  }

  std::shared_ptr<Table> table;
  std::shared_ptr<AqppEngine> engine;
  Catalog catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<ServiceServer> server;
};

// ---------------------------------------------------------------------------
// SimClock (every build flavor).
// ---------------------------------------------------------------------------

TEST(SimClockTest, AdvanceDrivesSteadyNowAndSleepFor) {
  SimClock clock;
  ScopedSimClock scoped(&clock);

  SteadyTime t0 = SteadyNow();
  clock.Advance(1.5);
  EXPECT_DOUBLE_EQ(SecondsBetween(t0, SteadyNow()), 1.5);

  // SleepFor under a SimClock advances virtual time instead of blocking.
  auto wall0 = std::chrono::steady_clock::now();
  SleepFor(3600.0);
  auto wall1 = std::chrono::steady_clock::now();
  EXPECT_LT(std::chrono::duration<double>(wall1 - wall0).count(), 1.0);
  EXPECT_DOUBLE_EQ(clock.elapsed_seconds(), 1.5 + 3600.0);
}

TEST(SimClockTest, DeadlinesExpireInVirtualTime) {
  SimClock clock;
  ScopedSimClock scoped(&clock);

  Deadline d = Deadline::After(2.0);
  EXPECT_FALSE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_seconds(), 2.0);
  clock.Advance(1.0);
  EXPECT_FALSE(d.expired());
  clock.Advance(1.0);
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(Deadline::Infinite().remaining_seconds() >
              std::numeric_limits<double>::max());
}

TEST(SimClockTest, UninstallRestoresRealClock) {
  {
    SimClock clock;
    ScopedSimClock scoped(&clock);
    EXPECT_EQ(InstalledSimClock(), &clock);
  }
  EXPECT_EQ(InstalledSimClock(), nullptr);
}

// ---------------------------------------------------------------------------
// Result-cache generation guard (every build flavor).
// ---------------------------------------------------------------------------

// Regression (production defect): a worker that finished computing against
// pre-maintenance data could insert its result just AFTER InvalidateAll()
// cleared the cache — re-populating it with a stale answer that subsequent
// queries would replay as a bit-exact "hit". InsertIfCurrent drops inserts
// whose generation snapshot predates any invalidation.
TEST(ResultCacheGenerationTest, InsertAfterInvalidationIsDropped) {
  ResultCache cache;
  ApproximateResult r;
  r.ci.estimate = 42.0;

  // The race, replayed sequentially: snapshot, invalidate, insert.
  uint64_t before = cache.generation();
  cache.InvalidateAll();
  cache.InsertIfCurrent("k", 0, r, before);
  EXPECT_FALSE(cache.Lookup("k").has_value());

  // A fresh snapshot taken after the invalidation inserts normally.
  uint64_t current = cache.generation();
  cache.InsertIfCurrent("k", 0, r, current);
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->ci.estimate, 42.0);
}

TEST(ResultCacheGenerationTest, TemplateInvalidationBumpsGeneration) {
  ResultCache cache;
  ApproximateResult r;
  uint64_t g0 = cache.generation();
  cache.Insert("a", 3, r);
  EXPECT_EQ(cache.generation(), g0);  // inserts don't bump
  cache.InvalidateTemplate(3);
  EXPECT_GT(cache.generation(), g0);
}

// ---------------------------------------------------------------------------
// Retry policy against a genuinely saturated server (every build flavor).
// ---------------------------------------------------------------------------

// A server whose single worker is parked on a latch and whose one queue slot
// is occupied: every further submission is rejected with ResourceExhausted
// until Release().
struct SaturatedServer {
  explicit SaturatedServer(double retry_floor_seconds = 0.01) {
    ServiceOptions sopts;
    sopts.cache.capacity = 0;
    sopts.admission.num_workers = 1;
    sopts.admission.max_queue_depth = 1;
    sopts.admission.max_per_session = 1;
    sopts.admission.retry_floor_seconds = retry_floor_seconds;
    sopts.admission.worker_hook = [this] {
      parked.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return released; });
    };
    ts = std::make_unique<TestServer>(sopts);
    // Two background requests with distinct queries: the first parks on
    // the worker latch, the second fills the queue slot. The second starts
    // only once the first is parked; a worker that found both queued would
    // (correctly) take them as one batch and leave the slot empty.
    for (int i = 0; i < 2; ++i) {
      blockers.emplace_back([this, i] {
        auto client = ServiceClient::Connect("127.0.0.1", ts->server->port());
        if (!client.ok()) return;
        std::string sql = "SELECT SUM(a) FROM t WHERE c1 >= " +
                          std::to_string(60 + i) + " AND c1 <= 90";
        (void)client->QueryWithRetry(sql, /*max_attempts=*/100);
      });
      if (i == 0) {
        EXPECT_TRUE(WaitFor([this] { return parked.load() == 1; }));
      }
    }
    // Saturation is only stable once the worker is parked holding one job
    // AND the other job fills the queue slot.
    EXPECT_TRUE(WaitFor([this] {
      return parked.load() == 1 &&
             ts->service->stats().admission.queue_depth == 1;
    }));
  }

  ~SaturatedServer() {
    Release();
    for (auto& t : blockers) t.join();
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> parked{0};
  bool released = false;
  std::unique_ptr<TestServer> ts;
  std::vector<std::thread> blockers;
};

std::vector<double> RecordRetrySleeps(int port, uint64_t seed,
                                      Status* final_status) {
  std::vector<double> sleeps;
  auto client = ServiceClient::Connect("127.0.0.1", port);
  AQPP_CHECK_OK(client.status());
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_seconds = 0.01;
  policy.max_backoff_seconds = 0.5;
  policy.jitter_fraction = 0.5;
  policy.seed = seed;
  policy.on_backoff = [&sleeps](int, double s) { sleeps.push_back(s); };
  auto reply =
      client->QueryWithRetry("SELECT SUM(a) FROM t WHERE c1 >= 2", policy);
  *final_status = reply.status();
  return sleeps;
}

TEST(RetryPolicyTest, SameSeedSameSleepSequenceThenSaturatedError) {
  SaturatedServer srv;
  // Virtual time: the whole jittered backoff ladder runs instantly.
  SimClock clock;
  ScopedSimClock scoped(&clock);

  Status st1, st2, st3;
  int port = srv.ts->server->port();
  std::vector<double> a = RecordRetrySleeps(port, 99, &st1);
  std::vector<double> b = RecordRetrySleeps(port, 99, &st2);
  std::vector<double> c = RecordRetrySleeps(port, 1234, &st3);

  // max_attempts=6 => 5 backoffs, then the typed "saturated" terminal error.
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b);  // seed determines the jitter sequence exactly
  EXPECT_NE(a, c);
  for (Status* st : {&st1, &st2, &st3}) {
    EXPECT_EQ(st->code(), StatusCode::kUnavailable);
    EXPECT_NE(st->message().find("saturated"), std::string::npos);
  }
}

TEST(RetryPolicyTest, TotalDeadlineStopsLoopEarly) {
  // Server hint = retry floor = 40ms while nothing completes, so every
  // retry wants to sleep 0.04s against a 0.05s total budget.
  SaturatedServer srv(/*retry_floor_seconds=*/0.04);
  SimClock clock;
  ScopedSimClock scoped(&clock);

  auto client = ServiceClient::Connect("127.0.0.1", srv.ts->server->port());
  ASSERT_TRUE(client.ok());
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.max_backoff_seconds = 10.0;
  policy.total_deadline_seconds = 0.05;
  policy.jitter_fraction = 0;  // exact arithmetic for the assertion below
  int backoffs = 0;
  policy.on_backoff = [&backoffs](int, double) { ++backoffs; };
  auto reply =
      client->QueryWithRetry("SELECT SUM(a) FROM t WHERE c1 >= 3", policy);

  // The 0.04s hint fits the 0.05s budget once; the second one does not, so
  // the loop stops far short of max_attempts with the budget-exhausted error.
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(reply.status().message().find("retry budget"), std::string::npos);
  EXPECT_EQ(backoffs, 1);
  EXPECT_NEAR(clock.elapsed_seconds(), 0.04, 1e-9);
}

TEST(RetryPolicyTest, LegacyOverloadStillSucceedsAfterRelease) {
  SaturatedServer srv;
  std::thread releaser([&srv] {
    std::this_thread::sleep_for(50ms);
    srv.Release();
  });
  auto client = ServiceClient::Connect("127.0.0.1", srv.ts->server->port());
  ASSERT_TRUE(client.ok());
  auto reply = client->QueryWithRetry(
      "SELECT SUM(a) FROM t WHERE c1 >= 5 AND c1 <= 60", 50);
  releaser.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(std::isfinite(reply->estimate));
}

// ---------------------------------------------------------------------------
// Injected faults against a live server (need -DAQPP_ENABLE_FAILPOINTS=ON).
// ---------------------------------------------------------------------------

class InjectedFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::Registry::Global().DisableAll(); }
  void TearDown() override { fail::Registry::Global().DisableAll(); }
};

TEST_F(InjectedFaultTest, EnqueueRejectCarriesRetryAfterHint) {
  SKIP_WITHOUT_FAILPOINTS();
  TestServer ts;
  auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());

  fail::Registry::Global().Enable(
      "service/admission/enqueue", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kResourceExhausted,
       .message = "injected overload"});
  auto raw = client->Call("QUERY SELECT SUM(a) FROM t WHERE c1 >= 2");
  fail::Registry::Global().DisableAll();

  // The injected rejection travels the same path as a real queue overflow,
  // so the backpressure contract (a retry_after_ms hint) must hold for it.
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(raw->ok);
  EXPECT_EQ(raw->Find("code").value_or(""), "ResourceExhausted");
  EXPECT_TRUE(raw->Find("retry_after_ms").has_value());
  EXPECT_NE(raw->message.find("injected overload"), std::string::npos);

  // And the client's retry loop rides it out once the fault clears.
  auto reply = client->QueryWithRetry("SELECT SUM(a) FROM t WHERE c1 >= 2");
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
}

TEST_F(InjectedFaultTest, SendDropIsIOErrorAndReconnectWorks) {
  SKIP_WITHOUT_FAILPOINTS();
  TestServer ts;
  auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());

  fail::Registry::Global().Enable(
      "service/server/send", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError});
  auto dropped = client->Call("PING");
  fail::Registry::Global().DisableAll();

  // The server dropped the reply and closed the connection: a typed IOError,
  // never a hang or a fabricated response.
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kIOError);

  auto fresh = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Ping().ok());
}

TEST_F(InjectedFaultTest, PartialSendNeverYieldsGarbledReply) {
  SKIP_WITHOUT_FAILPOINTS();
  TestServer ts;
  for (int i = 0; i < 8; ++i) {
    auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
    ASSERT_TRUE(client.ok());
    fail::Registry::Global().Enable(
        "service/server/send", fail::Trigger::Probability(0.7),
        {.kind = fail::ActionKind::kPartialIo, .io_fraction = 0.5});
    auto reply = client->Query("SELECT SUM(a) FROM t WHERE c1 >= " +
                               std::to_string(2 + i));
    fail::Registry::Global().DisableAll();
    if (reply.ok()) {
      // Survived intact: must be a well-formed, finite answer.
      EXPECT_TRUE(std::isfinite(reply->estimate));
      EXPECT_TRUE(std::isfinite(reply->half_width));
    } else {
      // A half-sent line can only surface as a dropped connection — the
      // truncated text never parses as a (wrong) OK reply.
      EXPECT_EQ(reply.status().code(), StatusCode::kIOError)
          << reply.status().ToString();
    }
  }
}

TEST_F(InjectedFaultTest, WorkerLatencyInjectionDelaysButCompletes) {
  SKIP_WITHOUT_FAILPOINTS();
  TestServer ts;
  auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());

  fail::Registry::Global().Enable(
      "service/admission/worker", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kInjectLatency, .latency_seconds = 0.002});
  auto reply = client->Query("SELECT SUM(a) FROM t WHERE c1 >= 10");
  auto stats = fail::Registry::Global().stats("service/admission/worker");
  fail::Registry::Global().DisableAll();

  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GE(stats.fires, 1u);
}

TEST_F(InjectedFaultTest, RecvFaultClosesSessionServerStaysUp) {
  SKIP_WITHOUT_FAILPOINTS();
  TestServer ts;
  auto victim = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(victim.ok());

  fail::Registry::Global().Enable(
      "service/server/recv", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError});
  auto dropped = victim->Call("PING");
  fail::Registry::Global().DisableAll();
  EXPECT_FALSE(dropped.ok());

  // One poisoned connection must not take the accept loop down.
  auto fresh = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Ping().ok());
}

}  // namespace
}  // namespace aqpp
