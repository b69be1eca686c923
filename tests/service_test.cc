// Sessions, the line protocol, and the TCP front end: round-trips,
// concurrent client sessions over real sockets, backpressure ridden out by
// the client retry loop, bit-identical replies across the wire, and the
// shared LineServer loop's caps and thread reaping on all three daemons.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/line_server.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "service/session.h"
#include "shard/coordinator.h"
#include "shard/coordinator_server.h"
#include "shard/local_group.h"
#include "shard/worker_server.h"
#include "sql/binder.h"
#include "test_util.h"

namespace aqpp {
namespace {

using namespace std::chrono_literals;

bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(SessionManagerTest, OpenGetCloseAndLimit) {
  SessionManager manager({.max_sessions = 2});
  auto a = manager.Open("alice");
  auto b = manager.Open("bob");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(manager.active(), 2u);
  EXPECT_EQ(manager.Open("carol").status().code(),
            StatusCode::kResourceExhausted);

  auto got = manager.Get((*a)->id());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name(), "alice");

  ASSERT_TRUE(manager.Close((*a)->id()).ok());
  EXPECT_EQ(manager.Get((*a)->id()).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.active(), 1u);

  // Slot freed: a new session fits, and ids keep increasing.
  auto c = manager.Open("carol");
  ASSERT_TRUE(c.ok());
  EXPECT_GT((*c)->id(), (*b)->id());
  EXPECT_EQ(manager.total_opened(), 3u);
}

TEST(SessionTest, CountersAndBoundedQueryLog) {
  Session session(7, "s", 3);
  session.OnSubmitted();
  session.OnSubmitted();
  session.OnCompleted();
  session.OnRejected();
  SessionCounters c = session.counters();
  EXPECT_EQ(c.submitted, 2u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.rejected, 1u);

  for (int64_t i = 0; i < 5; ++i) {
    RangeQuery q;
    q.predicate.Add({0, i, i + 10});
    session.RecordQuery(q);
  }
  auto log = session.recorded_queries();
  ASSERT_EQ(log.size(), 3u);  // oldest two dropped
  EXPECT_EQ(log.front().predicate.conditions()[0].lo, 2);
  EXPECT_EQ(log.back().predicate.conditions()[0].lo, 4);
}

TEST(ProtocolTest, ParseRequestVariants) {
  auto hello = ParseRequest("hello analytics-ui");
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->type, RequestType::kHello);
  EXPECT_EQ(hello->name, "analytics-ui");

  auto bare_hello = ParseRequest("HELLO");
  ASSERT_TRUE(bare_hello.ok());
  EXPECT_TRUE(bare_hello->name.empty());

  auto set = ParseRequest("set TIMEOUT_MS 250");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->type, RequestType::kSet);
  EXPECT_EQ(set->set_key, "timeout_ms");
  EXPECT_EQ(set->set_value, "250");

  auto query = ParseRequest("QUERY SELECT SUM(a) FROM t WHERE c1 >= 10");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->type, RequestType::kQuery);
  EXPECT_EQ(query->sql, "SELECT SUM(a) FROM t WHERE c1 >= 10");

  EXPECT_EQ(ParseRequest("ping")->type, RequestType::kPing);
  EXPECT_EQ(ParseRequest("STATS")->type, RequestType::kStats);
  EXPECT_EQ(ParseRequest("quit")->type, RequestType::kQuit);

  EXPECT_EQ(ParseRequest("FROBNICATE").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("SET timeout_ms").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("QUERY").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("   ").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ResponseRoundTripPreservesExactDoubles) {
  Response r;
  r.AddDouble("estimate", 123456789.12345679);
  r.AddDouble("third", 1.0 / 3.0);
  r.AddDouble("tiny", 4.9406564584124654e-324);  // denormal min
  r.AddUint("n", 18446744073709551615ull);

  auto parsed = ParseResponse(FormatResponse(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(*parsed->GetDouble("estimate"), 123456789.12345679);
  EXPECT_EQ(*parsed->GetDouble("third"), 1.0 / 3.0);
  EXPECT_EQ(*parsed->GetDouble("tiny"), 4.9406564584124654e-324);
  EXPECT_EQ(*parsed->GetUint("n"), 18446744073709551615ull);
  EXPECT_EQ(parsed->GetDouble("absent").status().code(),
            StatusCode::kNotFound);
}

TEST(ProtocolTest, ErrorResponseCarriesCodeAndFreeTextMessage) {
  Response err = Response::Error("DeadlineExceeded",
                                 "ran out of time at phase 2");
  std::string line = FormatResponse(err);
  EXPECT_EQ(line, "ERR code=DeadlineExceeded msg=ran out of time at phase 2");

  auto parsed = ParseResponse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->Find("code").value(), "DeadlineExceeded");
  EXPECT_EQ(parsed->message, "ran out of time at phase 2");

  // Newlines in the status text must not break the one-line framing.
  std::string multi = FormatResponse(Response::Error("Internal", "a\nb"));
  EXPECT_EQ(multi.find('\n'), std::string::npos);
}

// Shared scaffolding for the socket tests: a prepared engine, a catalog
// exposing it as "t", a QueryService, and a ServiceServer on an ephemeral
// port.
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
    service = std::make_unique<QueryService>(EngineRef(engine.get()), sopts);
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

TEST(ServiceServerTest, ProtocolVerbsOverTheWire) {
  TestServer ts;
  auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->Ping().ok());
  auto sid = client->Hello("wire-test");
  ASSERT_TRUE(sid.ok());
  EXPECT_GT(*sid, 0u);
  ASSERT_TRUE(client->SetTimeoutMs(5000).ok());

  // Malformed input gets an ERR line, not a dropped connection.
  auto bogus = client->Call("FROBNICATE now");
  ASSERT_TRUE(bogus.ok());
  EXPECT_FALSE(bogus->ok);
  EXPECT_EQ(bogus->Find("code").value(), "InvalidArgument");
  auto bad_sql = client->Call("QUERY SELECT FROM t");
  ASSERT_TRUE(bad_sql.ok());
  EXPECT_FALSE(bad_sql->ok);

  // A real query, twice: the second reply is a cache hit and bit-identical
  // after its %.17g round-trip.
  const std::string sql = "SELECT SUM(a) FROM t WHERE c1 >= 10 AND c1 <= 60";
  auto first = client->Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  auto second = client->Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(first->estimate, second->estimate);
  EXPECT_EQ(first->half_width, second->half_width);

  client->Close();
}

TEST(ServiceServerTest, SetSynopsisVerbSwitchesEstimatorAndDropsCache) {
  TestServer ts;
  auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());

  const std::string sql = "SELECT SUM(a) FROM t WHERE c1 >= 10 AND c1 <= 60";
  auto legacy = client->Query(sql);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  // Switching the synopsis invalidates the cache: the next identical query
  // is a miss, answered by the new estimator.
  ASSERT_TRUE(client->SetSynopsis("reservoir_closed").ok());
  EXPECT_STREQ(ts.engine->active_synopsis()->kind(), "reservoir_closed");
  auto routed = client->Query(sql);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_FALSE(routed->cache_hit);

  // Unknown kinds are a wire-level NotFound, not a dropped connection, and
  // leave the active synopsis untouched.
  auto bad = client->Call("SET SYNOPSIS no_such_kind");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok);
  EXPECT_EQ(bad->Find("code").value(), "NotFound");
  EXPECT_STREQ(ts.engine->active_synopsis()->kind(), "reservoir_closed");

  // "off" restores the default reservoir (and the verb lowercases its
  // value); the reply still names "off".
  auto off = client->Call("SET SYNOPSIS OFF");
  ASSERT_TRUE(off.ok());
  EXPECT_TRUE(off->ok);
  EXPECT_EQ(off->Find("synopsis").value(), "off");
  ASSERT_NE(ts.engine->active_synopsis(), nullptr);
  EXPECT_STREQ(ts.engine->active_synopsis()->kind(), "reservoir");
  EXPECT_TRUE(ts.engine->active_synopsis()->engine_aligned());
  auto back = client->Query(sql);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->cache_hit);

  client->Close();
}

TEST(ServiceServerTest, EightConcurrentSessions) {
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 10;
  ServiceOptions sopts;
  sopts.admission.num_workers = 4;
  TestServer ts(sopts);

  const std::vector<std::string> sqls = {
      "SELECT SUM(a) FROM t WHERE c1 >= 10 AND c1 <= 60",
      "SELECT SUM(a) FROM t WHERE c1 >= 20 AND c1 <= 80",
      "SELECT SUM(a) FROM t WHERE c2 >= 5 AND c2 <= 25",
      "SELECT COUNT(*) FROM t WHERE c1 >= 30 AND c1 <= 70",
  };

  struct ClientResult {
    std::vector<std::string> errors;
    // sql index -> estimates observed (exact doubles off the wire).
    std::map<size_t, std::vector<double>> estimates;
    int cache_hits = 0;
  };
  std::vector<ClientResult> results(kClients);

  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&ts, &sqls, &results, i] {
      ClientResult& r = results[static_cast<size_t>(i)];
      auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
      if (!client.ok()) {
        r.errors.push_back(client.status().ToString());
        return;
      }
      auto sid = client->Hello("client-" + std::to_string(i));
      if (!sid.ok()) {
        r.errors.push_back(sid.status().ToString());
        return;
      }
      for (int j = 0; j < kQueriesPerClient; ++j) {
        size_t which = static_cast<size_t>(i + j) % sqls.size();
        auto reply = client->QueryWithRetry(sqls[which]);
        if (!reply.ok()) {
          r.errors.push_back(reply.status().ToString());
          continue;
        }
        r.estimates[which].push_back(reply->estimate);
        if (reply->cache_hit) ++r.cache_hits;
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();

  int total_replies = 0;
  int total_hits = 0;
  std::map<size_t, double> reference;
  for (const ClientResult& r : results) {
    for (const std::string& e : r.errors) ADD_FAILURE() << e;
    total_hits += r.cache_hits;
    for (const auto& [which, values] : r.estimates) {
      for (double v : values) {
        ++total_replies;
        // Every session sees the same bits for the same canonical query —
        // the cache guarantee, across threads AND the text protocol.
        auto [it, inserted] = reference.emplace(which, v);
        if (!inserted) {
          EXPECT_EQ(it->second, v) << "sql #" << which;
        }
      }
    }
  }
  EXPECT_EQ(total_replies, kClients * kQueriesPerClient);
  EXPECT_GT(total_hits, 0);

  // Let the server retire the client connections, then audit its stats.
  ASSERT_TRUE(
      WaitFor([&ts] { return ts.server->active_connections() == 0; }));
  auto control = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(control.ok());
  auto stats = control->Stats();
  ASSERT_TRUE(stats.ok());
  std::map<std::string, std::string> fields(stats->begin(), stats->end());
  auto uint_field = [&fields](const std::string& key) {
    auto it = fields.find(key);
    EXPECT_NE(it, fields.end()) << key;
    return it == fields.end() ? 0ull : std::strtoull(it->second.c_str(),
                                                     nullptr, 10);
  };
  EXPECT_EQ(uint_field("queries"),
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(uint_field("completed"),
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(uint_field("cache_hits"), static_cast<uint64_t>(total_hits));
  EXPECT_EQ(uint_field("failed"), 0u);
  EXPECT_EQ(uint_field("cancelled"), 0u);
  EXPECT_EQ(uint_field("timed_out"), 0u);
  EXPECT_LE(uint_field("peak_queue_depth"),
            sopts.admission.max_queue_depth);
  // 8 anonymous accept-sessions, 8 named HELLO replacements, our control
  // connection; everything but the control session is closed again.
  EXPECT_EQ(uint_field("sessions_opened"),
            static_cast<uint64_t>(2 * kClients + 1));
  EXPECT_EQ(uint_field("sessions_active"), 1u);
  control->Close();
}

TEST(ServiceServerTest, MetricsVerbExposesPerPhaseHistogramsOverTheWire) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::SetEnabled(true);
  TestServer ts;
  auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello("metrics-test").ok());

  // Snapshot the global per-phase histogram counts, issue N DISTINCT
  // queries (cache hits skip the engine phases and would break the
  // one-span-per-phase-per-query invariant), and check the deltas.
  const std::array<obs::Phase, 7> phases = {
      obs::Phase::kParse,          obs::Phase::kQueue,
      obs::Phase::kIdentification, obs::Phase::kCubeProbe,
      obs::Phase::kSampleEstimation, obs::Phase::kCiConstruction,
      obs::Phase::kTotal};
  std::map<obs::Phase, uint64_t> before;
  for (obs::Phase p : phases) before[p] = obs::PhaseHistogram(p)->count();
  uint64_t scoring_before =
      obs::PhaseHistogram(obs::Phase::kScoring)->count();

  constexpr uint64_t kQueries = 5;
  for (uint64_t i = 0; i < kQueries; ++i) {
    std::string sql = "SELECT SUM(a) FROM t WHERE c1 >= " +
                      std::to_string(3 + i) + " AND c1 <= " +
                      std::to_string(61 + i);
    auto reply = client->Query(sql);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply->cache_hit);
  }

  // Exactly one span per straight-line phase per query; scoring runs at
  // least one batched sweep per identification.
  for (obs::Phase p : phases) {
    EXPECT_EQ(obs::PhaseHistogram(p)->count(), before[p] + kQueries)
        << "phase " << obs::PhaseName(p);
  }
  EXPECT_GE(obs::PhaseHistogram(obs::Phase::kScoring)->count(),
            scoring_before + kQueries);

  // The same counts must round-trip through the METRICS verb's Prometheus
  // text: one _count sample per phase with the exact current value.
  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  for (obs::Phase p : phases) {
    std::string want =
        std::string("aqpp_query_phase_seconds_count{phase=\"") +
        obs::PhaseName(p) + "\"} " +
        std::to_string(obs::PhaseHistogram(p)->count()) + "\n";
    EXPECT_NE(text->find(want), std::string::npos) << want;
  }
  EXPECT_NE(text->find("# TYPE aqpp_query_phase_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text->find("aqpp_service_queries_total"), std::string::npos);
  EXPECT_NE(text->find("aqpp_cache_misses_total"), std::string::npos);
  EXPECT_NE(text->find("aqpp_sessions_active"), std::string::npos);

  // STATS grew the slow-query tally and this connection's own counters.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  std::map<std::string, std::string> fields(stats->begin(), stats->end());
  ASSERT_TRUE(fields.count("slow_queries"));
  ASSERT_TRUE(fields.count("session_submitted"));
  EXPECT_EQ(fields["session_submitted"], std::to_string(kQueries));
  EXPECT_EQ(fields["session_completed"], std::to_string(kQueries));
  EXPECT_EQ(fields["session_cache_hits"], "0");

  // A cache hit records ONLY the total phase (no engine work, no parse loop
  // re-entry is still a parse, though — the server parses before the cache
  // lookup, so parse advances too).
  uint64_t total_before = obs::PhaseHistogram(obs::Phase::kTotal)->count();
  uint64_t ident_before =
      obs::PhaseHistogram(obs::Phase::kIdentification)->count();
  auto hit = client->Query("SELECT SUM(a) FROM t WHERE c1 >= 3 AND c1 <= 61");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(obs::PhaseHistogram(obs::Phase::kTotal)->count(),
            total_before + 1);
  EXPECT_EQ(obs::PhaseHistogram(obs::Phase::kIdentification)->count(),
            ident_before);

  client->Close();
}

TEST(ServiceServerTest, SlowQueryLogCapturesPhaseBreakdown) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::SetEnabled(true);
  ServiceOptions sopts;
  // <= 0 disables the log entirely, so use a vanishingly small positive
  // threshold to classify every query as slow.
  sopts.slow_query_threshold_seconds = 1e-12;
  TestServer ts(sopts);
  auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Query("SELECT SUM(a) FROM t WHERE c1 >= 12 AND c1 <= 77")
                  .ok());
  EXPECT_EQ(ts.service->stats().slow_queries, 1u);
  auto snap = ts.service->slow_query_log().Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_GT(snap[0].total_seconds, 0.0);
  // The captured breakdown has real engine phases, not just the total.
  EXPECT_GT(snap[0].phase_seconds[static_cast<size_t>(
                obs::Phase::kIdentification)],
            0.0);
  EXPECT_GT(snap[0].phase_seconds[static_cast<size_t>(
                obs::Phase::kSampleEstimation)],
            0.0);
  // The log keys on the canonical query form (the cache key), which encodes
  // the predicate ranges.
  EXPECT_NE(snap[0].sql.find("c=0:12:77"), std::string::npos) << snap[0].sql;
  client->Close();
}

TEST(ServiceServerTest, ClientsRideOutBackpressureViaRetryAfter) {
  constexpr int kClients = 6;
  ServiceOptions sopts;
  sopts.cache.capacity = 0;  // every request must take a worker slot
  sopts.admission.num_workers = 1;
  sopts.admission.max_queue_depth = 1;
  sopts.admission.max_per_session = 4;
  sopts.admission.worker_hook = [] { std::this_thread::sleep_for(30ms); };
  TestServer ts(sopts);

  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&ts, &errors, i] {
      auto client = ServiceClient::Connect("127.0.0.1", ts.server->port());
      if (!client.ok()) {
        errors[static_cast<size_t>(i)] = client.status().ToString();
        return;
      }
      // Distinct ranges per client, so nothing is absorbed by caching.
      std::string sql = "SELECT SUM(a) FROM t WHERE c1 >= " +
                        std::to_string(2 + i) + " AND c1 <= " +
                        std::to_string(50 + i);
      for (int j = 0; j < 2; ++j) {
        auto reply = client->QueryWithRetry(sql, /*max_attempts=*/50);
        if (!reply.ok()) {
          errors[static_cast<size_t>(i)] = reply.status().ToString();
          return;
        }
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;

  // With 6 clients hammering a single worker and a one-slot queue, the
  // server must have pushed back at least once — and every client still
  // finished by honoring the retry-after hints.
  ServiceStats stats = ts.service->stats();
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(2 * kClients));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LE(stats.admission.peak_queue_depth, 1u);
}

// ---- The shared line-server loop, on all three daemons ---------------------

// A raw protocol connection: framing and caps need byte-level control that
// ServiceClient deliberately hides.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    // A server that never answers fails the test instead of hanging it.
    timeval tv{.tv_sec = 20, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool connected() const { return connected_; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // The next line without its newline; "<eof>" once the server closed the
  // connection, "<timeout>" if nothing arrived in time.
  std::string ReadLine() {
    size_t nl;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return "<eof>";
      if (n < 0) return "<timeout>";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

// The service, one shard worker over the same table, and a coordinator
// over that worker, each behind its own LineServer on an ephemeral port.
struct ThreeDaemons {
  struct Daemon {
    std::string name;
    std::function<int()> port;
    std::function<size_t()> active_connections;
  };

  ThreeDaemons() {
    shard::LocalShardGroupOptions gopt;
    gopt.worker.sample_size = 512;
    gopt.worker.cube_budget = 64;
    auto built = shard::LocalShardGroup::Build(
        service.table, *service.engine->prepared_template(), 1, gopt);
    AQPP_CHECK_OK(built.status());
    group = std::move(*built);
    worker = std::make_unique<shard::WorkerServer>(&group->worker(0));
    AQPP_CHECK_OK(worker->Start());
    coordinator = std::make_unique<shard::ShardCoordinator>(
        std::vector<std::vector<shard::ReplicaEndpoint>>{
            {{.host = "127.0.0.1", .port = worker->port()}}});
    AQPP_CHECK_OK(coordinator->Connect());
    front = std::make_unique<shard::CoordinatorServer>(coordinator.get(),
                                                       &service.catalog);
    AQPP_CHECK_OK(front->Start());
  }

  std::vector<Daemon> daemons() const {
    return {
        {"service", [this] { return service.server->port(); },
         [this] { return service.server->active_connections(); }},
        {"worker", [this] { return worker->port(); },
         [this] { return worker->active_connections(); }},
        {"coordinator", [this] { return front->port(); },
         [this] { return front->active_connections(); }},
    };
  }

  // Destroyed bottom-up: each server stops before what it serves from.
  TestServer service;
  std::unique_ptr<shard::LocalShardGroup> group;
  std::unique_ptr<shard::WorkerServer> worker;
  std::unique_ptr<shard::ShardCoordinator> coordinator;
  std::unique_ptr<shard::CoordinatorServer> front;
};

size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Connects, sends QUIT, reads the goodbye, and disconnects.
void QuitCycle(int port) {
  RawConnection conn(port);
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("QUIT\n"));
  ASSERT_EQ(conn.ReadLine(), "OK bye=1");
}

TEST(LineServerTest, FinishedConnectionThreadsAreReaped) {
  ThreeDaemons tiers;
  for (const auto& daemon : tiers.daemons()) {
    SCOPED_TRACE(daemon.name);
    // Warm up allocator arenas and the thread-stack cache first.
    for (int i = 0; i < 20; ++i) QuitCycle(daemon.port());
    ASSERT_TRUE(WaitFor([&] { return daemon.active_connections() == 0; }));
    const size_t before = MappingCount();
    for (int i = 0; i < 500; ++i) {
      QuitCycle(daemon.port());
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(WaitFor([&] { return daemon.active_connections() == 0; }));
    const size_t after = MappingCount();
    // An unjoined thread keeps its stack (and guard page) mapped: 500 of
    // them would add ~1000 lines.
    EXPECT_LT(after, before + 100) << before << " -> " << after;
  }
}

TEST(LineServerTest, OverCapLineGetsOneErrorThenClose) {
  ThreeDaemons tiers;
  const std::string oversized(kMaxLineBytes + 1, 'x');  // no newline
  for (const auto& daemon : tiers.daemons()) {
    SCOPED_TRACE(daemon.name);
    RawConnection conn(daemon.port());
    ASSERT_TRUE(conn.connected());
    ASSERT_TRUE(conn.Send(oversized));
    EXPECT_EQ(conn.ReadLine(),
              "ERR code=InvalidArgument msg=request line over the size cap");
    EXPECT_EQ(conn.ReadLine(), "<eof>");
  }
}

TEST(LineServerTest, ConnectionPastTheCapIsRefused) {
  ThreeDaemons tiers;
  for (const auto& daemon : tiers.daemons()) {
    SCOPED_TRACE(daemon.name);
    std::vector<std::unique_ptr<RawConnection>> held;
    for (size_t i = 0; i < kMaxConnections; ++i) {
      held.push_back(std::make_unique<RawConnection>(daemon.port()));
      // A reply proves the connection is registered, not just queued.
      ASSERT_TRUE(held.back()->Send("PING\n"));
      ASSERT_EQ(held.back()->ReadLine(), "OK pong=1") << "connection " << i;
    }
    EXPECT_EQ(daemon.active_connections(), kMaxConnections);
    RawConnection refused(daemon.port());
    ASSERT_TRUE(refused.connected());
    EXPECT_EQ(refused.ReadLine(),
              "ERR code=ResourceExhausted msg=connection limit reached");
    EXPECT_EQ(refused.ReadLine(), "<eof>");

    // Freed slots are usable again.
    held.clear();
    ASSERT_TRUE(WaitFor([&] { return daemon.active_connections() == 0; }));
    RawConnection again(daemon.port());
    ASSERT_TRUE(again.Send("PING\n"));
    EXPECT_EQ(again.ReadLine(), "OK pong=1");
  }
}

}  // namespace
}  // namespace aqpp
