// Continuous ingest/query soak: N writer connections blast row batches while
// M reader connections query, all over the live TCP stack with the
// background absorber running. The battery asserts the three soak
// invariants from docs/ingest.md:
//
//   (a) Coverage — at quiescent checkpoints the 95% confidence intervals
//       cover the exact ground truth (base + every committed batch, additive
//       for SUM/COUNT) at an empirical rate inside a calibrated binomial
//       band around the nominal level.
//   (b) Freshness — every batch a writer has seen acked is reflected in the
//       very next query any reader issues: the reply's generation is at
//       least the last acked generation snapshotted before the query was
//       sent (K = 1, valid because the delta fold is exact and immediate).
//   (c) Determinism — the same seed produces the same answer fingerprint
//       under a deterministic single-threaded schedule (manual absorbs).
//
// The short battery (IngestSoakTest.*) runs in the default ctest lane in a
// few seconds. The full soak (IngestSoakFullTest.*) self-skips unless
// AQPP_INGEST_SOAK is set; the nightly workflow exports it and uploads
// ingest_soak_failure.txt (written on failure, carrying the effective seed)
// as the failing-seed artifact.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "exec/executor.h"
#include "expr/query.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "storage/table.h"
#include "test_util.h"

namespace aqpp {
namespace {

using namespace std::chrono_literals;

constexpr size_t kBaseRows = 20000;

std::shared_ptr<Table> MakeBatch(size_t rows, uint64_t seed) {
  Schema schema({{"c1", DataType::kInt64},
                 {"c2", DataType::kInt64},
                 {"a", DataType::kDouble}});
  auto t = std::make_shared<Table>(schema);
  t->Reserve(rows);
  Rng rng(seed);
  auto& c1 = t->mutable_column(0).MutableInt64Data();
  auto& c2 = t->mutable_column(1).MutableInt64Data();
  auto& a = t->mutable_column(2).MutableDoubleData();
  for (size_t i = 0; i < rows; ++i) {
    c1.push_back(rng.NextInt(1, 100));
    c2.push_back(rng.NextInt(1, 50));
    a.push_back(100.0 + 10.0 * rng.NextGaussian());
  }
  t->SetRowCountFromColumns();
  return t;
}

struct SoakQuery {
  std::string sql;
  RangeQuery query;
};

SoakQuery RandomSumQuery(Rng* rng) {
  int64_t lo1 = static_cast<int64_t>(rng->NextInt(1, 60));
  int64_t hi1 = lo1 + static_cast<int64_t>(rng->NextInt(20, 40));
  if (hi1 > 100) hi1 = 100;
  int64_t lo2 = static_cast<int64_t>(rng->NextInt(1, 30));
  int64_t hi2 = lo2 + static_cast<int64_t>(rng->NextInt(10, 20));
  if (hi2 > 50) hi2 = 50;
  SoakQuery sq;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SELECT SUM(a) FROM t WHERE c1 BETWEEN %lld AND %lld "
                "AND c2 BETWEEN %lld AND %lld",
                static_cast<long long>(lo1), static_cast<long long>(hi1),
                static_cast<long long>(lo2), static_cast<long long>(hi2));
  sq.sql = buf;
  sq.query.func = AggregateFunction::kSum;
  sq.query.agg_column = 2;
  sq.query.predicate.Add({0, lo1, hi1});
  sq.query.predicate.Add({1, lo2, hi2});
  return sq;
}

double ExactOver(const Table& t, const RangeQuery& q) {
  auto v = ExactExecutor(&t).Execute(q);
  AQPP_CHECK_OK(v.status());
  return *v;
}

// The live stack: engine + service + ingest (background absorber) + server.
struct SoakStack {
  explicit SoakStack(uint64_t seed, bool background_absorber) {
    table = testutil::MakeSynthetic({.rows = kBaseRows, .seed = seed});
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
    service = std::make_unique<QueryService>(engine.get());
    IngestOptions iopts;
    iopts.background = background_absorber;
    iopts.absorb_threshold_rows = 512;
    iopts.absorb_interval_seconds = 0.02;
    iopts.seed = seed ^ 0x5eed;
    ingest = std::make_unique<IngestManager>(engine.get(), iopts);
    service->AttachIngest(ingest.get());
    AQPP_CHECK_OK(ingest->Start());
    server = std::make_unique<ServiceServer>(service.get(), &catalog);
    AQPP_CHECK_OK(server->Start());
  }

  ~SoakStack() {
    server->Stop();
    service->Stop();
    ingest->Stop();
  }

  std::shared_ptr<Table> table;
  std::shared_ptr<AqppEngine> engine;
  Catalog catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<IngestManager> ingest;
  std::unique_ptr<ServiceServer> server;
};

// One soak run: `writers` ingest connections send `batches_per_writer`
// batches of `batch_rows` rows while `readers` query connections issue
// random SUM queries; after the concurrent phase quiesces, a checkpoint
// sweep measures empirical CI coverage against exact ground truth.
// Returns the number of coverage trials and hits through the out-params.
void RunSoak(uint64_t seed, size_t writers, size_t readers,
             size_t batches_per_writer, size_t batch_rows,
             size_t checkpoint_queries, size_t* trials, size_t* hits) {
  SoakStack stack(seed, /*background_absorber=*/true);
  const int port = stack.server->port();

  // Pre-generate every batch so ground truth is known exactly once the
  // concurrent phase quiesces.
  std::vector<std::vector<std::shared_ptr<Table>>> batches(writers);
  for (size_t w = 0; w < writers; ++w) {
    for (size_t b = 0; b < batches_per_writer; ++b) {
      batches[w].push_back(
          MakeBatch(batch_rows, seed + 1000 * (w + 1) + b));
    }
  }

  // Freshness token: the highest generation any writer has seen acked.
  std::atomic<uint64_t> last_acked_generation{0};
  std::atomic<bool> writers_done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto client = ServiceClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++failures;
        return;
      }
      (void)client->Hello("writer");
      for (const auto& batch : batches[w]) {
        // Backpressure (ResourceExhausted) is part of the contract: retry
        // until the absorber drains the delta.
        for (int attempt = 0;; ++attempt) {
          auto ack = client->Ingest(*batch);
          if (ack.ok()) {
            // Advance the freshness token monotonically.
            uint64_t gen = ack->generation;
            uint64_t seen = last_acked_generation.load();
            while (gen > seen &&
                   !last_acked_generation.compare_exchange_weak(seen, gen)) {
            }
            break;
          }
          if (ack.status().code() != StatusCode::kResourceExhausted ||
              attempt > 1000) {
            ADD_FAILURE() << "writer " << w
                          << " ingest failed: " << ack.status().ToString();
            ++failures;
            return;
          }
          std::this_thread::sleep_for(1ms);
        }
      }
    });
  }

  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto client = ServiceClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++failures;
        return;
      }
      (void)client->Hello("reader");
      Rng rng(testutil::TestSeed(seed + 7700 + r));
      uint64_t last_seen_generation = 0;
      while (!writers_done.load()) {
        SoakQuery sq = RandomSumQuery(&rng);
        // Freshness invariant (b): snapshot the acked generation BEFORE
        // sending; the reply must reflect at least that much.
        uint64_t acked_before = last_acked_generation.load();
        auto reply = client->Query(sq.sql);
        if (!reply.ok()) {
          ADD_FAILURE() << "reader " << r
                        << " query failed: " << reply.status().ToString();
          ++failures;
          return;
        }
        EXPECT_TRUE(std::isfinite(reply->estimate));
        EXPECT_TRUE(reply->folded);
        EXPECT_GE(reply->generation, acked_before)
            << "stale answer: a committed batch was not reflected in the "
               "very next query";
        // Generations are monotone per connection.
        EXPECT_GE(reply->generation, last_seen_generation);
        last_seen_generation = reply->generation;
      }
    });
  }

  // Writers finish, readers notice, everyone joins.
  for (size_t i = 0; i < writers; ++i) threads[i].join();
  writers_done.store(true);
  for (size_t i = writers; i < threads.size(); ++i) threads[i].join();
  ASSERT_EQ(failures.load(), 0);

  // Quiesce: drain the delta so ground truth is exactly base + all batches.
  ASSERT_TRUE(stack.ingest->AbsorbNow().ok());
  IngestSnapshot snap = stack.ingest->snapshot();
  EXPECT_EQ(snap.rows_committed, writers * batches_per_writer * batch_rows);
  EXPECT_EQ(snap.delta_rows, 0u);
  EXPECT_EQ(snap.total_rows,
            kBaseRows + writers * batches_per_writer * batch_rows);

  // Checkpoint sweep: empirical coverage against exact ground truth.
  auto client = ServiceClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  (void)client->Hello("checker");
  Rng rng(testutil::TestSeed(seed + 31));
  for (size_t i = 0; i < checkpoint_queries; ++i) {
    SoakQuery sq = RandomSumQuery(&rng);
    double truth = ExactOver(*stack.table, sq.query);
    for (const auto& writer_batches : batches) {
      for (const auto& batch : writer_batches) {
        truth += ExactOver(*batch, sq.query);
      }
    }
    auto reply = client->Query(sq.sql);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ++*trials;
    if (truth >= reply->lo && truth <= reply->hi) ++*hits;
  }
}

// Calibrated binomial band: nominal 0.95 with a z=4 sampling buffer plus a
// bias allowance. The allowance mirrors coverage_test.cc's calibration: the
// AQP++ estimator's cube-aligned pres discretize the predicate, which costs
// realized coverage several points below nominal even with no ingest in
// play (the dedicated battery grants 0.22 at n=200). The soak grants 0.10 —
// tight enough to catch broken intervals (measured rates sit near 0.89 on
// healthy builds), loose enough not to flake on estimator bias the soak is
// not the test for.
void ExpectCoverageInBand(size_t trials, size_t hits) {
  ASSERT_GT(trials, 0u);
  double rate = static_cast<double>(hits) / static_cast<double>(trials);
  double band = 4.0 * std::sqrt(0.95 * 0.05 / static_cast<double>(trials));
  EXPECT_GE(rate, 0.95 - band - 0.10)
      << hits << "/" << trials << " intervals covered the ground truth";
}

TEST(IngestSoakTest, ConcurrentWritersAndReadersShortSoak) {
  size_t trials = 0, hits = 0;
  RunSoak(testutil::TestSeed(20260807), /*writers=*/2, /*readers=*/2,
          /*batches_per_writer=*/24, /*batch_rows=*/64,
          /*checkpoint_queries=*/120, &trials, &hits);
  ExpectCoverageInBand(trials, hits);
}

// ---------------------------------------------------------------------------
// Determinism: same seed => same fingerprint.
// ---------------------------------------------------------------------------

// FNV-1a over the exact %.17g renderings — any bit of drift in any answer
// changes the fingerprint.
uint64_t FingerprintMix(uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// One deterministic schedule against a fresh stack: sequential appends,
// manual absorbs at fixed points, queries through the service (the same
// path the wire uses), all seeded. Returns the answer fingerprint.
uint64_t RunDeterministicSchedule(uint64_t seed) {
  auto table = testutil::MakeSynthetic({.rows = kBaseRows, .seed = seed});
  EngineOptions eopts;
  eopts.sample_rate = 0.05;
  eopts.cube_budget = 400;
  auto created = AqppEngine::Create(table, eopts);
  AQPP_CHECK_OK(created.status());
  std::shared_ptr<AqppEngine> engine(std::move(*created));
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  AQPP_CHECK_OK(engine->Prepare(tmpl));
  QueryService service{engine.get()};
  IngestOptions iopts;
  iopts.background = false;  // manual absorbs: the deterministic-replay mode
  iopts.seed = seed ^ 0x5eed;
  IngestManager ingest(engine.get(), iopts);
  service.AttachIngest(&ingest);
  auto session = service.sessions().Open("fingerprint");
  AQPP_CHECK_OK(session.status());
  uint64_t sid = (*session)->id();

  Rng rng(seed + 99);
  uint64_t fp = 1469598103934665603ULL;  // FNV offset basis
  for (int step = 0; step < 30; ++step) {
    uint64_t dice = rng.NextBounded(10);
    if (dice < 4) {
      AQPP_CHECK_OK(ingest.Append(*MakeBatch(64, seed + 500 + step)));
    } else if (dice < 6) {
      AQPP_CHECK_OK(ingest.AbsorbNow());
    } else {
      SoakQuery sq = RandomSumQuery(&rng);
      QueryOutcome out = service.Execute(sid, sq.query);
      AQPP_CHECK_OK(out.status);
      fp = FingerprintMix(fp, FormatDoubleExact(out.ci.estimate));
      fp = FingerprintMix(fp, FormatDoubleExact(out.ci.half_width));
      fp = FingerprintMix(fp, std::to_string(out.ingest_generation));
      fp = FingerprintMix(fp, std::to_string(out.delta_rows));
    }
  }
  service.Stop();
  return fp;
}

TEST(IngestSoakTest, SameSeedSameFingerprint) {
  uint64_t seed = testutil::TestSeed(0xf1f1);
  uint64_t a = RunDeterministicSchedule(seed);
  uint64_t b = RunDeterministicSchedule(seed);
  EXPECT_EQ(a, b) << "equal schedules must produce bit-equal answers";

  // And a different seed explores a different trajectory (sanity that the
  // fingerprint actually depends on the data).
  uint64_t c = RunDeterministicSchedule(seed + 1);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------------
// Full soak (nightly): gated on AQPP_INGEST_SOAK.
// ---------------------------------------------------------------------------

class IngestSoakFullTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* gate = std::getenv("AQPP_INGEST_SOAK");
    if (gate == nullptr || gate[0] == '\0') {
      GTEST_SKIP() << "set AQPP_INGEST_SOAK=1 to run the full ingest soak";
    }
  }

  void TearDown() override {
    if (HasFailure()) {
      // Failing-seed artifact for the nightly workflow: reproduce with
      // AQPP_TEST_SEED=<seed> ./ingest_soak_test.
      const char* env = std::getenv("AQPP_TEST_SEED");
      std::FILE* f = std::fopen("ingest_soak_failure.txt", "w");
      if (f != nullptr) {
        std::fprintf(f, "AQPP_TEST_SEED=%s\n", env == nullptr ? "" : env);
        std::fprintf(
            f, "effective_seed=%llu\n",
            static_cast<unsigned long long>(testutil::TestSeed(20260807)));
        std::fclose(f);
      }
    }
  }
};

TEST_F(IngestSoakFullTest, ContinuousIngestQuerySoak) {
  // Several independent soak rounds with distinct derived seeds; coverage
  // is pooled across rounds so the binomial band is tight.
  size_t trials = 0, hits = 0;
  for (uint64_t round = 0; round < 4; ++round) {
    RunSoak(testutil::TestSeed(20260807 + round), /*writers=*/4,
            /*readers=*/4, /*batches_per_writer=*/64, /*batch_rows=*/128,
            /*checkpoint_queries=*/250, &trials, &hits);
    if (HasFatalFailure()) return;
  }
  ExpectCoverageInBand(trials, hits);
}

TEST_F(IngestSoakFullTest, FingerprintStableAcrossManySeeds) {
  for (uint64_t i = 0; i < 8; ++i) {
    uint64_t seed = testutil::TestSeed(0xf1f1 + i * 17);
    EXPECT_EQ(RunDeterministicSchedule(seed), RunDeterministicSchedule(seed))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace aqpp
