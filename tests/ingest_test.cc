// Streaming-ingest battery: the delta/absorb consistency model, the INGEST
// wire codec, online-aggregation streaming over TCP, shard-tier forwarding,
// and the failpoint chaos lanes at the new seams.
//
// The load-bearing contracts pinned here (docs/ingest.md):
//   * Append is all-or-nothing: a rejected batch leaves no trace.
//   * A committed batch is visible to the very next query (exact SUM/COUNT
//     fold), and the answer shift equals an exact scan of the batch.
//   * AbsorbNow moves rows from the delta into the published state without
//     changing what COUNT(*) reports; a torn absorb (injected at the
//     candidate and publish seams) leaves the prior generation readable
//     bit-identically.
//   * Equal ingest/absorb schedules produce bit-equal answers (the soak
//     fingerprint invariant).
//   * An engine-aligned synopsis follows every published sample (shared
//     rows, oracle-equal answers) and is never serialized by the absorber.
//   * Online mode streams monotone PROGRESS rounds whose final OK line is
//     bit-identical to the one-shot answer; CANCEL abandons the stream
//     without poisoning the connection.
//   * The coordinator forwards ingest to the last shard's replicas and
//     invalidates its cache on the generation bump.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "engine_oracle.h"
#include "exec/executor.h"
#include "expr/query.h"
#include "kernels/kernels.h"
#include "service/client.h"
#include "service/ingest_wire.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "shard/coordinator.h"
#include "shard/local_group.h"
#include "shard/worker.h"
#include "shard/worker_server.h"
#include "storage/table.h"
#include "synopsis/reservoir.h"
#include "test_util.h"

namespace aqpp {
namespace {

using namespace std::chrono_literals;

#define SKIP_WITHOUT_FAILPOINTS()                                             \
  do {                                                                        \
    if (!fail::kCompiledIn)                                                   \
      GTEST_SKIP() << "failpoints compiled out (AQPP_ENABLE_FAILPOINTS=OFF)"; \
  } while (0)

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

RangeQuery MakeQuery(AggregateFunction func, int64_t lo1, int64_t hi1,
                     int64_t lo2 = 1, int64_t hi2 = 50) {
  RangeQuery q;
  q.func = func;
  q.agg_column = 2;
  q.predicate.Add({0, lo1, hi1});
  q.predicate.Add({1, lo2, hi2});
  return q;
}

// A batch with the synthetic schema (c1 INT64, c2 INT64, a DOUBLE), values
// inside the base table's domain so canonicalization is predicate-neutral
// and the cube-domain guard passes.
std::shared_ptr<Table> MakeBatch(size_t rows, uint64_t seed,
                                 int64_t dom1 = 100, int64_t dom2 = 50) {
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
    c1.push_back(rng.NextInt(1, dom1));
    c2.push_back(rng.NextInt(1, dom2));
    a.push_back(100.0 + 10.0 * rng.NextGaussian());
  }
  t->SetRowCountFromColumns();
  return t;
}

// Exact aggregate of `q` over `batch` — the oracle every fold is pinned to.
double ExactOver(const Table& batch, const RangeQuery& q) {
  auto v = ExactExecutor(&batch).Execute(q);
  AQPP_CHECK_OK(v.status());
  return *v;
}

// ---------------------------------------------------------------------------
// Engine-level fixture: prepared single engine + manual-absorb manager.
// ---------------------------------------------------------------------------

class IngestManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Registry::Global().DisableAll();
    table_ = testutil::MakeSynthetic(
        {.rows = 20000, .seed = testutil::TestSeed(4242)});
    EngineOptions eopts;
    eopts.sample_rate = 0.05;
    eopts.cube_budget = 400;
    auto created = AqppEngine::Create(table_, eopts);
    AQPP_CHECK_OK(created.status());
    engine_ = std::shared_ptr<AqppEngine>(std::move(*created));
    QueryTemplate tmpl;
    tmpl.agg_column = 2;
    tmpl.condition_columns = {0, 1};
    AQPP_CHECK_OK(engine_->Prepare(tmpl));
    // Draw the sample before ingest traffic (the manager's precondition).
    auto warm = engine_->Execute(MakeQuery(AggregateFunction::kCount, 1, 100));
    AQPP_CHECK_OK(warm.status());
  }

  void TearDown() override { fail::Registry::Global().DisableAll(); }

  std::shared_ptr<Table> table_;
  std::shared_ptr<AqppEngine> engine_;
};

TEST_F(IngestManagerTest, AppendIsAllOrNothingOnValidation) {
  IngestOptions opts;
  opts.background = false;
  opts.max_batch_rows = 256;
  IngestManager mgr(engine_.get(), opts);

  // Empty batch.
  auto empty = MakeBatch(0, 1);
  EXPECT_FALSE(mgr.Append(*empty).ok());

  // Oversized batch (protocol bound).
  auto oversized = MakeBatch(257, 2);
  EXPECT_EQ(mgr.Append(*oversized).code(), StatusCode::kInvalidArgument);

  // Schema mismatch (two columns).
  Schema two({{"c1", DataType::kInt64}, {"a", DataType::kDouble}});
  Table narrow(two);
  narrow.Reserve(1);
  narrow.mutable_column(0).MutableInt64Data().push_back(1);
  narrow.mutable_column(1).MutableDoubleData().push_back(1.0);
  narrow.SetRowCountFromColumns();
  EXPECT_FALSE(mgr.Append(narrow).ok());

  // Non-finite measure.
  auto nan_batch = MakeBatch(4, 3);
  nan_batch->mutable_column(2).MutableDoubleData()[2] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(mgr.Append(*nan_batch).ok());

  // Condition value past the cube's last cut.
  auto far = MakeBatch(4, 4);
  far->mutable_column(0).MutableInt64Data()[1] = 100000;
  EXPECT_EQ(mgr.Append(*far).code(), StatusCode::kOutOfRange);

  // No rejected batch left a trace.
  IngestSnapshot snap = mgr.snapshot();
  EXPECT_EQ(snap.batches_committed, 0u);
  EXPECT_EQ(snap.rows_committed, 0u);
  EXPECT_EQ(snap.delta_rows, 0u);
  EXPECT_EQ(snap.committed_generation, 0u);
  EXPECT_EQ(snap.total_rows, 20000u);
  // The delta handle may be null or an empty table; either way, no rows.
  auto delta = mgr.delta();
  EXPECT_TRUE(delta == nullptr || delta->num_rows() == 0);
}

TEST_F(IngestManagerTest, AppendCommitsAndFoldsExactly) {
  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine_.get(), opts);

  int commits = 0;
  mgr.set_commit_observer([&commits] { ++commits; });

  auto batch = MakeBatch(200, testutil::TestSeed(77));
  ASSERT_TRUE(mgr.Append(*batch).ok());
  EXPECT_EQ(commits, 1);

  IngestSnapshot snap = mgr.snapshot();
  EXPECT_EQ(snap.batches_committed, 1u);
  EXPECT_EQ(snap.rows_committed, 200u);
  EXPECT_EQ(snap.delta_rows, 200u);
  EXPECT_EQ(snap.committed_generation, 1u);
  EXPECT_EQ(snap.total_rows, 20200u);

  std::shared_ptr<const Table> delta = mgr.delta();
  ASSERT_NE(delta, nullptr);
  ASSERT_EQ(delta->num_rows(), 200u);

  const RangeQuery sum_q = MakeQuery(AggregateFunction::kSum, 10, 90, 1, 40);
  const RangeQuery count_q =
      MakeQuery(AggregateFunction::kCount, 10, 90, 1, 40);
  auto sum_fold = IngestManager::FoldValue(*delta, sum_q);
  ASSERT_TRUE(sum_fold.ok()) << sum_fold.status().ToString();
  EXPECT_NEAR(*sum_fold, ExactOver(*batch, sum_q),
              1e-9 * std::max(1.0, std::abs(*sum_fold)));
  auto count_fold = IngestManager::FoldValue(*delta, count_q);
  ASSERT_TRUE(count_fold.ok());
  EXPECT_DOUBLE_EQ(*count_fold, ExactOver(*batch, count_q));

  // The fold contract is SUM/COUNT only.
  EXPECT_FALSE(IngestManager::FoldSupported(AggregateFunction::kAvg));
  EXPECT_FALSE(
      IngestManager::FoldValue(*delta, MakeQuery(AggregateFunction::kAvg, 1,
                                                 100))
          .ok());

  // A second batch extends the delta; the first reader's snapshot is COW —
  // it still sees exactly 200 rows.
  auto batch2 = MakeBatch(50, testutil::TestSeed(78));
  ASSERT_TRUE(mgr.Append(*batch2).ok());
  EXPECT_EQ(commits, 2);
  EXPECT_EQ(delta->num_rows(), 200u);
  EXPECT_EQ(mgr.delta()->num_rows(), 250u);
  EXPECT_EQ(mgr.generation(), 2u);
}

TEST_F(IngestManagerTest, BackpressureRejectsWithoutTrace) {
  IngestOptions opts;
  opts.background = false;
  opts.max_delta_rows = 300;
  IngestManager mgr(engine_.get(), opts);

  ASSERT_TRUE(mgr.Append(*MakeBatch(250, 1)).ok());
  Status st = mgr.Append(*MakeBatch(100, 2));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  IngestSnapshot snap = mgr.snapshot();
  EXPECT_EQ(snap.rows_committed, 250u);
  EXPECT_EQ(snap.delta_rows, 250u);
  EXPECT_EQ(snap.committed_generation, 1u);
}

TEST_F(IngestManagerTest, AbsorbMovesDeltaIntoPublishedState) {
  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine_.get(), opts);

  const RangeQuery count_all = MakeQuery(AggregateFunction::kCount, 1, 100);
  auto before = engine_->Execute(count_all);
  ASSERT_TRUE(before.ok());

  auto batch = MakeBatch(500, testutil::TestSeed(91));
  ASSERT_TRUE(mgr.Append(*batch).ok());
  ASSERT_TRUE(mgr.AbsorbNow().ok());

  IngestSnapshot snap = mgr.snapshot();
  EXPECT_EQ(snap.delta_rows, 0u);
  EXPECT_EQ(snap.rows_absorbed, 500u);
  EXPECT_EQ(snap.absorbed_generation, 1u);
  // Append bumped the committed generation once, the publish once more.
  EXPECT_EQ(snap.committed_generation, 2u);
  EXPECT_EQ(snap.total_rows, 20500u);
  auto drained = mgr.delta();
  EXPECT_TRUE(drained == nullptr || drained->num_rows() == 0);

  // The absorbed rows now answer from published state: a full-domain COUNT
  // grew by the batch size (within estimator noise — the sample was
  // continued, not redrawn, so we allow a small relative band).
  auto after = engine_->Execute(count_all);
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after->ci.estimate, before->ci.estimate + 500.0,
              0.02 * (before->ci.estimate + 500.0));

  // An empty absorb is OK and publishes nothing new.
  ASSERT_TRUE(mgr.AbsorbNow().ok());
  EXPECT_EQ(mgr.snapshot().absorbed_generation, 1u);
}

// Asserts the engine's synopsis is engine-aligned over the current sample
// (pointer-equal rows) and answers bit-equal to the hand-wired oracle.
void ExpectAlignedAndOracleEqual(AqppEngine& engine, uint64_t seed) {
  auto syn = engine.active_synopsis();
  ASSERT_NE(syn, nullptr);
  EXPECT_TRUE(syn->engine_aligned());
  EXPECT_EQ(
      static_cast<const synopsis::ReservoirSynopsis&>(*syn).sample().rows.get(),
      engine.sample().rows.get());
  for (const RangeQuery& q :
       {MakeQuery(AggregateFunction::kSum, 10, 60),
        MakeQuery(AggregateFunction::kCount, 20, 90, 5, 40),
        MakeQuery(AggregateFunction::kAvg, 5, 95),
        MakeQuery(AggregateFunction::kVar, 30, 70, 1, 25)}) {
    ExecuteControl control;
    control.seed = seed++;
    control.record = false;
    auto got = engine.Execute(q, control);
    auto want = testutil::OracleEstimate(engine, q, *control.seed);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_TRUE(SameBits(got->ci.estimate, want->ci.estimate));
    EXPECT_TRUE(SameBits(got->ci.half_width, want->ci.half_width));
    EXPECT_EQ(got->used_pre, want->used_pre);
  }
}

TEST_F(IngestManagerTest, DefaultSynopsisFollowsEveryPublishedSample) {
  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine_.get(), opts);
  ExpectAlignedAndOracleEqual(*engine_, testutil::TestSeed(700));
  for (uint64_t cycle = 1; cycle <= 3; ++cycle) {
    // Held, so the next sample cannot reuse the address.
    std::shared_ptr<Table> before = engine_->sample().rows;
    ASSERT_TRUE(
        mgr.Append(*MakeBatch(400, testutil::TestSeed(700 + cycle))).ok());
    ASSERT_TRUE(mgr.AbsorbNow().ok());
    ASSERT_EQ(mgr.snapshot().absorbed_generation, cycle);
    EXPECT_NE(engine_->sample().rows, before)
        << "the absorb published no new sample";
    ExpectAlignedAndOracleEqual(*engine_, testutil::TestSeed(710 + cycle));
  }
}

// A reservoir that counts SerializeTo calls: the absorber must clone only
// synopses that are not engine-aligned.
class CountingReservoir : public synopsis::ReservoirSynopsis {
 public:
  explicit CountingReservoir(const synopsis::SynopsisOptions& opts)
      : ReservoirSynopsis("counting_reservoir", opts) {}
  Status SerializeTo(std::string* out) const override {
    ++serialized;
    return ReservoirSynopsis::SerializeTo(out);
  }
  static inline std::atomic<int> serialized{0};
};

TEST_F(IngestManagerTest, AbsorbSerializesOnlyNonAlignedSynopses) {
  synopsis::RegisterSynopsis(
      "counting_reservoir", [](const synopsis::SynopsisOptions& o) {
        return std::make_unique<CountingReservoir>(o);
      });
  ASSERT_TRUE(engine_->SetSynopsis("counting_reservoir").ok());
  CountingReservoir::serialized = 0;
  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine_.get(), opts);
  for (uint64_t cycle = 1; cycle <= 2; ++cycle) {
    ASSERT_TRUE(
        mgr.Append(*MakeBatch(300, testutil::TestSeed(720 + cycle))).ok());
    ASSERT_TRUE(mgr.AbsorbNow().ok());
    auto syn = engine_->active_synopsis();
    EXPECT_STREQ(syn->kind(), "counting_reservoir");
    EXPECT_TRUE(syn->engine_aligned());
  }
  EXPECT_EQ(CountingReservoir::serialized.load(), 0);

  // Degrade leaves the synopsis its own rows: from then on it is absorbed as
  // a clone, which means one serialization per cycle.
  Rng rng(testutil::TestSeed(730));
  ASSERT_TRUE(engine_->active_synopsis()->Degrade(0.5, rng).ok());
  ASSERT_FALSE(engine_->active_synopsis()->engine_aligned());
  ASSERT_TRUE(mgr.Append(*MakeBatch(300, testutil::TestSeed(731))).ok());
  ASSERT_TRUE(mgr.AbsorbNow().ok());
  EXPECT_EQ(CountingReservoir::serialized.load(), 1);
  EXPECT_STREQ(engine_->active_synopsis()->kind(), "counting_reservoir");
  EXPECT_FALSE(engine_->active_synopsis()->engine_aligned());
}

// Regression: a "stratified" synopsis on this uniform engine sample is not
// engine-aligned, so the absorber absorbs each batch into it — and it
// refuses rows of a stratum it never saw. Such a batch used to be acked and
// then fail every absorb cycle until Append answered ResourceExhausted. It
// is now refused at Append with nothing committed.
TEST_F(IngestManagerTest, BatchTheSynopsisCannotAbsorbIsRefusedAtAppend) {
  ASSERT_TRUE(engine_->SetSynopsis("stratified").ok());
  ASSERT_FALSE(engine_->active_synopsis()->engine_aligned());
  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine_.get(), opts);

  // Strata are the (c1, c2) pairs of the base table, whose c1 starts at 1.
  auto batch = MakeBatch(64, testutil::TestSeed(740));
  for (size_t r = 0; r < batch->num_rows(); ++r) {
    batch->mutable_column(0).MutableInt64Data()[r] =
        table_->column(0).GetInt64(r);
    batch->mutable_column(1).MutableInt64Data()[r] =
        table_->column(1).GetInt64(r);
  }
  batch->mutable_column(0).MutableInt64Data()[10] = 0;
  Status st = mgr.Append(*batch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("stratum"), std::string::npos);
  IngestSnapshot snap = mgr.snapshot();
  EXPECT_EQ(snap.rows_committed, 0u);
  EXPECT_EQ(snap.delta_rows, 0u);
  EXPECT_EQ(snap.committed_generation, 0u);

  // The same batch with every row in a known stratum commits and absorbs.
  batch->mutable_column(0).MutableInt64Data()[10] =
      table_->column(0).GetInt64(10);
  ASSERT_TRUE(mgr.Append(*batch).ok());
  ASSERT_TRUE(mgr.AbsorbNow().ok());
  EXPECT_EQ(mgr.snapshot().rows_absorbed, 64u);
  EXPECT_STREQ(engine_->active_synopsis()->kind(), "stratified");
}

TEST_F(IngestManagerTest, EqualSchedulesProduceEqualBits) {
  // The soak fingerprint invariant: two engines fed the identical
  // batch/absorb schedule answer every query bit-identically under a fixed
  // execution seed.
  EngineOptions eopts;
  eopts.sample_rate = 0.05;
  eopts.cube_budget = 400;
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};

  auto run_schedule = [&](std::vector<double>* answers) {
    auto created = AqppEngine::Create(table_, eopts);
    AQPP_CHECK_OK(created.status());
    std::shared_ptr<AqppEngine> engine(std::move(*created));
    AQPP_CHECK_OK(engine->Prepare(tmpl));
    auto warm = engine->Execute(MakeQuery(AggregateFunction::kCount, 1, 100));
    AQPP_CHECK_OK(warm.status());

    IngestOptions opts;
    opts.background = false;
    opts.seed = 0xfeed;
    IngestManager mgr(engine.get(), opts);
    for (uint64_t i = 0; i < 6; ++i) {
      AQPP_CHECK_OK(mgr.Append(*MakeBatch(128, 1000 + i)));
      if (i % 2 == 1) AQPP_CHECK_OK(mgr.AbsorbNow());
    }

    const std::vector<RangeQuery> battery = {
        MakeQuery(AggregateFunction::kSum, 5, 95),
        MakeQuery(AggregateFunction::kSum, 30, 70, 10, 40),
        MakeQuery(AggregateFunction::kCount, 1, 100),
        MakeQuery(AggregateFunction::kAvg, 20, 80),
    };
    for (const RangeQuery& q : battery) {
      ExecuteControl control;
      control.seed = 12345;
      control.record = false;
      auto r = engine->Execute(q, control);
      AQPP_CHECK_OK(r.status());
      double estimate = r->ci.estimate;
      // Fold the remaining delta the way the service does, so the answer
      // covers every committed row.
      if (IngestManager::FoldSupported(q.func) && mgr.delta() != nullptr) {
        auto fold = IngestManager::FoldValue(*mgr.delta(), q);
        AQPP_CHECK_OK(fold.status());
        estimate += *fold;
      }
      answers->push_back(estimate);
      answers->push_back(r->ci.half_width);
    }
  };

  std::vector<double> first, second;
  run_schedule(&first);
  run_schedule(&second);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(SameBits(first[i], second[i]))
        << "answer " << i << ": " << first[i] << " vs " << second[i];
  }
}

TEST_F(IngestManagerTest, CountAndSumSquaresPlanesMaintained) {
  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine_.get(), opts);
  auto batch = MakeBatch(1000, testutil::TestSeed(709));
  ASSERT_TRUE(mgr.Append(*batch).ok());
  ASSERT_TRUE(mgr.AbsorbNow().ok());

  // Every plane of the published cube covers base + batch over the full box.
  const PrefixCube& cube = *engine_->cube();
  PreAggregate all;
  for (const auto& dim : cube.scheme().dims()) {
    all.lo.push_back(0);
    all.hi.push_back(dim.num_cuts());
  }
  ASSERT_EQ(cube.measures().size(), 3u);
  ASSERT_TRUE(cube.measures()[1].is_count());
  ASSERT_TRUE(cube.measures()[2].squared);
  EXPECT_NEAR(cube.BoxValue(all, 1), 21000.0, 1e-9);
  double ss = 0;
  for (const auto& t : {table_, batch}) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      double a = t->column(2).GetDouble(r);
      ss += a * a;
    }
  }
  EXPECT_NEAR(cube.BoxValue(all, 2), ss, std::fabs(ss) * 1e-12);
}

// Regression: Algorithm R continues uniform samples only. A stratified
// engine used to accept the batch and then abort the process in the absorb
// cycle (the background absorber would take a daemon down the same way).
// The batch is now refused at Append, so nothing commits that could never
// be absorbed.
TEST(IngestNonUniformTest, NonUniformSampleRejectsAppendAndNeverAborts) {
  auto table = testutil::MakeSynthetic(
      {.rows = 5000, .seed = testutil::TestSeed(4250)});
  EngineOptions eopts;
  eopts.sample_rate = 0.05;
  eopts.cube_budget = 100;
  eopts.sampling = SamplingMethod::kStratified;
  eopts.stratify_columns = {1};
  auto created = AqppEngine::Create(table, eopts);
  ASSERT_TRUE(created.ok()) << created.status();
  std::shared_ptr<AqppEngine> engine(std::move(*created));
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  ASSERT_TRUE(
      engine->Execute(MakeQuery(AggregateFunction::kCount, 1, 100)).ok());
  ASSERT_EQ(engine->sample().method, SamplingMethod::kStratified);

  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine.get(), opts);
  Status st = mgr.Append(*MakeBatch(64, testutil::TestSeed(4251)));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.message().find("uniform"), std::string::npos);
  IngestSnapshot snap = mgr.snapshot();
  EXPECT_EQ(snap.rows_committed, 0u);
  EXPECT_EQ(snap.delta_rows, 0u);
  EXPECT_EQ(snap.committed_generation, 0u);
  // Nothing committed, so the absorb cycle has nothing to do — and it
  // returns instead of aborting.
  EXPECT_TRUE(mgr.AbsorbNow().ok());
  EXPECT_EQ(mgr.snapshot().absorbed_generation, 0u);
}

// Regression: a string value missing from a NON-dimension column's
// dictionary must reject the whole batch, leaving nothing behind — and the
// manager must stay usable. The cube partitions only c1, so the domain
// guard never looks at the string column.
TEST(IngestStringColumnTest, AppendRejectsUnknownCategoryWithoutPartialState) {
  Schema schema({{"c1", DataType::kInt64},
                 {"s", DataType::kString},
                 {"a", DataType::kDouble}});
  auto base = std::make_shared<Table>(schema);
  Rng gen(801);
  for (int i = 0; i < 2000; ++i) {
    base->AddRow()
        .Int64(gen.NextInt(1, 100))
        .String(i % 2 == 0 ? "x" : "y")
        .Double(gen.NextDouble());
  }
  base->FinalizeDictionaries();
  EngineOptions eopts;
  eopts.sample_rate = 0.1;
  eopts.cube_budget = 16;
  auto created = AqppEngine::Create(base, eopts);
  ASSERT_TRUE(created.ok()) << created.status();
  std::shared_ptr<AqppEngine> engine(std::move(*created));
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());
  RangeQuery count_all;
  count_all.func = AggregateFunction::kCount;
  count_all.predicate.Add({0, 1, 100});
  ASSERT_TRUE(engine->Execute(count_all).ok());

  IngestOptions opts;
  opts.background = false;
  IngestManager mgr(engine.get(), opts);
  auto make = [&](std::vector<std::pair<int64_t, const char*>> rows) {
    auto t = std::make_shared<Table>(schema);
    for (const auto& [c1, s] : rows) {
      t->AddRow().Int64(c1).String(s).Double(1.0);
    }
    t->FinalizeDictionaries();
    return t;
  };
  ASSERT_TRUE(mgr.Append(*make({{10, "x"}})).ok());
  ASSERT_EQ(mgr.snapshot().delta_rows, 1u);

  Status st = mgr.Append(*make({{20, "x"}, {30, "zzz"}}));  // unknown category
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // Nothing from the rejected batch is visible: rows, generation, and every
  // delta column stay exactly as before.
  IngestSnapshot snap = mgr.snapshot();
  EXPECT_EQ(snap.delta_rows, 1u);
  EXPECT_EQ(snap.rows_committed, 1u);
  EXPECT_EQ(snap.committed_generation, 1u);
  auto delta = mgr.delta();
  for (size_t c = 0; c < delta->num_columns(); ++c) {
    const Column& col = delta->column(c);
    EXPECT_EQ(col.type() == DataType::kDouble ? col.DoubleData().size()
                                              : col.Int64Data().size(),
              1u);
  }

  // The manager is still usable, and the accepted rows absorb cleanly.
  ASSERT_TRUE(mgr.Append(*make({{40, "y"}})).ok());
  EXPECT_EQ(mgr.snapshot().delta_rows, 2u);
  ASSERT_TRUE(mgr.AbsorbNow().ok());
  EXPECT_EQ(mgr.snapshot().total_rows, 2002u);
  const PrefixCube& cube = *engine->cube();
  PreAggregate all;
  all.lo = {0};
  all.hi = {cube.scheme().dims()[0].num_cuts()};
  EXPECT_NEAR(cube.BoxValue(all, 1), 2002.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(IngestWireTest, EncodeDecodeRoundTripsBitwise) {
  auto reference = testutil::MakeSynthetic({.rows = 100});
  auto batch = MakeBatch(37, testutil::TestSeed(555));
  // Exercise the escape path: values that would break line framing if sent
  // raw are irrelevant for numeric columns, but extreme doubles stress the
  // %.17g round-trip.
  batch->mutable_column(2).MutableDoubleData()[0] = 1.0 / 3.0;
  batch->mutable_column(2).MutableDoubleData()[1] = -0.0;
  batch->mutable_column(2).MutableDoubleData()[2] = 1e-300;
  batch->mutable_column(2).MutableDoubleData()[3] = 12345678901234.567;

  auto encoded = EncodeIngestBatch(*batch);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  // The payload must survive the one-line protocol framing.
  EXPECT_EQ(encoded->find('\n'), std::string::npos);

  auto decoded = DecodeIngestBatch(*encoded, *reference);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ((*decoded)->num_rows(), batch->num_rows());
  for (size_t r = 0; r < batch->num_rows(); ++r) {
    EXPECT_EQ((*decoded)->column(0).Int64Data()[r],
              batch->column(0).Int64Data()[r]);
    EXPECT_EQ((*decoded)->column(1).Int64Data()[r],
              batch->column(1).Int64Data()[r]);
    EXPECT_TRUE(SameBits((*decoded)->column(2).DoubleData()[r],
                         batch->column(2).DoubleData()[r]))
        << "row " << r;
  }
}

TEST(IngestWireTest, EncodeRejectsEmptyAndNonFinite) {
  auto empty = MakeBatch(0, 1);
  EXPECT_FALSE(EncodeIngestBatch(*empty).ok());

  auto inf_batch = MakeBatch(3, 2);
  inf_batch->mutable_column(2).MutableDoubleData()[1] =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(EncodeIngestBatch(*inf_batch).ok());
}

TEST(IngestWireTest, DecodeRejectsMalformedPayloads) {
  auto reference = testutil::MakeSynthetic({.rows = 100});
  auto batch = MakeBatch(3, testutil::TestSeed(556));
  auto encoded = EncodeIngestBatch(*batch);
  ASSERT_TRUE(encoded.ok());

  const std::vector<std::string> bad = {
      "",                                   // nothing
      "rows=3",                             // missing fields
      "rows=0 cols=3 data=",                // zero rows
      "rows=3 cols=2 data=1,1;2,2;3,3",     // wrong column count
      "rows=2 cols=3 data=1,1,1.0",         // fewer rows than declared
      "rows=1 cols=3 data=1,1,1.0;2,2,2.0", // more rows than declared
      "rows=1 cols=3 data=1,1,inf",         // non-finite double
      "rows=1 cols=3 data=1,1,nan",         // non-finite double
      "rows=1 cols=3 data=x,1,1.0",         // non-numeric int64
      "rows=1 cols=3 data=1,1,%zz",         // bad escape
      "rows=999999999999 cols=3 data=1,1,1",  // hostile header
  };
  for (const std::string& payload : bad) {
    auto decoded = DecodeIngestBatch(payload, *reference);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << payload;
  }

  // Strict prefixes: any cut at or before the final field separator leaves
  // the last row short a field and must be rejected. Cuts inside the final
  // numeric field can still spell a shorter valid double — the codec cannot
  // detect those, so past the last comma we only require no crash.
  const size_t last_comma = encoded->rfind(',');
  ASSERT_NE(last_comma, std::string::npos);
  for (size_t cut = 0; cut < encoded->size(); ++cut) {
    auto decoded = DecodeIngestBatch(encoded->substr(0, cut), *reference);
    if (cut <= last_comma) {
      EXPECT_FALSE(decoded.ok()) << "accepted prefix of length " << cut;
    }
  }
}

TEST(IngestWireTest, ProgressLineRoundTripsBitwise) {
  ProgressLine p;
  p.round = 3;
  p.rows_used = 512;
  p.estimate = 123456.78901234567;
  p.lo = p.estimate - 1.0 / 3.0;
  p.hi = p.estimate + 1.0 / 3.0;
  p.half_width = 1.0 / 3.0;
  p.level = 0.95;

  std::string line = FormatProgressLine(p);
  EXPECT_EQ(line.rfind("PROGRESS ", 0), 0u);
  auto back = ParseProgressLine(line);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->round, p.round);
  EXPECT_EQ(back->rows_used, p.rows_used);
  EXPECT_TRUE(SameBits(back->estimate, p.estimate));
  EXPECT_TRUE(SameBits(back->lo, p.lo));
  EXPECT_TRUE(SameBits(back->hi, p.hi));
  EXPECT_TRUE(SameBits(back->half_width, p.half_width));
  EXPECT_TRUE(SameBits(back->level, p.level));

  const std::vector<std::string> bad = {
      "",
      "OK estimate=1",
      "PROGRESS",
      "PROGRESS round=1",  // missing fields
      "PROGRESS round=1 rows_used=2 estimate=x lo=0 hi=1 half_width=1 "
      "level=0.95",
      "PROGRESS round=1 rows_used=2 estimate=inf lo=0 hi=1 half_width=1 "
      "level=0.95",
      "PROGRESS round=1 round=2 rows_used=2 estimate=1 lo=0 hi=1 "
      "half_width=1 level=0.95",
  };
  for (const std::string& l : bad) {
    EXPECT_FALSE(ParseProgressLine(l).ok()) << "accepted: " << l;
  }
}

// ---------------------------------------------------------------------------
// Service-level (in-process): delta fold, cache interplay, online rounds.
// ---------------------------------------------------------------------------

class IngestServiceTest : public IngestManagerTest {
 protected:
  void SetUp() override {
    IngestManagerTest::SetUp();
    IngestOptions iopts;
    iopts.background = false;
    ingest_ = std::make_unique<IngestManager>(engine_.get(), iopts);
    service_ = std::make_unique<QueryService>(EngineRef(engine_.get()));
    service_->AttachIngest(ingest_.get());
    auto session = service_->sessions().Open("ingest-test");
    AQPP_CHECK_OK(session.status());
    sid_ = (*session)->id();
  }

  void TearDown() override {
    service_->Stop();
    service_.reset();
    ingest_.reset();
    IngestManagerTest::TearDown();
  }

  std::unique_ptr<IngestManager> ingest_;
  std::unique_ptr<QueryService> service_;
  uint64_t sid_ = 0;
};

TEST_F(IngestServiceTest, CommittedBatchVisibleToTheVeryNextQuery) {
  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90, 1, 40);

  QueryOutcome out1 = service_->Execute(sid_, q);
  ASSERT_TRUE(out1.status.ok()) << out1.status.ToString();
  EXPECT_FALSE(out1.cache_hit);
  EXPECT_TRUE(out1.delta_folded);  // empty delta is an exact fold
  EXPECT_EQ(out1.ingest_generation, 0u);
  EXPECT_EQ(out1.delta_rows, 0u);

  // Replay from cache is bit-identical.
  QueryOutcome replay = service_->Execute(sid_, q);
  ASSERT_TRUE(replay.status.ok());
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_TRUE(SameBits(replay.ci.estimate, out1.ci.estimate));

  auto batch = MakeBatch(300, testutil::TestSeed(313));
  ASSERT_TRUE(ingest_->Append(*batch).ok());

  // The commit invalidated the cache; the next answer folds the delta.
  QueryOutcome out2 = service_->Execute(sid_, q);
  ASSERT_TRUE(out2.status.ok());
  EXPECT_FALSE(out2.cache_hit);
  EXPECT_TRUE(out2.delta_folded);
  EXPECT_EQ(out2.ingest_generation, 1u);
  EXPECT_EQ(out2.delta_rows, 300u);
  double shift = ExactOver(*batch, q);
  EXPECT_NEAR(out2.ci.estimate, out1.ci.estimate + shift,
              1e-9 * std::max(1.0, std::abs(out1.ci.estimate + shift)));
  // The fold is an exact shift: the interval width is untouched.
  EXPECT_TRUE(SameBits(out2.ci.half_width, out1.ci.half_width));

  // Cache hits fold the live delta themselves (the cache stores the base
  // answer): replaying now is bit-identical to out2, not to out1.
  QueryOutcome out2_replay = service_->Execute(sid_, q);
  ASSERT_TRUE(out2_replay.status.ok());
  EXPECT_TRUE(out2_replay.cache_hit);
  EXPECT_TRUE(SameBits(out2_replay.ci.estimate, out2.ci.estimate));
}

TEST_F(IngestServiceTest, UnfoldableAggregateAnswersFromPublishedState) {
  const RangeQuery avg_q = MakeQuery(AggregateFunction::kAvg, 10, 90);
  QueryOutcome before = service_->Execute(sid_, avg_q);
  ASSERT_TRUE(before.status.ok());

  ASSERT_TRUE(ingest_->Append(*MakeBatch(200, testutil::TestSeed(314))).ok());

  QueryOutcome after = service_->Execute(sid_, avg_q);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.delta_folded);  // AVG opts out of the fold contract
  EXPECT_EQ(after.ingest_generation, 1u);
  EXPECT_EQ(after.delta_rows, 200u);
  // Until the absorber catches up the answer is the published-state answer.
  EXPECT_TRUE(SameBits(after.ci.estimate, before.ci.estimate));

  // After an absorb the delta drains and the (re-executed) answer reflects
  // the new rows through the published state.
  ASSERT_TRUE(ingest_->AbsorbNow().ok());
  QueryOutcome absorbed = service_->Execute(sid_, avg_q);
  ASSERT_TRUE(absorbed.status.ok());
  EXPECT_FALSE(absorbed.cache_hit);  // publish invalidated the cache
  EXPECT_EQ(absorbed.delta_rows, 0u);
  EXPECT_EQ(absorbed.ingest_generation, 2u);
}

TEST_F(IngestServiceTest, OnlineRoundsAreMonotoneSeededAndShiftWithDelta) {
  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90, 1, 40);

  std::vector<ProgressiveStep> rounds1;
  ASSERT_TRUE(service_->OnlineRounds(sid_, q, &rounds1).ok());
  ASSERT_FALSE(rounds1.empty());
  for (size_t i = 1; i < rounds1.size(); ++i) {
    EXPECT_LE(rounds1[i].ci.half_width, rounds1[i - 1].ci.half_width)
        << "round " << i << " widened";
    EXPECT_GT(rounds1[i].rows_used, rounds1[i - 1].rows_used);
  }

  // Same canonical seed => same bits on a second pass.
  std::vector<ProgressiveStep> again;
  ASSERT_TRUE(service_->OnlineRounds(sid_, q, &again).ok());
  ASSERT_EQ(again.size(), rounds1.size());
  for (size_t i = 0; i < rounds1.size(); ++i) {
    EXPECT_TRUE(SameBits(again[i].ci.estimate, rounds1[i].ci.estimate));
    EXPECT_TRUE(SameBits(again[i].ci.half_width, rounds1[i].ci.half_width));
  }

  // A committed delta shifts every round by its exact fold.
  auto batch = MakeBatch(250, testutil::TestSeed(315));
  ASSERT_TRUE(ingest_->Append(*batch).ok());
  double shift = ExactOver(*batch, q);
  std::vector<ProgressiveStep> rounds2;
  ASSERT_TRUE(service_->OnlineRounds(sid_, q, &rounds2).ok());
  ASSERT_EQ(rounds2.size(), rounds1.size());
  for (size_t i = 0; i < rounds2.size(); ++i) {
    EXPECT_NEAR(rounds2[i].ci.estimate, rounds1[i].ci.estimate + shift,
                1e-9 * std::max(1.0, std::abs(shift)));
    EXPECT_TRUE(SameBits(rounds2[i].ci.half_width, rounds1[i].ci.half_width));
  }

  // Aggregates the progressive executor cannot stream degrade to one-shot:
  // OK with zero rounds.
  std::vector<ProgressiveStep> avg_rounds;
  ASSERT_TRUE(service_
                  ->OnlineRounds(sid_, MakeQuery(AggregateFunction::kAvg, 10,
                                                 90),
                                 &avg_rounds)
                  .ok());
  EXPECT_TRUE(avg_rounds.empty());
}

// ---------------------------------------------------------------------------
// Over TCP: INGEST verb, online streaming, cancellation.
// ---------------------------------------------------------------------------

class IngestTcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Registry::Global().DisableAll();
    table_ = testutil::MakeSynthetic(
        {.rows = 20000, .seed = testutil::TestSeed(4242)});
    EngineOptions eopts;
    eopts.sample_rate = 0.05;
    eopts.cube_budget = 400;
    auto created = AqppEngine::Create(table_, eopts);
    AQPP_CHECK_OK(created.status());
    engine_ = std::shared_ptr<AqppEngine>(std::move(*created));
    QueryTemplate tmpl;
    tmpl.agg_column = 2;
    tmpl.condition_columns = {0, 1};
    AQPP_CHECK_OK(engine_->Prepare(tmpl));
    AQPP_CHECK_OK(catalog_.Register("t", table_));
    service_ = std::make_unique<QueryService>(EngineRef(engine_.get()));
    IngestOptions iopts;
    iopts.background = false;  // absorbs are driven by the tests
    ingest_ = std::make_unique<IngestManager>(engine_.get(), iopts);
    service_->AttachIngest(ingest_.get());
    server_ = std::make_unique<ServiceServer>(service_.get(), &catalog_);
    AQPP_CHECK_OK(server_->Start());
  }

  void TearDown() override {
    server_->Stop();
    service_->Stop();
    fail::Registry::Global().DisableAll();
  }

  std::shared_ptr<Table> table_;
  std::shared_ptr<AqppEngine> engine_;
  Catalog catalog_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<IngestManager> ingest_;
  std::unique_ptr<ServiceServer> server_;
};

TEST_F(IngestTcpTest, IngestAckAndImmediateVisibility) {
  auto client = ServiceClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Hello("writer").ok());

  const std::string sql =
      "SELECT SUM(a) FROM t WHERE c1 BETWEEN 10 AND 90";
  auto before = client->Query(sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before->folded);
  EXPECT_EQ(before->generation, 0u);

  auto batch = MakeBatch(150, testutil::TestSeed(808));
  auto ack = client->Ingest(*batch);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->appended, 150u);
  EXPECT_EQ(ack->generation, 1u);
  EXPECT_EQ(ack->delta_rows, 150u);
  EXPECT_EQ(ack->total_rows, 20150u);

  // The committed batch is visible to the very next query — and the shift
  // equals an exact scan of the batch.
  RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90);
  double shift = ExactOver(*batch, q);
  auto after = client->Query(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->folded);
  EXPECT_EQ(after->generation, 1u);
  EXPECT_EQ(after->delta_rows, 150u);
  EXPECT_NEAR(after->estimate, before->estimate + shift,
              1e-9 * std::max(1.0, std::abs(before->estimate + shift)));

  // Malformed INGEST payloads error without poisoning the connection or
  // committing anything.
  auto bad = client->Call("INGEST rows=2 cols=3 data=1,1,1.0");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok);
  EXPECT_EQ(ingest_->snapshot().rows_committed, 150u);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(IngestTcpTest, OnlineFinalIsBitIdenticalToOneShot) {
  auto oneshot = ServiceClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(oneshot.ok());
  ASSERT_TRUE(oneshot->Hello("oneshot").ok());
  const std::string sql =
      "SELECT SUM(a) FROM t WHERE c1 BETWEEN 20 AND 80";
  auto plain = oneshot->Query(sql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  auto online = ServiceClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE(online->Hello("online").ok());
  ASSERT_TRUE(online->SetMode("online").ok());

  std::vector<ProgressLine> rounds;
  auto streamed = online->QueryOnline(sql, [&](const ProgressLine& p) {
    rounds.push_back(p);
    return true;
  });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(streamed->online);
  EXPECT_FALSE(streamed->cancelled);
  EXPECT_EQ(streamed->rounds, rounds.size());
  ASSERT_FALSE(rounds.empty());

  // The stream contract: rounds tighten monotonically, none is tighter than
  // the final, and the final OK line is bit-identical to the one-shot
  // answer (both rode the same %.17g wire).
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, i + 1);
    EXPECT_GE(rounds[i].half_width, streamed->half_width);
    if (i > 0) {
      EXPECT_LE(rounds[i].half_width, rounds[i - 1].half_width);
      EXPECT_GT(rounds[i].rows_used, rounds[i - 1].rows_used);
    }
  }
  EXPECT_TRUE(SameBits(streamed->estimate, plain->estimate));
  EXPECT_TRUE(SameBits(streamed->half_width, plain->half_width));

  // Oneshot mode degrades QueryOnline to a plain query with zero rounds.
  ASSERT_TRUE(online->SetMode("oneshot").ok());
  size_t called = 0;
  auto degraded = online->QueryOnline(sql, [&](const ProgressLine&) {
    ++called;
    return true;
  });
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(called, 0u);
  EXPECT_TRUE(SameBits(degraded->estimate, plain->estimate));
}

TEST_F(IngestTcpTest, CancelMidStreamKeepsConnectionUsable) {
  auto client = ServiceClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Hello("canceller").ok());
  ASSERT_TRUE(client->SetMode("online").ok());

  const std::string sql =
      "SELECT SUM(a) FROM t WHERE c1 BETWEEN 20 AND 80";
  size_t seen = 0;
  auto cancelled = client->QueryOnline(sql, [&](const ProgressLine&) {
    ++seen;
    return false;  // cancel after the first round
  });
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  ASSERT_GE(seen, 1u);
  EXPECT_TRUE(cancelled->online);
  EXPECT_TRUE(cancelled->cancelled);

  // The connection survives: the protocol stream is still line-aligned.
  EXPECT_TRUE(client->Ping().ok());
  auto full = client->QueryOnline(sql, [](const ProgressLine&) {
    return true;
  });
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->cancelled);
  EXPECT_TRUE(std::isfinite(full->estimate));
}

TEST_F(IngestTcpTest, KilledConnectionNeverHalfAppliesABatch) {
  // A writer that dies mid-line must leave no trace: the server only acts on
  // complete request lines, and Append is all-or-nothing below that.
  auto batch = MakeBatch(64, testutil::TestSeed(999));
  auto encoded = EncodeIngestBatch(*batch);
  ASSERT_TRUE(encoded.ok());
  std::string partial_line =
      "INGEST " + encoded->substr(0, encoded->size() / 2);  // no newline

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::send(fd, partial_line.data(), partial_line.size(), 0),
            static_cast<ssize_t>(partial_line.size()));
  ::close(fd);  // die mid-line

  // Give the server a moment to notice the disconnect, then assert nothing
  // was committed.
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(ingest_->snapshot().rows_committed, 0u);
  EXPECT_EQ(ingest_->snapshot().committed_generation, 0u);

  // A well-formed writer afterwards works normally.
  auto client = ServiceClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto ack = client->Ingest(*batch);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->generation, 1u);
  EXPECT_EQ(ack->appended, 64u);
}

// ---------------------------------------------------------------------------
// Chaos: injected faults at the ingest seams.
// ---------------------------------------------------------------------------

class IngestChaosTest : public IngestServiceTest {};

TEST_F(IngestChaosTest, InjectedAppendFaultLeavesNoTrace) {
  SKIP_WITHOUT_FAILPOINTS();
  fail::Registry::Global().Enable(
      "ingest/append", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected append fault"});
  Status st = ingest_->Append(*MakeBatch(100, 1));
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(ingest_->snapshot().rows_committed, 0u);
  EXPECT_EQ(ingest_->snapshot().committed_generation, 0u);

  fail::Registry::Global().DisableAll();
  EXPECT_TRUE(ingest_->Append(*MakeBatch(100, 1)).ok());
  EXPECT_EQ(ingest_->snapshot().rows_committed, 100u);
}

TEST_F(IngestChaosTest, InjectedFoldFaultFailsTheQueryNotTheState) {
  SKIP_WITHOUT_FAILPOINTS();
  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90);
  ASSERT_TRUE(ingest_->Append(*MakeBatch(100, 2)).ok());

  fail::Registry::Global().Enable(
      "ingest/delta_fold", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected fold fault"});
  QueryOutcome broken = service_->Execute(sid_, q);
  EXPECT_EQ(broken.status.code(), StatusCode::kIOError);

  fail::Registry::Global().DisableAll();
  QueryOutcome ok = service_->Execute(sid_, q);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_TRUE(ok.delta_folded);
}

TEST_F(IngestChaosTest, TornAbsorbLeavesPriorGenerationBitIdentical) {
  SKIP_WITHOUT_FAILPOINTS();
  const RangeQuery q = MakeQuery(AggregateFunction::kSum, 10, 90, 1, 40);
  ASSERT_TRUE(ingest_->Append(*MakeBatch(200, 3)).ok());
  QueryOutcome before = service_->Execute(sid_, q);
  ASSERT_TRUE(before.status.ok());

  // Tear the absorb at both seams in turn: while preparing candidates and at
  // the publish point. Either way nothing published changes.
  for (const char* seam : {"ingest/absorb_commit", "ingest/swap"}) {
    fail::Registry::Global().Enable(
        seam, fail::Trigger::Always(),
        {.kind = fail::ActionKind::kReturnError,
         .code = StatusCode::kIOError,
         .message = "injected absorb fault"});
    Status st = ingest_->AbsorbNow();
    EXPECT_EQ(st.code(), StatusCode::kIOError) << seam;
    fail::Registry::Global().DisableAll();

    IngestSnapshot snap = ingest_->snapshot();
    EXPECT_EQ(snap.absorbed_generation, 0u) << seam;
    EXPECT_EQ(snap.delta_rows, 200u) << seam;
    EXPECT_GE(snap.absorb_failures, 1u) << seam;

    QueryOutcome after = service_->Execute(sid_, q);
    ASSERT_TRUE(after.status.ok());
    EXPECT_TRUE(SameBits(after.ci.estimate, before.ci.estimate)) << seam;
    EXPECT_TRUE(SameBits(after.ci.half_width, before.ci.half_width)) << seam;
  }

  // With the faults cleared the same absorb succeeds.
  ASSERT_TRUE(ingest_->AbsorbNow().ok());
  IngestSnapshot snap = ingest_->snapshot();
  EXPECT_EQ(snap.absorbed_generation, 1u);
  EXPECT_EQ(snap.delta_rows, 0u);
  EXPECT_EQ(snap.rows_absorbed, 200u);
}

TEST_F(IngestChaosTest, BackgroundAbsorberRetriesPastInjectedFaults) {
  SKIP_WITHOUT_FAILPOINTS();
  // A background manager whose absorb fails transiently keeps the delta
  // readable and eventually drains it once the fault clears.
  IngestOptions opts;
  opts.background = true;
  opts.absorb_threshold_rows = 64;
  opts.absorb_interval_seconds = 0.01;
  IngestManager mgr(engine_.get(), opts);
  ASSERT_TRUE(mgr.Start().ok());

  fail::Registry::Global().Enable(
      "ingest/absorb_commit", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected absorb fault"});
  ASSERT_TRUE(mgr.Append(*MakeBatch(128, 4)).ok());
  ASSERT_TRUE(WaitFor([&] { return mgr.snapshot().absorb_failures >= 1; }));
  EXPECT_EQ(mgr.snapshot().delta_rows, 128u);
  EXPECT_EQ(mgr.snapshot().absorbed_generation, 0u);

  fail::Registry::Global().DisableAll();
  ASSERT_TRUE(WaitFor([&] { return mgr.snapshot().delta_rows == 0; }));
  EXPECT_GE(mgr.snapshot().absorbed_generation, 1u);
  EXPECT_EQ(mgr.snapshot().rows_absorbed, 128u);
  mgr.Stop();
}

// ---------------------------------------------------------------------------
// Shard tier: delta-only worker ingest, last-shard forwarding, invalidation.
// ---------------------------------------------------------------------------

QueryTemplate ShardTemplate() {
  QueryTemplate t;
  t.func = AggregateFunction::kSum;
  t.agg_column = 2;
  t.condition_columns = {0, 1};
  return t;
}

class ShardIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Registry::Global().DisableAll();
    testutil::SyntheticOptions opt;
    opt.rows = 2 * kernels::kShardRows + 345;
    opt.seed = testutil::TestSeed(7345);
    table_ = testutil::MakeSynthetic(opt);
    shard::LocalShardGroupOptions gopt;
    gopt.worker.sample_size = 512;
    gopt.worker.cube_budget = 64;
    gopt.worker.base_seed = 42;
    auto group =
        shard::LocalShardGroup::Build(table_, ShardTemplate(), 2, gopt);
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    group_ = std::move(*group);
    for (size_t i = 0; i < group_->num_shards(); ++i) {
      ASSERT_TRUE(group_->mutable_worker(i).EnableIngest().ok());
      auto server =
          std::make_unique<shard::WorkerServer>(&group_->worker(i));
      ASSERT_TRUE(server->Start().ok());
      endpoints_.push_back({{.host = "127.0.0.1", .port = server->port()}});
      servers_.push_back(std::move(server));
    }
  }

  void TearDown() override {
    for (auto& s : servers_) s->Stop();
    fail::Registry::Global().DisableAll();
  }

  static RangeQuery ShardQuery() {
    RangeQuery q;
    q.func = AggregateFunction::kSum;
    q.agg_column = 2;
    q.predicate.Add({0, 5, 95});
    q.predicate.Add({1, 1, 45});
    return q;
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<shard::LocalShardGroup> group_;
  std::vector<std::unique_ptr<shard::WorkerServer>> servers_;
  std::vector<std::vector<shard::ReplicaEndpoint>> endpoints_;
};

TEST_F(ShardIngestTest, CoordinatorForwardsToLastShardAndInvalidates) {
  shard::CoordinatorOptions copt;
  copt.mode = shard::MergeMode::kEngine;
  shard::ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());

  const RangeQuery q = ShardQuery();
  auto before = coordinator.Query(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->cache_hit);
  EXPECT_FALSE(before->merged.degraded);
  auto cached = coordinator.Query(q);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit);

  // Ingest through the coordinator: routed to the last shard, acked by its
  // single replica, generation bumped, cache invalidated.
  auto batch = MakeBatch(64, testutil::TestSeed(4711), /*dom1=*/90,
                         /*dom2=*/45);
  auto ack = coordinator.Ingest(*batch);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->appended, 64u);
  EXPECT_EQ(ack->replicas_acked, 1u);
  EXPECT_EQ(ack->generation, 1u);
  EXPECT_EQ(ack->delta_rows, 64u);
  EXPECT_EQ(coordinator.ingest_generation(), 1u);

  // Only the last worker holds the delta (delta-only mode: the absorber
  // never runs on shard workers).
  EXPECT_EQ(group_->worker(0).ingest()->snapshot().rows_committed, 0u);
  EXPECT_EQ(group_->worker(1).ingest()->snapshot().rows_committed, 64u);
  EXPECT_EQ(group_->worker(1).ingest()->snapshot().absorbed_generation, 0u);

  // The next query re-scatters (no stale cache hit) and its engine merge
  // shifts by the exact fold of the batch.
  double shift = ExactOver(*batch, q);
  auto after = coordinator.Query(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->cache_hit);
  EXPECT_NEAR(
      after->merged.ci.estimate, before->merged.ci.estimate + shift,
      1e-6 * std::max(1.0, std::abs(before->merged.ci.estimate + shift)));
  // The fold is an exact shift: the merged interval width is untouched.
  EXPECT_TRUE(SameBits(after->merged.ci.half_width,
                       before->merged.ci.half_width));

  // SHARDINFO on the last worker reports the committed generation.
  auto probe = ServiceClient::Connect("127.0.0.1", servers_[1]->port());
  ASSERT_TRUE(probe.ok());
  auto info = probe->Call("SHARDINFO");
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->ok);
  auto generation = info->GetUint("generation");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 1u);

  // Re-enabling ingest on a worker is rejected.
  EXPECT_EQ(group_->mutable_worker(0).EnableIngest().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ShardIngestTest, WorkerWithoutIngestRejectsTheVerb) {
  shard::LocalShardGroupOptions gopt;
  gopt.worker.sample_size = 256;
  gopt.worker.cube_budget = 64;
  gopt.worker.base_seed = 43;
  auto small_table = testutil::MakeSynthetic(
      {.rows = 4000, .seed = testutil::TestSeed(7346)});
  auto group =
      shard::LocalShardGroup::Build(small_table, ShardTemplate(), 1, gopt);
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  shard::WorkerServer server(&(*group)->worker(0));
  ASSERT_TRUE(server.Start().ok());

  auto client = ServiceClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client->Call("INGEST rows=1 cols=3 data=1,1,1.0");
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(reply->Find("code").value_or(""), "FailedPrecondition");
  server.Stop();
}

TEST_F(ShardIngestTest, InjectedWorkerAppendFaultFailsTheForwardCleanly) {
  SKIP_WITHOUT_FAILPOINTS();
  shard::CoordinatorOptions copt;
  copt.mode = shard::MergeMode::kEngine;
  shard::ShardCoordinator coordinator(endpoints_, copt);
  ASSERT_TRUE(coordinator.Connect().ok());

  fail::Registry::Global().Enable(
      "ingest/append", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected worker append fault"});
  auto batch = MakeBatch(32, testutil::TestSeed(4712), 90, 45);
  auto ack = coordinator.Ingest(*batch);
  EXPECT_FALSE(ack.ok());
  fail::Registry::Global().DisableAll();

  // Nothing was applied anywhere and the generation never moved.
  for (size_t i = 0; i < group_->num_shards(); ++i) {
    EXPECT_EQ(group_->worker(i).ingest()->snapshot().rows_committed, 0u);
  }
  EXPECT_EQ(coordinator.ingest_generation(), 0u);

  // The path heals once the fault clears.
  auto healed = coordinator.Ingest(*batch);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->generation, 1u);
}

}  // namespace
}  // namespace aqpp
