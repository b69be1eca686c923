// Unit battery for the observability layer (src/obs): histogram bucket
// semantics, lock-free recording under thread hammering, span nesting and
// ordering, Prometheus exposition format, the runtime/compile-time kill
// switches, the slow-query log, and — the load-bearing guarantee — that the
// recording paths perform zero heap allocations.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <filesystem>

#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/service.h"
#include "storage/extent_file.h"
#include "storage/table.h"
#include "admission_jobs.h"
#include "test_util.h"

// ---- Instrumented allocator ------------------------------------------------
//
// Counts operator-new calls made by THIS thread while a guard scope is
// active. Thread-local so concurrent gtest/runtime allocations on other
// threads can never trip the zero-allocation assertions.

namespace {
thread_local bool tl_count_allocs = false;
thread_local uint64_t tl_alloc_count = 0;
}  // namespace

// GCC pairs new-expressions with the standard allocator and flags the
// free() below as mismatched; with both operators replaced they are
// consistent at runtime.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (tl_count_allocs) ++tl_alloc_count;
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace aqpp {
namespace {

// RAII scope that counts this thread's heap allocations.
class AllocationGuard {
 public:
  AllocationGuard() {
    tl_alloc_count = 0;
    tl_count_allocs = true;
  }
  ~AllocationGuard() { tl_count_allocs = false; }
  uint64_t count() const { return tl_alloc_count; }
};

// Restores the runtime kill switch on scope exit so tests compose in any
// order.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool enabled) : was_(obs::Enabled()) {
    obs::SetEnabled(enabled);
  }
  ~EnabledGuard() { obs::SetEnabled(was_); }

 private:
  bool was_;
};

// ---- Histogram bucket semantics --------------------------------------------

TEST(HistogramTest, BucketBoundariesFollowLeSemantics) {
  obs::Histogram h({1.0, 2.5, 5.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + implicit +Inf

  h.ObserveAlways(0.5);   // <= 1.0
  h.ObserveAlways(1.0);   // exact boundary: le semantics -> bucket of 1.0
  h.ObserveAlways(2.0);   // <= 2.5
  h.ObserveAlways(2.5);   // exact boundary again
  h.ObserveAlways(5.0);   // exact top bound
  h.ObserveAlways(7.25);  // past every bound -> +Inf

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 2.0 + 2.5 + 5.0 + 7.25);
}

TEST(HistogramTest, ZeroAndNegativeObservationsLandInFirstBucket) {
  obs::Histogram h({1.0, 2.0});
  h.ObserveAlways(0.0);
  h.ObserveAlways(-3.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(HistogramTest, DefaultLatencyBoundsAreSortedAndSpanMicrosToSeconds) {
  std::vector<double> bounds = obs::Histogram::DefaultLatencyBounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_DOUBLE_EQ(bounds.back(), 10.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "bounds must be strictly ascending";
  }
}

TEST(HistogramTest, ResetZeroesEverythingButKeepsBounds) {
  obs::Histogram h({1.0});
  h.ObserveAlways(0.5);
  h.ObserveAlways(2.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  ASSERT_EQ(h.bounds().size(), 1u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
}

// ---- Concurrency: relaxed atomics must not lose updates --------------------

TEST(ConcurrencyTest, CounterMonotonicUnderEightThreadHammering) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  EnabledGuard on(true);
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ConcurrencyTest, HistogramLosesNoObservationsAcrossThreads) {
  obs::Histogram h({0.25, 0.75});
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // 0.5 is exactly representable, so the CAS-looped double sum is exact
    // regardless of accumulation order.
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.ObserveAlways(0.5);
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(h.count(), total);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 * static_cast<double>(total));
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < h.num_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, total);
  EXPECT_EQ(h.bucket_count(1), total);  // all observations in (0.25, 0.75]
}

// ---- Kill switches ---------------------------------------------------------

TEST(KillSwitchTest, RuntimeDisableGatesEveryRecordingCall) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram hist({1.0});
  {
    EnabledGuard off(false);
    EXPECT_FALSE(obs::Enabled());
    counter.Increment();
    gauge.Set(7);
    hist.Observe(0.5);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_EQ(hist.count(), 0u);
    // ObserveAlways bypasses the gate by contract.
    hist.ObserveAlways(0.5);
    EXPECT_EQ(hist.count(), 1u);
  }
  EnabledGuard on(true);
  counter.Increment();
  gauge.Set(7);
  hist.Observe(0.5);
  EXPECT_EQ(counter.value(), 1u);
  EXPECT_EQ(gauge.value(), 7);
  EXPECT_EQ(hist.count(), 2u);
}

TEST(KillSwitchTest, CompiledOutModeFoldsEnabledToFalse) {
  if (obs::kCompiledIn) {
    GTEST_SKIP() << "only meaningful under -DAQPP_DISABLE_OBS=ON";
  }
  obs::SetEnabled(true);
  EXPECT_FALSE(obs::Enabled());
  obs::Counter counter;
  counter.Increment();
  EXPECT_EQ(counter.value(), 0u);
}

// ---- Registry --------------------------------------------------------------

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  obs::Registry reg;
  obs::Counter* a = reg.GetCounter("reg_test_total", "kind=\"a\"");
  obs::Counter* b = reg.GetCounter("reg_test_total", "kind=\"b\"");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.GetCounter("reg_test_total", "kind=\"a\""));
  obs::Histogram* h = reg.GetHistogram("reg_test_seconds", "", {1.0, 2.0});
  EXPECT_EQ(h, reg.GetHistogram("reg_test_seconds", "", {9.0}))
      << "bounds are fixed by the first registration";
  ASSERT_EQ(h->bounds().size(), 2u);
}

TEST(RegistryTest, HistogramWithNoBoundsGetsDefaultLatencyBounds) {
  obs::Registry reg;
  obs::Histogram* h = reg.GetHistogram("reg_default_seconds");
  EXPECT_EQ(h->bounds(), obs::Histogram::DefaultLatencyBounds());
}

TEST(RegistryTest, PrometheusExpositionIsCumulativeAndWellFormed) {
  obs::Registry reg;
  obs::Counter* c =
      reg.GetCounter("expo_events_total", "", "Number of events.");
  obs::Gauge* g = reg.GetGauge("expo_depth", "", "Current depth.");
  // Bounds and observations chosen exactly representable in binary64, so the
  // %.17g exposition renders them with no trailing digits.
  obs::Histogram* h =
      reg.GetHistogram("expo_seconds", "phase=\"x\"", {0.25, 1.0}, "Latency.");
  if (obs::kCompiledIn) {
    EnabledGuard on(true);
    c->Increment(3);
    g->Set(-2);
  }
  h->ObserveAlways(0.25);  // exact boundary: cumulative le semantics
  h->ObserveAlways(0.5);
  h->ObserveAlways(2.0);

  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# HELP expo_events_total Number of events.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE expo_events_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE expo_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE expo_seconds histogram\n"), std::string::npos);
  if (obs::kCompiledIn) {
    EXPECT_NE(text.find("expo_events_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("expo_depth -2\n"), std::string::npos);
  }
  // _bucket counts are cumulative in `le` order and end at +Inf == _count.
  EXPECT_NE(text.find("expo_seconds_bucket{phase=\"x\",le=\"0.25\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("expo_seconds_bucket{phase=\"x\",le=\"1\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("expo_seconds_bucket{phase=\"x\",le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("expo_seconds_count{phase=\"x\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("expo_seconds_sum{phase=\"x\"} 2.75\n"),
            std::string::npos)
      << text;
}

TEST(RegistryTest, ResetAllForTestZeroesButKeepsRegistrations) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  EnabledGuard on(true);
  obs::Registry reg;
  obs::Counter* c = reg.GetCounter("reset_total");
  c->Increment(5);
  reg.ResetAllForTest();
  EXPECT_EQ(c->value(), 0u);          // cached pointer still valid
  EXPECT_EQ(reg.GetCounter("reset_total"), c);
}

// ---- Phase names and trace spans -------------------------------------------

TEST(TraceTest, PhaseNamesAreStableAndDistinct) {
  std::set<std::string> names;
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    names.insert(obs::PhaseName(static_cast<obs::Phase>(i)));
  }
  EXPECT_EQ(names.size(), obs::kNumPhases);
  EXPECT_EQ(std::string(obs::PhaseName(obs::Phase::kCubeProbe)), "cube_probe");
  EXPECT_EQ(std::string(obs::PhaseName(obs::Phase::kCiConstruction)),
            "ci_construction");
  EXPECT_EQ(std::string(obs::PhaseName(obs::Phase::kTotal)), "total");
}

TEST(TraceTest, SpansNestAndCloseInCompletionOrder) {
  obs::QueryTrace trace;
  {
    obs::SpanTimer total(obs::Phase::kTotal, &trace);
    {
      obs::SpanTimer ident(obs::Phase::kIdentification, &trace);
    }
    {
      obs::SpanTimer scoring(obs::Phase::kScoring, &trace);
    }
  }
  const std::vector<obs::Span>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans append on CLOSE: children precede the enclosing span.
  EXPECT_EQ(spans[0].phase, obs::Phase::kIdentification);
  EXPECT_EQ(spans[1].phase, obs::Phase::kScoring);
  EXPECT_EQ(spans[2].phase, obs::Phase::kTotal);
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].depth, 0);
  // Children are disjoint subintervals of the enclosing span.
  EXPECT_GE(spans[2].duration_seconds,
            spans[0].duration_seconds + spans[1].duration_seconds - 1e-9);
  EXPECT_LE(spans[2].start_seconds, spans[0].start_seconds);
  EXPECT_EQ(trace.PhaseCount(obs::Phase::kTotal), 1u);
  EXPECT_EQ(trace.PhaseCount(obs::Phase::kIdentification), 1u);
  EXPECT_EQ(trace.PhaseCount(obs::Phase::kScoring), 1u);
  EXPECT_EQ(trace.PhaseCount(obs::Phase::kQueue), 0u);

  std::string rendered = trace.ToString();
  EXPECT_LT(rendered.find("identification"), rendered.find("total"));
}

TEST(TraceTest, SpanTimerStopIsIdempotent) {
  obs::QueryTrace trace;
  obs::SpanTimer span(obs::Phase::kParse, &trace);
  double first = span.Stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.Stop(), 0.0);
  EXPECT_EQ(trace.spans().size(), 1u);
}

TEST(TraceTest, RecordAppendsExternallyMeasuredSpanAndClearEmpties) {
  obs::QueryTrace trace;
  trace.Record(obs::Phase::kQueue, 0.25);
  EXPECT_DOUBLE_EQ(trace.PhaseSeconds(obs::Phase::kQueue), 0.25);
  EXPECT_EQ(trace.PhaseCount(obs::Phase::kQueue), 1u);
  trace.Clear();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.PhaseCount(obs::Phase::kQueue), 0u);
}

TEST(TraceTest, RecordPhaseObservesGlobalHistogramWithoutTrace) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  EnabledGuard on(true);
  obs::Histogram* h = obs::PhaseHistogram(obs::Phase::kQueue);
  uint64_t before = h->count();
  obs::RecordPhase(/*trace=*/nullptr, obs::Phase::kQueue, 0.001);
  EXPECT_EQ(h->count(), before + 1);
}

TEST(TraceTest, SpanTimerFeedsGlobalPerPhaseHistogram) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  EnabledGuard on(true);
  obs::Histogram* h = obs::PhaseHistogram(obs::Phase::kCubeProbe);
  uint64_t before = h->count();
  {
    obs::SpanTimer span(obs::Phase::kCubeProbe);  // no trace attached
  }
  EXPECT_EQ(h->count(), before + 1);
}

// ---- Zero-allocation guarantees --------------------------------------------

TEST(AllocationTest, DisabledRecordingPathPerformsNoHeapAllocation) {
  // Warm every lazily-initialized structure first (registry entries, the
  // cached phase-histogram table) so the guarded region measures steady
  // state.
  obs::Counter* counter = obs::Registry::Global().GetCounter("alloc_total");
  obs::Gauge* gauge = obs::Registry::Global().GetGauge("alloc_depth");
  obs::Histogram* hist = obs::PhaseHistogram(obs::Phase::kTotal);
  EnabledGuard off(false);

  uint64_t allocs;
  {
    AllocationGuard guard;
    for (int i = 0; i < 1000; ++i) {
      counter->Increment();
      gauge->Set(i);
      hist->Observe(0.001);
      obs::SpanTimer span(obs::Phase::kTotal);
      span.Stop();
    }
    allocs = guard.count();
  }
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocationTest, EnabledRecordingIntoPreReservedTraceIsAllocFree) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::Counter* counter = obs::Registry::Global().GetCounter("alloc_total");
  obs::Histogram* hist = obs::PhaseHistogram(obs::Phase::kTotal);
  EnabledGuard on(true);
  // The trace pre-reserves span storage at construction; recording a typical
  // query's worth of spans afterwards must not touch the heap.
  obs::QueryTrace trace;

  uint64_t allocs;
  {
    AllocationGuard guard;
    for (int i = 0; i < 10; ++i) {  // well under the reserved span count
      counter->Increment();
      hist->Observe(0.001);
      obs::SpanTimer span(obs::Phase::kSampleEstimation, &trace);
      span.Stop();
    }
    trace.Record(obs::Phase::kQueue, 0.002);
    allocs = guard.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(trace.spans().size(), 11u);
}

// ---- Slow-query log --------------------------------------------------------

TEST(SlowQueryLogTest, ThresholdCapacityAndRendering) {
  obs::SlowQueryLog log(/*threshold_seconds=*/0.5, /*capacity=*/2);
  obs::QueryTrace trace;
  trace.Record(obs::Phase::kIdentification, 0.3);
  trace.Record(obs::Phase::kSampleEstimation, 0.4);

  EXPECT_FALSE(log.MaybeRecord("1", "fast query", 0.1, trace));
  EXPECT_EQ(log.total_recorded(), 0u);

  EXPECT_TRUE(log.MaybeRecord("1", "slow a", 0.7, trace));
  EXPECT_TRUE(log.MaybeRecord("2", "slow b", 0.5, trace));  // >= threshold
  EXPECT_TRUE(log.MaybeRecord("3", "slow c", 0.9, trace));
  EXPECT_EQ(log.total_recorded(), 3u);

  std::vector<obs::SlowQueryEntry> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u) << "capacity bounds the retained entries";
  EXPECT_EQ(snap[0].sql, "slow b");  // oldest retained
  EXPECT_EQ(snap[1].sql, "slow c");
  EXPECT_LT(snap[0].sequence, snap[1].sequence);
  ASSERT_EQ(snap[1].phase_seconds.size(), obs::kNumPhases);
  EXPECT_DOUBLE_EQ(
      snap[1].phase_seconds[static_cast<size_t>(obs::Phase::kIdentification)],
      0.3);

  std::string rendered = log.Render();
  EXPECT_LT(rendered.find("slow c"), rendered.find("slow b"))
      << "rendering is newest first";
  EXPECT_NE(rendered.find("identification="), std::string::npos);

  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.total_recorded(), 3u) << "Clear drops entries, not the tally";
}


// ---------------------------------------------------------------------------
// Extent-cache hit-rate gauge: defined before the first read.
// ---------------------------------------------------------------------------

// The gauge divides hits by (hits + misses). Before any Pin() both are zero;
// a naive ratio would divide by zero the moment a scrape-triggered publish
// ran ahead of the first read. The contract pinned here: opening a reader
// publishes the gauge as exactly 0, the first miss keeps it at 0, and the
// ratio only moves once hits arrive.
TEST(ExtentCacheGaugeTest, HitRateIsZeroBeforeFirstReadAndTracksRatio) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "aqpp_obs_gauge_test";
  fs::create_directories(dir);
  std::string path = (dir / "t.ext").string();

  Schema schema({{"k", DataType::kInt64}});
  Table table(schema);
  for (int i = 0; i < 100; ++i) table.AddRow().Int64(i);
  ASSERT_TRUE(WriteExtentFile(table, path).ok());

  obs::Gauge* gauge = obs::Registry::Global().GetGauge(
      "aqpp_extent_cache_hit_rate_percent", "",
      "Decoded-extent cache hit rate since process start (percent)");
  gauge->Set(77);  // poison: Open() must overwrite this with a defined 0

  auto reader = ExtentFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(gauge->value(), 0) << "fresh reader must publish 0, not a stale "
                                  "value or a division by zero";

  ASSERT_TRUE((*reader)->Pin(0, 0).ok());
  EXPECT_EQ(gauge->value(), 0) << "one miss, zero hits -> 0%";
  ASSERT_TRUE((*reader)->Pin(0, 0).ok());
  EXPECT_EQ(gauge->value(), 50) << "one hit, one miss -> 50%";

  fs::remove_all(dir);
}

// ---- Batch / single-flight series names ------------------------------------
//
// The service's batch path, the admission batch former, and the service's
// single-flight dedup all publish under these names (from several
// translation units via get-or-create). Dashboards key on them; exercise the
// real registration paths and pin the exposition.

TEST(BatchMetricsTest, BatchAndSingleFlightSeriesNamesArePinned) {
  auto table = testutil::MakeSynthetic({.rows = 4096});

  // Constructing a service registers the batch counter/size series before
  // any batch forms.
  auto engine = AqppEngine::Create(table, {});
  ASSERT_TRUE(engine.ok());
  QueryService service(engine->get(), {});
  {
    std::string text = obs::Registry::Global().RenderPrometheus();
    EXPECT_NE(text.find("# TYPE aqpp_batch_queries_fused_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE aqpp_batch_size histogram\n"),
              std::string::npos);
  }

  // A lone admission job walks the window-wait path.
  AdmissionOptions aopts;
  aopts.num_workers = 1;
  aopts.batch_window_seconds = 0.0001;
  AdmissionController ctrl(aopts, testutil::RunClosures);
  std::promise<void> ran;
  ASSERT_TRUE(
      ctrl.Submit(1, testutil::ClosureJob([&ran] { ran.set_value(); })).ok());
  ran.get_future().wait();
  ctrl.Stop();

  // One service execution registers the single-flight attach counter.
  RangeQuery q;
  q.func = AggregateFunction::kCount;
  q.predicate.Add({0, 1, 50});
  auto session = service.sessions().Open("");
  ASSERT_TRUE(session.ok());
  QueryOutcome out = service.Execute((*session)->id(), q);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();

  std::string text = obs::Registry::Global().RenderPrometheus();
  EXPECT_NE(text.find("# TYPE aqpp_batch_queries_fused_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aqpp_batch_size histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aqpp_batch_window_wait_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aqpp_single_flight_attached_total counter\n"),
            std::string::npos);
}

// ---- Bootstrap support size ------------------------------------------------
//
// Bootstrap CI cost scales with the support k (rows in the query box or the
// pre box but not both), so every bootstrap CI records k. Pin the series
// name and its bucket layout, and check that AVG and VAR both feed it.

TEST(BootstrapMetricsTest, SupportRowsHistogramIsPinned) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  EnabledGuard on(true);
  auto table = testutil::MakeSynthetic({.rows = 20000});
  EngineOptions opts;
  opts.sample_rate = 0.05;
  opts.cube_budget = 64;
  auto engine = AqppEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kAvg;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  ASSERT_TRUE((*engine)->Prepare(tmpl).ok());
  RangeQuery q;
  q.agg_column = 2;
  q.predicate.Add({0, 13, 67});
  // The first bootstrap registers the series with its fixed buckets.
  q.func = AggregateFunction::kVar;
  ASSERT_TRUE((*engine)->Execute(q).ok());
  obs::Histogram* h =
      obs::Registry::Global().GetHistogram("aqpp_bootstrap_support_rows");
  for (AggregateFunction func :
       {AggregateFunction::kAvg, AggregateFunction::kVar}) {
    const uint64_t before = h->count();
    q.func = func;
    auto r = (*engine)->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GE(h->count(), before + 1) << static_cast<int>(func);
  }
  // The support never exceeds the sample, so nothing lands past 2^20 rows.
  EXPECT_EQ(h->bucket_count(h->num_buckets() - 1), 0u);

  std::string text = obs::Registry::Global().RenderPrometheus();
  EXPECT_NE(text.find("# TYPE aqpp_bootstrap_support_rows histogram\n"),
            std::string::npos);
  for (const char* le : {"0", "16", "64", "256", "1024", "4096", "16384",
                         "65536", "262144", "1048576", "+Inf"}) {
    EXPECT_NE(text.find("aqpp_bootstrap_support_rows_bucket{le=\"" +
                        std::string(le) + "\"}"),
              std::string::npos)
        << le;
  }
}

}  // namespace
}  // namespace aqpp
