// Observability-overhead microbenchmarks (google-benchmark): the cost of
// each recording primitive (counter, histogram, span) in its three states —
// runtime-enabled, runtime-disabled, and (when built with
// -DAQPP_DISABLE_OBS=ON) compiled out — plus the end-to-end engine Execute
// comparison the docs/observability.md overhead table is sourced from, and
// the deadline fallback's first online round beside it.
//
// The contract under test: a disabled recording call is a relaxed load plus
// a branch (sub-nanosecond), an enabled counter/histogram recording is a
// handful of relaxed RMWs (a few ns), and neither moves the engine's
// end-to-end query latency by a measurable amount.

#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/tpcd_skew.h"

namespace aqpp {
namespace {

std::shared_ptr<Table> ObsTable() {
  static std::shared_ptr<Table> table =
      std::move(GenerateTpcdSkew({.rows = 200'000, .seed = 7})).value();
  return table;
}

AqppEngine& ObsEngine() {
  static AqppEngine* engine = [] {
    EngineOptions opts;
    opts.sample_rate = 0.02;
    opts.cube_budget = 4096;
    opts.seed = 17;
    auto created = std::move(AqppEngine::Create(ObsTable(), opts)).value();
    QueryTemplate tmpl;
    tmpl.func = AggregateFunction::kSum;
    tmpl.agg_column = 10;
    tmpl.condition_columns = {7, 8};
    AQPP_CHECK_OK(created->Prepare(tmpl));
    return created.release();
  }();
  return *engine;
}

RangeQuery ObsQuery() {
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 10;
  q.predicate.Add({7, 400, 1200});
  q.predicate.Add({8, 300, 1100});
  return q;
}

void BM_CounterIncrement(benchmark::State& state) {
  obs::SetEnabled(state.range(0) != 0);
  obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.value());
  obs::SetEnabled(true);
}
BENCHMARK(BM_CounterIncrement)->Arg(1)->Arg(0);

void BM_HistogramObserve(benchmark::State& state) {
  obs::SetEnabled(state.range(0) != 0);
  obs::Histogram hist(obs::Histogram::DefaultLatencyBounds());
  double v = 1e-4;
  for (auto _ : state) {
    hist.Observe(v);
  }
  benchmark::DoNotOptimize(hist.count());
  obs::SetEnabled(true);
}
BENCHMARK(BM_HistogramObserve)->Arg(1)->Arg(0);

void BM_SpanTimerNoTrace(benchmark::State& state) {
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    obs::SpanTimer span(obs::Phase::kCubeProbe);
    benchmark::DoNotOptimize(span);
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_SpanTimerNoTrace)->Arg(1)->Arg(0);

void BM_SpanTimerWithTrace(benchmark::State& state) {
  obs::SetEnabled(true);
  obs::QueryTrace trace;
  for (auto _ : state) {
    if (trace.spans().size() > 16) trace.Clear();
    obs::SpanTimer span(obs::Phase::kCubeProbe, &trace);
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_SpanTimerWithTrace);

// End-to-end: one fully-traced engine execution vs the same execution with
// recording disabled at runtime. The delta between the two Args is the
// realistic per-query observability cost.
void BM_EngineExecuteObs(benchmark::State& state) {
  obs::SetEnabled(state.range(0) != 0);
  AqppEngine& engine = ObsEngine();
  RangeQuery q = ObsQuery();
  obs::QueryTrace trace;
  uint64_t seed = 1;
  for (auto _ : state) {
    trace.Clear();
    ExecuteControl control;
    control.seed = seed++;
    control.record = false;
    control.trace = obs::Enabled() ? &trace : nullptr;
    auto r = engine.Execute(q, control);
    benchmark::DoNotOptimize(r);
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_EngineExecuteObs)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMicrosecond);

// The deadline fallback's cost: ExecuteOnline under an already-stopped token
// (the service's state when a deadline fires) yields only the first round,
// so this is identification plus a 1/64 prefix. Compare its p50 against
// BM_EngineExecuteObs/0 (same engine, query and seeds; tracing off here).
void BM_OnlineFirstRound(benchmark::State& state) {
  AqppEngine& engine = ObsEngine();
  RangeQuery q = ObsQuery();
  CancellationToken stopped;
  stopped.Cancel();
  uint64_t seed = 1;
  for (auto _ : state) {
    ExecuteControl control;
    control.cancel = &stopped;
    control.seed = seed++;
    control.record = false;
    auto r = engine.ExecuteOnline(q, control);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OnlineFirstRound)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aqpp

BENCHMARK_MAIN();
