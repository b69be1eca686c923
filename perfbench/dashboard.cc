// dashboard: the paper's interactive path over the full TCP stack.
//
// One d = 2 template over l_extendedprice with conditions on (l_shipdate,
// l_discount), a 25k-row uniform sample and the default cube budget, served
// by ServiceServer + QueryService with default options. Two closed-loop
// connections (matching the two default admission workers, so nothing
// queues) send distinct SQL queries, equal parts SUM/COUNT/AVG/VAR.
// No storage, ingest or shard code runs.

#include <cstdio>
#include <memory>

#include "common.h"
#include "core/identification.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/service.h"
#include "sql/binder.h"
#include "synopsis/synopsis.h"
#include "tcp_load.h"

namespace aqpp {
namespace perfbench {
namespace {

// Answers checked against in-process execution after the window.
constexpr size_t kBitChecks = 120;
// Queries replayed by the traced run.
constexpr size_t kTraceQueries = 160;

// Bit-identity of TCP answers against in-process QueryService::Execute of
// the same canonical query, on a cold cache.
void CheckAgainstInProcess(QueryService& service,
                           const std::vector<RangeQuery>& queries,
                           const TcpLoadResult& load, size_t limit,
                           Report* report) {
  service.InvalidateCache();
  auto session = Must(service.sessions().Open("perfbench-check"), "session");
  size_t checked = 0;
  for (size_t i = 0; i < load.sent && checked < limit; ++i) {
    const TcpAnswer& a = load.answers[i];
    if (!a.ok) continue;
    QueryOutcome out = service.Execute(session->id(), queries[i]);
    ++checked;
    if (!out.status.ok() || !SameBits(out.ci.estimate, a.estimate) ||
        !SameBits(out.ci.half_width, a.half_width)) {
      report->Fail("dashboard: TCP answer " + std::to_string(i) +
                   " differs from in-process QueryService::Execute");
      return;
    }
  }
  if (checked == 0) report->Fail("dashboard: no TCP answer to check");
}

void TraceDashboard(const Args& args, const std::shared_ptr<Table>& table,
                    const Catalog& catalog, AqppEngine& engine,
                    QueryService& service, int port, Report* report) {
  const std::vector<RangeQuery> queries =
      MakeQueries(*table, DashboardTemplate(), args.seed + 1, kTraceQueries);
  std::vector<std::string> sql;
  for (const RangeQuery& q : queries) sql.push_back(ToSql(q, *table));
  const std::vector<double> truth = GroundTruth(*table, queries);

  // Wire cost: client round trip minus the server's queue + exec time.
  const auto start = Clock::now();
  TcpLoadResult load =
      RunTcpReaders(port, sql, queries, 2, start, After(start, 3600));
  std::vector<double> wire_us;
  for (size_t i = 0; i < load.sent; ++i) {
    const TcpAnswer& a = load.answers[i];
    if (a.ok) wire_us.push_back(1e3 * (a.rtt_ms - a.queue_ms - a.exec_ms));
  }
  report->Add("service.wire_us", Median(wire_us), "us");
  const ServiceStats stats = service.stats();
  const double batches = static_cast<double>(stats.admission.batches_formed);
  report->Add("service.batches_formed", batches, "count");
  report->Add("service.batch_members_per_batch",
              batches == 0 ? 0.0
                           : static_cast<double>(
                                 stats.admission.batch_members) / batches,
              "count");
  const double probes =
      static_cast<double>(stats.cache.hits + stats.cache.misses);
  report->Add("service.cache_probes", probes, "count");
  report->Add("service.cache_hit_ratio",
              probes == 0 ? 0.0 : static_cast<double>(stats.cache.hits) / probes,
              "ratio");

  // In-process replay with a span around every layer call.
  Rng ident_rng(args.seed);
  AggregateIdentifier identifier(engine.cube(), &engine.sample(),
                                 engine.options().identification, ident_rng);
  synopsis::SynopsisOptions sopt;
  sopt.confidence_level = engine.options().confidence_level;
  sopt.bootstrap_resamples = engine.options().bootstrap_resamples;
  auto reservoir = Must(synopsis::CreateSynopsis("reservoir", sopt),
                        "creating the reservoir synopsis");
  Must(reservoir->BuildFromSample(engine.sample()), "BuildFromSample");
  QueryCanonicalizer canonicalizer(table.get());
  auto session = Must(service.sessions().Open("perfbench-trace"), "session");

  Tracer tracer(true);
  std::vector<double> queue_us, overhead_us;
  double candidates = 0, used_pre = 0;
  Accuracy accuracy;
  auto replay = [&](Tracer* t, size_t i) {
    // Both passes over a query must miss the result cache.
    service.InvalidateCache();
    const bool sc = IsSumCount(queries[i].func);
    ScopedSpan root(t, i, "query");
    {
      ScopedSpan s(t, i, "sql.parse_bind", root.id());
      Must(ParseAndBind(sql[i], catalog), "ParseAndBind");
    }
    uint32_t span = t->Begin(i, "service.canonicalize", root.id());
    const CanonicalQuery canon = canonicalizer.Canonicalize(queries[i]);
    t->End(span);

    auto t0 = Clock::now();
    span = t->Begin(i, "service.execute", root.id());
    QueryOutcome out = service.Execute(session->id(), queries[i]);
    t->End(span);
    const double service_s = SecondsSince(t0);
    if (!out.status.ok()) Fatal("in-process Execute", out.status);

    ExecuteControl control;
    control.seed = canon.seed;
    control.record = false;
    t0 = Clock::now();
    span = t->Begin(i, sc ? "core.execute_sumcount" : "core.execute_avgvar",
                    root.id());
    ApproximateResult res =
        Must(engine.Execute(canon.query, control), "engine Execute");
    t->End(span);
    const double engine_s = SecondsSince(t0);

    Rng rng(canon.seed);
    span = t->Begin(i, "core.identify", root.id());
    IdentifiedAggregate ident =
        Must(identifier.Identify(canon.query, rng), "Identify");
    t->End(span);
    span = t->Begin(i, "kernels.sample_mask", root.id());
    std::vector<uint8_t> q_mask = Must(
        canon.query.predicate.EvaluateMask(*engine.sample().rows), "mask");
    t->End(span);
    const char* est =
        sc ? "synopsis.estimate_sumcount" : "synopsis.estimate_avgvar";
    if (!ident.pre.IsEmpty()) {
      span = t->Begin(i, "core.pre_mask", root.id());
      std::vector<uint8_t> pre_mask = identifier.PreMaskOnSample(ident.pre);
      t->End(span);
      span = t->Begin(i, "cube.box_value", root.id());
      volatile double box = engine.cube()->BoxValue(ident.pre, 0);
      (void)box;
      t->End(span);
      span = t->Begin(i, est, root.id());
      Must(reservoir->EstimateWithPreMasked(canon.query, q_mask, pre_mask,
                                            ident.values, control, rng),
           "EstimateWithPreMasked");
      t->End(span);
    } else {
      span = t->Begin(i, est, root.id());
      Must(reservoir->Estimate(canon.query, control, rng), "Estimate");
      t->End(span);
    }
    if (!t->enabled()) return;
    queue_us.push_back(1e6 * out.queue_seconds);
    overhead_us.push_back(1e6 * (service_s - engine_s));
    candidates += static_cast<double>(ident.num_candidates);
    used_pre += res.used_pre ? 1 : 0;
    accuracy.Score(out.ci.estimate, out.ci.half_width, truth[i]);
  };
  TimeTracingOverhead(report, &tracer, "trace.dashboard_overhead_us",
                      queries.size(), replay);

  const double n = static_cast<double>(queries.size());
  report->Add("sql.parse_bind_us", tracer.MedianSelfUs("sql.parse_bind"),
              "us");
  report->Add("service.canonicalize_us",
              tracer.MedianSelfUs("service.canonicalize"), "us");
  report->Add("service.queue_us", Median(queue_us), "us");
  report->Add("service.overhead_us", Median(overhead_us), "us");
  report->Add("core.execute_sumcount_us",
              tracer.MedianSelfUs("core.execute_sumcount"), "us");
  report->Add("core.execute_avgvar_us",
              tracer.MedianSelfUs("core.execute_avgvar"), "us");
  report->Add("core.identify_us", tracer.MedianSelfUs("core.identify"), "us");
  report->Add("core.candidates_per_query", candidates / n, "count");
  report->Add("core.pre_mask_us", tracer.MedianSelfUs("core.pre_mask"), "us");
  report->Add("core.used_pre_ratio", used_pre / n, "ratio");
  report->Add("cube.box_value_us", tracer.MedianSelfUs("cube.box_value"),
              "us");
  report->Add("kernels.sample_mask_us",
              tracer.MedianSelfUs("kernels.sample_mask"), "us");
  report->Add("synopsis.estimate_sumcount_us",
              tracer.MedianSelfUs("synopsis.estimate_sumcount"), "us");
  report->Add("synopsis.estimate_avgvar_us",
              tracer.MedianSelfUs("synopsis.estimate_avgvar"), "us");
  accuracy.AddTo(report, "dashboard");
  tracer.WriteTo(args.work_dir + "/spans-dashboard.jsonl");
}

}  // namespace

void RunDashboard(const Args& args, Report* report) {
  std::shared_ptr<Table> table = MakeTable(args.seed);
  Note(args, "table generated");
  Catalog catalog;
  Must(catalog.Register("t", table), "registering the table");

  std::unique_ptr<AqppEngine> engine;
  const double setup_s =
      MedianSetupSeconds(args.trace ? 1 : kSetupReps,
                         [&] { engine = PrepareEngine(table); });
  Note(args, "engine prepared");
  QueryService service{EngineRef(engine.get())};
  ServiceServer server(&service, &catalog);
  Must(server.Start(), "starting the server");

  if (args.trace) {
    TraceDashboard(args, table, catalog, *engine, service, server.port(),
                   report);
    return;
  }

  // Enough distinct queries that the pool outlasts the window; a faster
  // program ends the window early instead of repeating (cached) queries.
  const size_t pool = static_cast<size_t>(args.seconds * 400) + 200;
  const std::vector<RangeQuery> queries =
      MakeQueries(*table, DashboardTemplate(), args.seed + 1, pool);
  std::vector<std::string> sql;
  sql.reserve(queries.size());
  for (const RangeQuery& q : queries) sql.push_back(ToSql(q, *table));
  Note(args, "queries generated");

  const auto start = Clock::now();
  TcpLoadResult load = RunTcpReaders(server.port(), sql, queries, 2, start,
                                     After(start, args.seconds));
  server.Stop();

  AddEndToEnd(report, setup_s, load.window, load.attempted, load.failed);
  Note(args, "window done");
  CheckAgainstInProcess(service, queries, load, kBitChecks, report);
  Note(args, "answers checked");
}

}  // namespace perfbench
}  // namespace aqpp
