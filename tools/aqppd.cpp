// aqppd — the AQP++ query daemon.
//
//   aqppd --table t.bin [--state DIR | --measure COL[;COL...]
//                                     --dims C1,C2[;C3...]]
//         [--host 127.0.0.1] [--port 7878] [--rate 0.02] [--k 50000]
//         [--workers 4] [--queue 64] [--per-session 16]
//         [--timeout-ms 0] [--cache 1024]
//         [--ingest] [--absorb-rows 4096] [--absorb-ms 250]
//         [--slow-ms 500] [--metrics] [--no-obs]
//
// Each `;`-separated group of --dims is one query template (Appendix C's
// multi-template session: one shared sample, one cube per template, and
// the cube budget --k split across them). --measure names one column for
// every template, or one per group in the same `;` order. A query is
// answered from the template on its measure that covers the most of its
// columns; a query on a measure no template has gets plain AQP.
//
// --ingest enables the streaming-ingest subsystem (docs/ingest.md): the
// INGEST verb appends row batches into an exact in-memory delta, and a
// background absorber folds the delta into the cube/reservoir/synopsis
// every --absorb-rows rows or --absorb-ms milliseconds.
//
// Loads the table, prepares (or warm-starts) the engine, and serves the
// line protocol (docs/service.md) until SIGINT/SIGTERM. Clients: `aqppcli
// connect --port 7878 ["SQL"]` or anything that can speak
// newline-delimited key=value over TCP (nc works fine). Live metrics are
// served over the METRICS verb; --metrics additionally dumps the Prometheus
// exposition (and the slow-query log) to stdout at shutdown.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "service/server.h"
#include "service/service.h"
#include "storage/io.h"

namespace {

using namespace aqpp;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Args {
  std::map<std::string, std::string> flags;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      std::string key = a.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "true";
      }
    }
  }
  return args;
}

std::string FlagOr(const Args& args, const std::string& key,
                   const std::string& fallback) {
  auto it = args.flags.find(key);
  return it == args.flags.end() ? fallback : it->second;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  aqppd --table t.bin [--state DIR | --measure COL[;COL...] "
               "--dims C1,C2[;C3...]]\n"
               "        [--host 127.0.0.1] [--port 7878] [--rate 0.02] "
               "[--k 50000]\n"
               "        [--workers 4] [--queue 64] [--per-session 16]\n"
               "        [--timeout-ms 0] [--cache 1024]\n"
               "        [--ingest] [--absorb-rows 4096] [--absorb-ms 250]\n"
               "        [--slow-ms 500] [--metrics] [--no-obs]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// One SUM template per `;` group of `dims`; `measures` holds one column for
// every group or one per group.
Result<std::vector<QueryTemplate>> ParseTemplates(const Table& table,
                                                  const std::string& measures,
                                                  const std::string& dims) {
  std::vector<std::string> groups = SplitString(dims, ';');
  std::vector<std::string> measure_names = SplitString(measures, ';');
  if (measure_names.size() != 1 && measure_names.size() != groups.size()) {
    return Status::InvalidArgument(StrFormat(
        "--measure lists %zu columns for %zu --dims groups; give one, or one "
        "per group", measure_names.size(), groups.size()));
  }
  std::vector<QueryTemplate> templates;
  for (size_t t = 0; t < groups.size(); ++t) {
    QueryTemplate tmpl;
    tmpl.func = AggregateFunction::kSum;
    const std::string& measure =
        measure_names[measure_names.size() == 1 ? 0 : t];
    AQPP_ASSIGN_OR_RETURN(
        tmpl.agg_column,
        table.GetColumnIndex(std::string(TrimWhitespace(measure))));
    for (const std::string& name : SplitString(groups[t], ',')) {
      AQPP_ASSIGN_OR_RETURN(
          size_t idx, table.GetColumnIndex(std::string(TrimWhitespace(name))));
      tmpl.condition_columns.push_back(idx);
    }
    templates.push_back(std::move(tmpl));
  }
  return templates;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::string table_path = FlagOr(args, "table", "");
  if (table_path.empty()) return Usage();

  auto table = ReadBinary(table_path);
  if (!table.ok()) return Fail(table.status());
  std::printf("loaded %zu rows from %s\n", (*table)->num_rows(),
              table_path.c_str());

  Catalog catalog;
  AQPP_CHECK_OK(catalog.Register("t", *table));
  std::string stem = table_path;
  size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos) stem = stem.substr(0, dot);
  if (stem != "t" && !stem.empty()) (void)catalog.Register(stem, *table);

  EngineOptions eopts;
  eopts.sample_rate = std::atof(FlagOr(args, "rate", "0.02").c_str());
  eopts.cube_budget =
      static_cast<size_t>(std::atoll(FlagOr(args, "k", "50000").c_str()));
  auto engine = AqppEngine::Create(*table, eopts);
  if (!engine.ok()) return Fail(engine.status());

  std::string state = FlagOr(args, "state", "");
  std::string measure = FlagOr(args, "measure", "");
  std::string dims = FlagOr(args, "dims", "");
  Timer prep_timer;
  if (!state.empty()) {
    Status st = (*engine)->LoadState(state);
    if (!st.ok()) return Fail(st);
    std::printf("warm-started from %s in %s\n", state.c_str(),
                FormatDuration(prep_timer.ElapsedSeconds()).c_str());
  } else if (!measure.empty() && !dims.empty()) {
    auto templates = ParseTemplates(**table, measure, dims);
    if (!templates.ok()) return Fail(templates.status());
    Status st = (*engine)->Prepare(*templates);
    if (!st.ok()) return Fail(st);
    for (size_t t = 0; t < (*engine)->num_templates(); ++t) {
      std::printf("prepared %s (%zu cells)\n",
                  (*templates)[t].ToString((*table)->schema()).c_str(),
                  (*engine)->cube_of(t)->NumCells());
    }
    std::printf("prepared %zu template(s) in %s\n",
                (*engine)->num_templates(),
                FormatDuration(prep_timer.ElapsedSeconds()).c_str());
  } else {
    std::printf("no --state/--measure+--dims: serving plain AQP\n");
  }

  ServiceOptions sopts;
  sopts.admission.num_workers = static_cast<size_t>(
      std::atoll(FlagOr(args, "workers", "4").c_str()));
  sopts.admission.max_queue_depth = static_cast<size_t>(
      std::atoll(FlagOr(args, "queue", "64").c_str()));
  sopts.admission.max_per_session = static_cast<size_t>(
      std::atoll(FlagOr(args, "per-session", "16").c_str()));
  sopts.cache.capacity = static_cast<size_t>(
      std::atoll(FlagOr(args, "cache", "1024").c_str()));
  long long timeout_ms = std::atoll(FlagOr(args, "timeout-ms", "0").c_str());
  sopts.default_timeout_seconds =
      timeout_ms <= 0 ? 0 : static_cast<double>(timeout_ms) / 1000.0;
  long long slow_ms = std::atoll(FlagOr(args, "slow-ms", "500").c_str());
  sopts.slow_query_threshold_seconds =
      slow_ms <= 0 ? 0 : static_cast<double>(slow_ms) / 1000.0;
  if (FlagOr(args, "no-obs", "") == "true") obs::SetEnabled(false);
  bool dump_metrics = FlagOr(args, "metrics", "") == "true";
  QueryService service(engine->get(), sopts);

  std::unique_ptr<IngestManager> ingest;
  if (FlagOr(args, "ingest", "") == "true") {
    IngestOptions iopts;
    iopts.absorb_threshold_rows = static_cast<size_t>(
        std::atoll(FlagOr(args, "absorb-rows", "4096").c_str()));
    long long absorb_ms =
        std::atoll(FlagOr(args, "absorb-ms", "250").c_str());
    iopts.absorb_interval_seconds =
        absorb_ms <= 0 ? 0.25 : static_cast<double>(absorb_ms) / 1000.0;
    ingest = std::make_unique<IngestManager>(engine->get(), iopts);
    service.AttachIngest(ingest.get());
    if (Status st = ingest->Start(); !st.ok()) return Fail(st);
    std::printf("ingest enabled (absorb at %zu rows / %lld ms)\n",
                iopts.absorb_threshold_rows, absorb_ms);
  }

  ServerOptions server_opts;
  server_opts.host = FlagOr(args, "host", "127.0.0.1");
  server_opts.port = static_cast<int>(
      std::atoll(FlagOr(args, "port", "7878").c_str()));
  ServiceServer server(&service, &catalog, server_opts);
  Status st = server.Start();
  if (!st.ok()) return Fail(st);
  std::printf("aqppd listening on %s:%d (workers=%zu queue=%zu cache=%zu)\n",
              server_opts.host.c_str(), server.port(),
              sopts.admission.num_workers, sopts.admission.max_queue_depth,
              sopts.cache.capacity);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("shutting down\n");
  server.Stop();
  service.Stop();
  if (ingest != nullptr) {
    ingest->Stop();
    IngestSnapshot snap = ingest->snapshot();
    std::printf("ingested %llu batches / %llu rows (%llu absorbed, "
                "%zu still in delta)\n",
                static_cast<unsigned long long>(snap.batches_committed),
                static_cast<unsigned long long>(snap.rows_committed),
                static_cast<unsigned long long>(snap.rows_absorbed),
                snap.delta_rows);
  }
  ServiceStats stats = service.stats();
  std::printf("served %llu queries (%llu cache hits, %llu rejected, "
              "%llu timed out, %llu slow)\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.timed_out),
              static_cast<unsigned long long>(stats.slow_queries));
  if (dump_metrics) {
    std::printf("--- metrics ---\n%s",
                obs::Registry::Global().RenderPrometheus().c_str());
    std::string slow = service.slow_query_log().Render();
    if (!slow.empty()) {
      std::printf("--- slow queries (threshold %lld ms) ---\n%s",
                  static_cast<long long>(slow_ms), slow.c_str());
    }
  }
  return 0;
}
