// ingest_mix: the dashboard stack with writes beside reads.
//
// An IngestManager with default IngestOptions (background absorber on) is
// attached to the service. One writer connection streams 256-row INGEST
// batches in a closed loop until it has sent a fixed budget of rows, so
// every run grows the table by the same amount; two reader connections send
// distinct queries (equal parts SUM/COUNT/AVG/VAR) while it writes. A gain
// for readers that costs writers, or the reverse, shows here: throughput
// counts reader queries and writer batches alike.

#include <atomic>
#include <cstdio>
#include <thread>

#include "common.h"
#include "core/ingest.h"
#include "service/client.h"
#include "service/ingest_wire.h"
#include "service/server.h"
#include "service/service.h"
#include "shard/partition.h"
#include "tcp_load.h"

namespace aqpp {
namespace perfbench {
namespace {

constexpr size_t kBatchRows = 256;
constexpr size_t kDistinctBatches = 64;
// Writer budget per measured second: the table grows by this many rows per
// second of --seconds, whatever the program's speed.
constexpr size_t kBudgetRowsPerSecond = 100'000;
// Batches replayed by the traced run.
constexpr size_t kTraceBatches = 512;

// Ingest batches copied from base rows: valid dictionary codes and values
// inside every cube dimension's domain, so no append is rejected.
std::vector<std::shared_ptr<Table>> MakeBatches(const Table& table,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::shared_ptr<Table>> batches;
  for (size_t b = 0; b < kDistinctBatches; ++b) {
    const uint64_t begin = rng.NextBounded(table.num_rows() - kBatchRows);
    batches.push_back(Must(shard::SliceShard(table, {begin, begin + kBatchRows}),
                           "slicing an ingest batch"));
  }
  return batches;
}

struct WriterResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // When each acked batch came back, in seconds since the window began.
  std::vector<double> acked_s;
  uint64_t acked_rows = 0;
  bool generation_regressed = false;
};

void TraceIngest(const Args& args, AqppEngine& engine,
                 const std::vector<std::shared_ptr<Table>>& batches,
                 const std::vector<RangeQuery>& queries, Report* report) {
  std::vector<std::string> wire;
  for (size_t b = 0; b < kTraceBatches; ++b) {
    wire.push_back(Must(EncodeIngestBatch(*batches[b % batches.size()]),
                        "encoding a batch"));
  }
  const IngestOptions defaults;
  const size_t absorb_every =
      std::max<size_t>(1, defaults.absorb_threshold_rows / kBatchRows);

  Tracer tracer(true);
  uint64_t appends = 0, refused = 0;
  // One manager per pass (both over the engine); manual absorbs, so each
  // absorb is timed on this thread.
  IngestOptions manual;
  manual.background = false;
  IngestManager untraced(&engine, manual), traced(&engine, manual);
  auto replay = [&](Tracer* t, size_t b) {
    IngestManager& ingest = t->enabled() ? traced : untraced;
    ScopedSpan root(t, b, "batch");
    uint32_t span = t->Begin(b, "ingest.wire_decode", root.id());
    std::shared_ptr<Table> batch =
        Must(DecodeIngestBatch(wire[b], engine.table()), "decoding a batch");
    t->End(span);
    span = t->Begin(b, "ingest.append", root.id());
    Status st = ingest.Append(*batch);
    t->End(span);
    if (t->enabled()) {
      ++appends;
      if (st.code() == StatusCode::kResourceExhausted) ++refused;
    }
    if (!st.ok() && st.code() != StatusCode::kResourceExhausted) {
      Fatal("IngestManager::Append", st);
    }
    // The delta just before an absorb is the largest a reader folds.
    if ((b + 1) % absorb_every == 0) {
      const RangeQuery& q = queries[(b / absorb_every) % queries.size()];
      if (IngestManager::FoldSupported(q.func)) {
        std::shared_ptr<const Table> delta = ingest.delta();
        span = t->Begin(b, "ingest.fold", root.id());
        Must(IngestManager::FoldValue(*delta, q), "FoldValue");
        t->End(span);
      }
      span = t->Begin(b, "ingest.absorb", root.id());
      Must(ingest.AbsorbNow(), "AbsorbNow");
      t->End(span);
    }
  };
  TimeTracingOverhead(report, &tracer, "trace.ingest_mix_overhead_us",
                      wire.size(), replay);
  report->Add("ingest.wire_decode_us", tracer.MedianSelfUs("ingest.wire_decode"),
              "us");
  report->Add("ingest.append_us", tracer.MedianSelfUs("ingest.append"), "us");
  report->Add("ingest.absorb_us", tracer.MedianSelfUs("ingest.absorb"), "us");
  report->Add("ingest.fold_us", tracer.MedianSelfUs("ingest.fold"), "us");
  report->Add("ingest.appends", static_cast<double>(appends), "count");
  report->Add("ingest.refused_ratio",
              appends == 0 ? 0.0
                           : static_cast<double>(refused) /
                                 static_cast<double>(appends),
              "ratio");
  tracer.WriteTo(args.work_dir + "/spans-ingest_mix.jsonl");
}

}  // namespace

void RunIngestMix(const Args& args, Report* report) {
  std::shared_ptr<Table> table = MakeTable(args.seed);
  Note(args, "table generated");
  Catalog catalog;
  Must(catalog.Register("t", table), "registering the table");
  const std::vector<std::shared_ptr<Table>> batches =
      MakeBatches(*table, args.seed + 3);

  std::unique_ptr<AqppEngine> engine;
  const double setup_s =
      MedianSetupSeconds(args.trace ? 1 : kSetupReps,
                         [&] { engine = PrepareEngine(table); });
  Note(args, "engine prepared");

  // The traced replay only needs queries to fold deltas with.
  const size_t pool =
      args.trace ? 64 : static_cast<size_t>(args.seconds * 400) + 200;
  const std::vector<RangeQuery> queries =
      MakeQueries(*table, DashboardTemplate(), args.seed + 2, pool);
  if (args.trace) {
    TraceIngest(args, *engine, batches, queries, report);
    return;
  }
  std::vector<std::string> sql;
  sql.reserve(queries.size());
  for (const RangeQuery& q : queries) sql.push_back(ToSql(q, *table));
  Note(args, "queries generated");

  QueryService service{EngineRef(engine.get())};
  IngestManager ingest(engine.get());
  service.AttachIngest(&ingest);
  Must(ingest.Start(), "starting the absorber");
  ServiceServer server(&service, &catalog);
  Must(server.Start(), "starting the server");

  const uint64_t budget_batches = static_cast<uint64_t>(
      args.seconds * kBudgetRowsPerSecond / kBatchRows);
  // The writer normally finishes well inside 2x the nominal window; the cap
  // only bounds a run of a much slower program.
  const auto start = Clock::now();
  const auto deadline = After(start, 2 * args.seconds);
  std::atomic<bool> writer_done{false};
  WriterResult writer;
  std::thread writer_thread([&] {
    auto client = ServiceClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      writer.attempted = writer.failed = 1;
      writer_done.store(true);
      return;
    }
    (void)client->Hello("perfbench-writer");
    uint64_t last_generation = 0;
    for (uint64_t k = 0; k < budget_batches && Clock::now() < deadline; ++k) {
      ++writer.attempted;
      auto ack = client->Ingest(*batches[k % batches.size()]);
      if (!ack.ok()) {
        ++writer.failed;
        continue;
      }
      if (ack->generation < last_generation) writer.generation_regressed = true;
      last_generation = ack->generation;
      writer.acked_s.push_back(SecondsSince(start));
      writer.acked_rows += ack->appended;
    }
    client->Close();
    writer_done.store(true);
  });
  TcpLoadResult load = RunTcpReaders(server.port(), sql, queries, 2, start,
                                     deadline, &writer_done);
  writer_thread.join();
  Window& window = load.window;
  window.seconds = SecondsSince(start);
  window.done_s.insert(window.done_s.end(), writer.acked_s.begin(),
                       writer.acked_s.end());
  server.Stop();
  Note(args, "window done");

  // Exact accounting once the absorber has drained the delta.
  Must(ingest.AbsorbNow(), "final absorb");
  const IngestSnapshot snap = ingest.snapshot();
  if (snap.rows_committed != writer.acked_rows ||
      snap.total_rows != table->num_rows() + writer.acked_rows) {
    report->Fail("ingest_mix: committed/total rows do not match acked rows");
  }
  if (load.generation_regressed || writer.generation_regressed) {
    report->Fail("ingest_mix: a connection saw its generation decrease");
  }
  if (!writer_done.load() || writer.attempted == 0) {
    report->Fail("ingest_mix: the writer did not run");
  }
  std::fprintf(stderr, "writer: %llu rows acked in %.2fs (%.0f rows/s)\n",
               static_cast<unsigned long long>(writer.acked_rows),
               window.seconds,
               static_cast<double>(writer.acked_rows) / window.seconds);
  service.Stop();
  ingest.Stop();

  AddEndToEnd(report, setup_s, window, load.attempted + writer.attempted,
              load.failed + writer.failed);
}

}  // namespace perfbench
}  // namespace aqpp
