// shard_fanout: the only path through the scatter-gather tier.
//
// The table is split into 4 row-range shards (MakeShardPlan, through
// LocalShardGroup); each shard is a default ShardWorker behind a default
// WorkerServer on loopback. A ShardCoordinator in its default (sample) mode
// serves one closed-loop client thread sending distinct queries, equal parts
// SUM/COUNT/AVG/VAR: per query it canonicalizes, connects to every shard,
// fans out on one thread per shard, waits out each worker's batch window,
// and merges in shard order. The slowest shard sets each query's latency.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.h"
#include "service/client.h"
#include "service/result_cache.h"
#include "shard/coordinator.h"
#include "shard/local_group.h"
#include "shard/partial.h"
#include "shard/worker_server.h"

namespace aqpp {
namespace perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kBitChecks = 400;
constexpr size_t kTraceQueries = 200;
// Every query opens one connection per shard, and a worker server keeps
// each connection's thread until it stops; the servers are restarted after
// this many queries (outside the timed window) to stay far below the
// process's thread ceiling (~32k mappings' worth of thread stacks).
constexpr size_t kQueriesPerServe = 3000;

// Workers, their servers and a connected coordinator.
struct Tier {
  std::unique_ptr<shard::LocalShardGroup> group;
  std::vector<std::unique_ptr<shard::WorkerServer>> servers;
  std::vector<std::vector<shard::ReplicaEndpoint>> endpoints;
  std::unique_ptr<shard::ShardCoordinator> coordinator;

  // (Re)starts one server per worker and connects a fresh coordinator.
  // Destroying a server stops it and joins its connection threads.
  void Serve() {
    servers.clear();
    endpoints.clear();
    for (size_t i = 0; i < group->num_shards(); ++i) {
      auto server = std::make_unique<shard::WorkerServer>(&group->worker(i));
      Must(server->Start(), "starting a worker server");
      endpoints.push_back({{.host = "127.0.0.1", .port = server->port()}});
      servers.push_back(std::move(server));
    }
    coordinator = std::make_unique<shard::ShardCoordinator>(endpoints);
    Must(coordinator->Connect(), "connecting the coordinator");
  }
};

std::unique_ptr<Tier> BuildTier(const std::shared_ptr<Table>& table) {
  auto tier = std::make_unique<Tier>();
  tier->group = Must(shard::LocalShardGroup::Build(table, DashboardTemplate(),
                                                   kShards, {}),
                     "building the shard group");
  tier->Serve();
  return tier;
}

shard::MergeOptions SampleMerge(const shard::ShardCoordinator& c) {
  shard::MergeOptions m;
  m.mode = c.options().mode;
  m.confidence_level = c.options().confidence_level;
  m.total_rows = c.total_rows();
  m.degraded_penalty = c.options().degraded_penalty;
  m.allow_degraded = c.options().allow_degraded;
  return m;
}

void TraceShard(const Args& args, const std::shared_ptr<Table>& table,
                Tier& tier, Report* report) {
  const std::vector<RangeQuery> queries =
      MakeQueries(*table, DashboardTemplate(), args.seed + 5, kTraceQueries);
  const std::vector<double> truth = GroundTruth(*table, queries);
  QueryCanonicalizer canonicalizer(table.get());
  const shard::PartialWants wants{.sample = true};
  const shard::MergeOptions merge = SampleMerge(*tier.coordinator);

  Tracer tracer(true);
  Accuracy accuracy;
  // One coordinator per pass, so the traced pass never hits the result
  // cache the untraced pass filled.
  std::vector<std::unique_ptr<shard::ShardCoordinator>> coordinators;
  std::vector<ServiceClient> clients;
  for (int pass = 0; pass < 2; ++pass) {
    coordinators.push_back(
        std::make_unique<shard::ShardCoordinator>(tier.endpoints));
    Must(coordinators.back()->Connect(), "connecting the coordinator");
  }
  for (const auto& ep : tier.endpoints) {
    clients.push_back(
        Must(ServiceClient::Connect(ep[0].host, ep[0].port), "connect"));
  }
  auto replay = [&](Tracer* t, size_t i) {
    shard::ShardCoordinator& coordinator = *coordinators[t->enabled()];
    ScopedSpan root(t, i, "query");
    uint32_t span = t->Begin(i, "shard.query", root.id());
    shard::CoordinatorAnswer answer =
        Must(coordinator.Query(queries[i]), "coordinator query");
    t->End(span);
    const CanonicalQuery canon = canonicalizer.Canonicalize(queries[i]);

    // The same scatter by hand: a connect, the worker's own Partial, one
    // PARTIAL round trip per shard over an open connection, the merge.
    span = t->Begin(i, "shard.connect", root.id());
    Must(ServiceClient::Connect(tier.endpoints[i % kShards][0].host,
                                tier.endpoints[i % kShards][0].port),
         "connect")
        .Close();
    t->End(span);
    shard::PartialSpec spec;
    spec.query = canon.query;
    spec.wants = wants;
    spec.seed = answer.seed;
    const std::string line = "PARTIAL " + shard::FormatPartialSpec(spec);
    std::vector<std::optional<shard::ShardPartial>> partials;
    for (size_t s = 0; s < kShards; ++s) {
      span = t->Begin(i, "shard.partial", root.id());
      partials.push_back(Must(tier.group->worker(s).Partial(
                                  canon.query, wants, answer.seed),
                              "ShardWorker::Partial"));
      t->End(span);
      span = t->Begin(i, "shard.partial_rtt", root.id());
      Response r = Must(clients[s].Call(line), "PARTIAL");
      t->End(span);
      if (!r.ok) Fatal("PARTIAL", Status::Internal("worker error"));
    }
    span = t->Begin(i, "shard.merge", root.id());
    Must(shard::MergePartials(canon.query, partials, merge), "merge");
    t->End(span);
    if (t->enabled()) {
      accuracy.Score(answer.merged.ci.estimate, answer.merged.ci.half_width,
                     truth[i]);
    }
  };
  TimeTracingOverhead(report, &tracer, "trace.shard_fanout_overhead_us",
                      queries.size(), replay);
  for (auto& c : clients) c.Close();
  report->Add("shard.connect_us", tracer.MedianSelfUs("shard.connect"), "us");
  report->Add("shard.partial_us", tracer.MedianSelfUs("shard.partial"), "us");
  report->Add("shard.partial_rtt_us", tracer.MedianSelfUs("shard.partial_rtt"),
              "us");
  report->Add("shard.merge_us", tracer.MedianSelfUs("shard.merge"), "us");
  report->Add("shard.query_us", tracer.MedianSelfUs("shard.query"), "us");
  accuracy.AddTo(report, "shard_fanout");
  tracer.WriteTo(args.work_dir + "/spans-shard_fanout.jsonl");
}

}  // namespace

void RunShardFanout(const Args& args, Report* report) {
  std::shared_ptr<Table> table = MakeTable(args.seed);
  Note(args, "table generated");
  std::unique_ptr<Tier> tier;
  const double setup_s =
      MedianSetupSeconds(args.trace ? 1 : kSetupReps, [&] {
        tier.reset();  // one tier's memory at a time
        tier = BuildTier(table);
      });
  Note(args, "shards built");
  if (args.trace) {
    TraceShard(args, table, *tier, report);
    return;
  }

  const size_t pool = static_cast<size_t>(args.seconds * 1500) + 200;
  const std::vector<RangeQuery> queries =
      MakeQueries(*table, DashboardTemplate(), args.seed + 5, pool);
  Note(args, "queries generated");

  std::vector<shard::CoordinatorAnswer> answers;
  std::vector<char> answered;
  Window window;
  uint64_t failed = 0;
  // The window counts only time spent answering; server restarts pause it.
  for (size_t i = 0; i < queries.size() && window.seconds < args.seconds;
       ++i) {
    if (i > 0 && i % kQueriesPerServe == 0) tier->Serve();
    const auto q0 = Clock::now();
    Result<shard::CoordinatorAnswer> r = tier->coordinator->Query(queries[i]);
    const double s = SecondsSince(q0);
    window.seconds += s;
    const bool ok = r.ok() && !r->merged.degraded;
    answered.push_back(ok);
    answers.push_back(r.ok() ? *r : shard::CoordinatorAnswer());
    if (!ok) {
      ++failed;
      continue;
    }
    window.AddQuery(queries[i].func, window.seconds, 1e3 * s);
  }
  Note(args, "window done");

  // Merged answers must match the in-process group for the same seed.
  QueryCanonicalizer canonicalizer(table.get());
  const shard::MergeOptions merge = SampleMerge(*tier->coordinator);
  for (size_t i = 0, checked = 0; i < answers.size() && checked < kBitChecks;
       ++i) {
    if (!answered[i]) continue;
    ++checked;
    const CanonicalQuery canon = canonicalizer.Canonicalize(queries[i]);
    shard::MergedAnswer local =
        Must(tier->group->Query(canon.query, {.sample = true}, answers[i].seed,
                                merge),
             "LocalShardGroup::Query");
    if (canon.seed != answers[i].seed ||
        !SameBits(local.ci.estimate, answers[i].merged.ci.estimate) ||
        !SameBits(local.ci.half_width, answers[i].merged.ci.half_width)) {
      report->Fail("shard_fanout: answer " + std::to_string(i) +
                   " differs from LocalShardGroup::Query");
      break;
    }
  }
  AddEndToEnd(report, setup_s, window, answers.size(), failed);
}

}  // namespace perfbench
}  // namespace aqpp
