#include "shard/coordinator.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "service/ingest_wire.h"
#include "shard/partition.h"

namespace aqpp {
namespace shard {

namespace {

struct CoordMetrics {
  obs::Counter* queries;
  obs::Counter* scatters;
  obs::Counter* failovers;
  obs::Counter* shard_failures;
  obs::Counter* degraded;
  obs::Counter* connections_opened;
  static const CoordMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const CoordMetrics m = {
        reg.GetCounter("aqpp_coord_queries_total", "",
                       "Queries answered by the shard coordinator."),
        reg.GetCounter("aqpp_coord_scatter_total", "",
                       "PARTIAL fetch attempts fanned out to shard workers."),
        reg.GetCounter("aqpp_coord_failovers_total", "",
                       "Fetches retried on another replica of the shard."),
        reg.GetCounter("aqpp_coord_shard_failures_total", "",
                       "Shards whose every replica failed for a query."),
        reg.GetCounter("aqpp_coord_degraded_total", "",
                       "Merged answers returned in degraded (partial) "
                       "form."),
        reg.GetCounter("aqpp_coord_connections_opened_total", "",
                       "Connections opened to shard workers; the rest of "
                       "the fetches reuse pooled ones."),
    };
    return m;
  }
};

struct CoordIngestMetrics {
  obs::Counter* batches;
  obs::Counter* errors;
  obs::Counter* invalidations;
  static const CoordIngestMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const CoordIngestMetrics m = {
        reg.GetCounter("aqpp_coord_ingest_batches_total", "",
                       "Ingest batches fully acked by the target shard's "
                       "replicas."),
        reg.GetCounter("aqpp_coord_ingest_errors_total", "",
                       "Ingest forwards that failed on some replica."),
        reg.GetCounter("aqpp_coord_ingest_invalidations_total", "",
                       "Result-cache invalidations driven by acked ingest "
                       "generation bumps."),
    };
    return m;
  }
};

Status WireError(const Response& r) {
  std::string code = r.Find("code").value_or("Internal");
  std::string msg = r.message.empty() ? code : r.message;
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(msg);
  if (code == "InvalidArgument") return Status::InvalidArgument(msg);
  if (code == "Unimplemented") return Status::Unimplemented(msg);
  if (code == "FailedPrecondition") return Status::FailedPrecondition(msg);
  return Status::Unavailable(code + ": " + msg);
}

PartialWants WantsForMode(MergeMode mode) {
  PartialWants wants;
  switch (mode) {
    case MergeMode::kExact:
      wants.exact = true;
      break;
    case MergeMode::kSample:
      wants.sample = true;
      break;
    case MergeMode::kEngine:
      wants.engine = true;
      break;
  }
  return wants;
}

// Parses the SHARDINFO "domains" field: `col:min:max,col:min:max,...`.
Result<std::vector<ColumnDomainSpec>> ParseDomains(const std::string& text) {
  std::vector<ColumnDomainSpec> out;
  if (text.empty()) return out;
  for (const std::string& triple : SplitString(text, ',')) {
    std::vector<std::string> parts = SplitString(triple, ':');
    if (parts.size() != 3) {
      return Status::FailedPrecondition("malformed domain triple '" + triple +
                                        "'");
    }
    ColumnDomainSpec spec;
    char* end = nullptr;
    spec.column = static_cast<size_t>(std::strtoull(parts[0].c_str(), &end, 10));
    if (end == parts[0].c_str() || *end != '\0') {
      return Status::FailedPrecondition("bad domain column '" + parts[0] + "'");
    }
    spec.lo = std::strtoll(parts[1].c_str(), &end, 10);
    if (end == parts[1].c_str() || *end != '\0') {
      return Status::FailedPrecondition("bad domain lo '" + parts[1] + "'");
    }
    spec.hi = std::strtoll(parts[2].c_str(), &end, 10);
    if (end == parts[2].c_str() || *end != '\0') {
      return Status::FailedPrecondition("bad domain hi '" + parts[2] + "'");
    }
    out.push_back(spec);
  }
  return out;
}

}  // namespace

ShardCoordinator::ShardCoordinator(
    std::vector<std::vector<ReplicaEndpoint>> replicas,
    CoordinatorOptions options)
    : replicas_(std::move(replicas)),
      options_(options),
      wants_(WantsForMode(options.mode)),
      cache_(ResultCacheOptions{options.cache_capacity}) {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    shard_latency_.push_back(obs::Registry::Global().GetHistogram(
        "aqpp_coord_shard_seconds", StrFormat("shard=\"%zu\"", i), {},
        "Per-shard PARTIAL round-trip seconds as seen by the coordinator."));
    idle_.emplace_back(replicas_[i].size());
  }
}

Status ShardCoordinator::Connect() {
  if (replicas_.empty()) {
    return Status::InvalidArgument("coordinator needs at least one shard");
  }
  const size_t n = replicas_.size();
  topology_.assign(n, {});
  std::vector<char> known(n, 0);
  // Global domain = union over shards: min of mins, max of maxes. A query
  // canonicalized against the union clamps exactly like the single-engine
  // canonicalizer over the whole table would.
  std::map<size_t, std::pair<int64_t, int64_t>> domain;
  for (size_t i = 0; i < n; ++i) {
    if (replicas_[i].empty()) {
      return Status::InvalidArgument(
          StrFormat("shard %zu has no replica endpoints", i));
    }
    Status last = Status::Unavailable("unreachable");
    bool got = false;
    for (const ReplicaEndpoint& ep : replicas_[i]) {
      auto client = Open(ep);
      if (!client.ok()) {
        last = client.status();
        continue;
      }
      auto r = client->Call("SHARDINFO");
      if (!r.ok()) {
        last = r.status();
        continue;
      }
      if (!r->ok) {
        last = WireError(*r);
        continue;
      }
      auto shard = r->GetUint("shard");
      auto shards = r->GetUint("shards");
      auto rows = r->GetUint("rows");
      auto row_begin = r->GetUint("row_begin");
      auto sample_rows = r->GetUint("sample_rows");
      if (!shard.ok() || !shards.ok() || !rows.ok() || !row_begin.ok() ||
          !sample_rows.ok()) {
        last = Status::FailedPrecondition("incomplete SHARDINFO reply");
        continue;
      }
      if (*shard != i || *shards != n) {
        return Status::FailedPrecondition(StrFormat(
            "endpoint %s:%d identifies as shard %llu/%llu, expected %zu/%zu",
            ep.host.c_str(), ep.port,
            static_cast<unsigned long long>(*shard),
            static_cast<unsigned long long>(*shards), i, n));
      }
      if (*rows == 0) {
        return Status::FailedPrecondition(
            StrFormat("shard %zu reports zero rows", i));
      }
      auto domains = ParseDomains(r->Find("domains").value_or(""));
      if (!domains.ok()) {
        last = domains.status();
        continue;
      }
      topology_[i] = {*rows, *row_begin, *sample_rows};
      for (const ColumnDomainSpec& d : *domains) {
        auto [it, inserted] = domain.emplace(d.column,
                                             std::make_pair(d.lo, d.hi));
        if (!inserted) {
          it->second.first = std::min(it->second.first, d.lo);
          it->second.second = std::max(it->second.second, d.hi);
        }
      }
      got = true;
      break;
    }
    if (got) {
      known[i] = 1;
    } else if (!options_.allow_degraded) {
      return Status::Unavailable(
          StrFormat("shard %zu: every replica failed SHARDINFO (last: %s)", i,
                    last.message().c_str()));
    } else {
      // Degraded boot: serve what is reachable. With the shard's row count
      // unknown the merge falls back to covered-mean extrapolation
      // (MergeOptions.total_rows == 0) until the shard comes back.
      AQPP_LOG(Warning) << "shard " << i
                        << " unreachable at connect; starting degraded "
                           "(last: "
                        << last.message() << ")";
    }
  }
  const size_t known_count =
      static_cast<size_t>(std::count(known.begin(), known.end(), 1));
  if (known_count == 0) {
    return Status::Unavailable("every shard failed SHARDINFO");
  }
  if (known_count == n) {
    // Row ranges must tile [0, total) in shard order — the exact merge
    // splices block sequences by position, so a gap or overlap would
    // silently corrupt answers.
    uint64_t expect_begin = 0;
    for (size_t i = 0; i < n; ++i) {
      if (topology_[i].row_begin != expect_begin) {
        return Status::FailedPrecondition(StrFormat(
            "shard %zu starts at row %llu, expected %llu (ranges must be "
            "contiguous)",
            i, static_cast<unsigned long long>(topology_[i].row_begin),
            static_cast<unsigned long long>(expect_begin)));
      }
      expect_begin += topology_[i].rows;
    }
    total_rows_ = expect_begin;
  } else {
    total_rows_ = 0;  // unknown — merge extrapolates from the covered mean
  }
  size_t num_columns = 0;
  std::vector<ColumnDomainSpec> specs;
  specs.reserve(domain.size());
  for (const auto& [col, range] : domain) {
    specs.push_back({col, range.first, range.second});
    num_columns = std::max(num_columns, col + 1);
  }
  canonicalizer_ = QueryCanonicalizer::FromDomains(num_columns, specs);
  connected_ = true;
  return Status::OK();
}

Result<IngestAck> ShardCoordinator::Ingest(const Table& batch) {
  AQPP_ASSIGN_OR_RETURN(std::string payload, EncodeIngestBatch(batch));
  return IngestRaw(payload);
}

Result<IngestAck> ShardCoordinator::IngestRaw(const std::string& payload) {
  if (!connected_) {
    return Status::FailedPrecondition("coordinator is not connected");
  }
  const CoordIngestMetrics& metrics = CoordIngestMetrics::Get();
  // Row-range sharding: appended rows extend the tail, so the batch goes to
  // the last shard — to every replica, in endpoint order, so replicas fed
  // the same batch sequence hold bit-identical deltas.
  const size_t shard = replicas_.size() - 1;
  const std::vector<ReplicaEndpoint>& reps = replicas_[shard];
  const std::string line = "INGEST " + payload;
  IngestAck ack;
  for (size_t replica = 0; replica < reps.size(); ++replica) {
    const ReplicaEndpoint& ep = reps[replica];
    auto fail = [&](const Status& st) {
      metrics.errors->Increment();
      return Status::Unavailable(StrFormat(
          "replica %s:%d failed INGEST after %u sibling ack(s): %s",
          ep.host.c_str(), ep.port, ack.replicas_acked,
          st.ToString().c_str()));
    };
    // No retry on a fresh connection: INGEST is not idempotent, and a
    // failure after the send cannot tell whether the batch was applied.
    bool reused = false;
    auto client = Acquire(shard, replica, /*fresh=*/false, &reused);
    if (!client.ok()) return fail(client.status());
    if (Status st = client->SetRecvTimeout(options_.shard_timeout_seconds);
        !st.ok()) {
      return fail(st);
    }
    auto r = client->Call(line);
    if (!r.ok()) return fail(r.status());
    Release(shard, replica, std::move(*client));
    if (!r->ok) return fail(WireError(*r));
    auto appended = r->GetUint("appended");
    auto generation = r->GetUint("generation");
    auto delta_rows = r->GetUint("delta_rows");
    auto total_rows = r->GetUint("total_rows");
    if (!appended.ok() || !generation.ok() || !delta_rows.ok() ||
        !total_rows.ok()) {
      return fail(Status::FailedPrecondition("incomplete INGEST reply"));
    }
    ack.appended = *appended;
    ack.generation = std::max(ack.generation, *generation);
    ack.delta_rows = *delta_rows;
    ack.total_rows = *total_rows;
    ++ack.replicas_acked;
  }
  metrics.batches->Increment();
  // Invalidate on the generation bump: cached merged answers predate the
  // batch, and the next scatter's engine merge folds it.
  uint64_t seen = ingest_generation_.load();
  while (ack.generation > seen &&
         !ingest_generation_.compare_exchange_weak(seen, ack.generation)) {
  }
  if (ack.generation > seen) {
    cache_.InvalidateAll();
    metrics.invalidations->Increment();
  }
  return ack;
}

Result<ServiceClient> ShardCoordinator::Open(
    const ReplicaEndpoint& endpoint) const {
  AQPP_ASSIGN_OR_RETURN(ServiceClient client,
                        ServiceClient::Connect(endpoint.host, endpoint.port));
  CoordMetrics::Get().connections_opened->Increment();
  AQPP_RETURN_NOT_OK(client.SetRecvTimeout(options_.shard_timeout_seconds));
  return client;
}

Result<ServiceClient> ShardCoordinator::Acquire(size_t shard, size_t replica,
                                                bool fresh,
                                                bool* reused) const {
  *reused = false;
  while (!fresh) {
    std::optional<ServiceClient> idle;
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      std::vector<ServiceClient>& pool = idle_[shard][replica];
      if (pool.empty()) break;
      idle = std::move(pool.back());
      pool.pop_back();
    }
    // A worker that restarted closed every connection parked against it.
    if (idle->Reusable()) {
      *reused = true;
      return std::move(*idle);
    }
  }
  return Open(replicas_[shard][replica]);
}

void ShardCoordinator::Release(size_t shard, size_t replica,
                               ServiceClient client) const {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    std::vector<ServiceClient>& pool = idle_[shard][replica];
    if (pool.size() < kIdleConnectionsPerReplica) {
      pool.push_back(std::move(client));
      return;
    }
  }
  client.Close();  // over the cap: closed outside the lock
}

Result<ShardPartial> ShardCoordinator::Collect(uint32_t shard, size_t replica,
                                               ServiceClient client,
                                               const Timer& sent) const {
  // What is left of this request's deadline; a reply already in the socket
  // is still taken when none is.
  const double left = options_.shard_timeout_seconds - sent.ElapsedSeconds();
  AQPP_RETURN_NOT_OK(client.SetRecvTimeout(std::max(left, 1e-6)));
  AQPP_ASSIGN_OR_RETURN(Response r, client.Receive());
  Release(shard, replica, std::move(client));
  if (!r.ok) return WireError(r);
  AQPP_ASSIGN_OR_RETURN(ShardPartial partial, ParsePartial(r));
  if (partial.shard_index != shard || partial.num_shards != replicas_.size()) {
    const ReplicaEndpoint& ep = replicas_[shard][replica];
    return Status::FailedPrecondition(StrFormat(
        "replica %s:%d answered as shard %u/%u, expected %u/%zu",
        ep.host.c_str(), ep.port, partial.shard_index, partial.num_shards,
        shard, replicas_.size()));
  }
  return partial;
}

std::vector<std::optional<ShardPartial>> ShardCoordinator::Scatter(
    const RangeQuery& query, uint64_t seed) const {
  const CoordMetrics& metrics = CoordMetrics::Get();
  PartialSpec spec;
  spec.query = query;
  spec.wants = wants_;
  spec.seed = seed;
  const std::string line = "PARTIAL " + FormatPartialSpec(spec);
  const size_t n = replicas_.size();
  std::vector<std::optional<ShardPartial>> partials(n);

  // One shard's walk through its replica rotation.
  struct Fetch {
    size_t first = 0;     // seeded first pick
    size_t tried = 0;     // replicas failed over so far
    size_t replica = 0;   // this round's: (first + tried) mod R
    bool fresh = false;   // retry the same replica on a new connection
    bool reused = false;  // this round's connection came from the pool
    std::optional<ServiceClient> client;  // set once the request is sent
    Status error;         // set when this round's request was not sent
    Timer sent;
  };
  std::vector<Fetch> fetches(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Same (coordinator seed, query seed, shard) => same first replica, so
    // a repeated query exercises the same worker and chaos runs replay.
    fetches[i].first = static_cast<size_t>(
        ShardSeed(options_.seed ^ seed, i) % replicas_[i].size());
  }
  std::vector<uint32_t> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  while (!pending.empty()) {
    // Send to every shard still missing before reading any reply.
    for (uint32_t i : pending) {
      Fetch& f = fetches[i];
      f.replica = (f.first + f.tried) % replicas_[i].size();
      metrics.scatters->Increment();
      Result<ServiceClient> client = Acquire(i, f.replica, f.fresh, &f.reused);
      if (!client.ok()) {
        f.error = client.status();
        continue;
      }
      f.sent.Reset();
      f.error = client->Send(line);
      if (f.error.ok()) f.client = std::move(*client);
    }
    // Then read them in shard order.
    std::vector<uint32_t> missing;
    for (uint32_t i : pending) {
      Fetch& f = fetches[i];
      Result<ShardPartial> partial = f.error;
      if (f.client) {
        partial = Collect(i, f.replica, std::move(*f.client), f.sent);
        f.client.reset();
        const double elapsed = f.sent.ElapsedSeconds();
        shard_latency_[i]->Observe(elapsed);
        if (elapsed > options_.straggler_seconds) {
          const ReplicaEndpoint& ep = replicas_[i][f.replica];
          AQPP_LOG(Warning) << "straggler: shard " << i << " replica "
                            << ep.host << ":" << ep.port << " took "
                            << elapsed << "s (budget "
                            << options_.straggler_seconds << "s)";
        }
      }
      if (partial.ok()) {
        partials[i] = std::move(partial).value();
        continue;
      }
      // A pooled connection the worker has dropped (it restarted) says
      // nothing about the replica: retry it once on a fresh connection,
      // which is not a failover.
      if (f.reused && partial.status().code() == StatusCode::kIOError) {
        f.fresh = true;
        missing.push_back(i);
        continue;
      }
      f.fresh = false;
      if (++f.tried < replicas_[i].size()) {
        metrics.failovers->Increment();
        missing.push_back(i);
        continue;
      }
      metrics.shard_failures->Increment();
      AQPP_LOG(Warning) << "shard " << i << " unavailable: "
                        << partial.status().ToString();
    }
    pending = std::move(missing);
  }
  return partials;
}

Result<CoordinatorAnswer> ShardCoordinator::Query(const RangeQuery& query) {
  if (!connected_) {
    return Status::FailedPrecondition("coordinator is not connected");
  }
  const CoordMetrics& metrics = CoordMetrics::Get();
  metrics.queries->Increment();
  Timer timer;
  CanonicalQuery canonical = canonicalizer_->Canonicalize(query);
  CoordinatorAnswer answer;
  answer.cache_key = canonical.key;
  answer.seed = canonical.seed;
  if (std::optional<ApproximateResult> hit = cache_.Lookup(canonical.key)) {
    answer.cache_hit = true;
    answer.merged.ci = hit->ci;
    answer.merged.used_pre = hit->used_pre;
    answer.merged.degraded = false;  // degraded answers are never cached
    answer.merged.shards_total = static_cast<uint32_t>(replicas_.size());
    answer.merged.shards_answered = static_cast<uint32_t>(replicas_.size());
    answer.exec_seconds = timer.ElapsedSeconds();
    return answer;
  }
  const uint64_t generation = cache_.generation();
  std::vector<std::optional<ShardPartial>> partials =
      Scatter(canonical.query, canonical.seed);
  MergeOptions merge;
  merge.mode = options_.mode;
  merge.confidence_level = options_.confidence_level;
  merge.total_rows = total_rows_;
  merge.degraded_penalty = options_.degraded_penalty;
  merge.allow_degraded = options_.allow_degraded;
  AQPP_ASSIGN_OR_RETURN(answer.merged,
                        MergePartials(canonical.query, partials, merge));
  if (answer.merged.degraded) {
    metrics.degraded->Increment();
  } else {
    ApproximateResult result;
    result.ci = answer.merged.ci;
    result.used_pre = answer.merged.used_pre;
    cache_.InsertIfCurrent(canonical.key, /*template_id=*/-1, result,
                           generation);
  }
  answer.exec_seconds = timer.ElapsedSeconds();
  return answer;
}

}  // namespace shard
}  // namespace aqpp
