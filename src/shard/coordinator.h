// ShardCoordinator: the merging front of the scatter-gather tier.
//
// The coordinator owns no data. It learns the topology over SHARDINFO
// (per-shard row ranges + condition-column domains), canonicalizes each
// query against the merged global domain with the same QueryCanonicalizer
// the single-engine service uses (same keys, same derived seeds), scatters
// PARTIAL requests to one replica per shard under a per-shard recv
// deadline, and folds the partials in fixed shard-index order with
// MergePartials — so the merged answer is a pure function of (shard data,
// canonical query) regardless of worker count or arrival order.
//
// Replica fan-out: each shard may have R interchangeable replicas (same
// slab, same ShardSeed => same reservoir bits). The replica tried first is
// a deterministic function of (coordinator seed, canonical query seed,
// shard index); on failure or timeout the others are tried in rotation.
// Only when every replica of a shard fails does the merge degrade: the
// answer is extrapolated, its CI widened, flagged `degraded`, and — by
// contract, enforced here — never inserted into the result cache.
//
// Connections: the coordinator keeps a small pool of idle connections per
// replica. A scatter runs on the calling thread: it takes one connection
// per shard, writes every PARTIAL line, then reads the replies in shard
// order, so the workers compute concurrently while it waits on the first.
#ifndef AQPP_SHARD_COORDINATOR_H_
#define AQPP_SHARD_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/result_cache.h"
#include "shard/partial.h"
#include "storage/table.h"

namespace aqpp {
namespace shard {

// Idle connections kept per replica. A connection is parked only after a
// complete reply; past this many it is closed instead. Well below a
// worker's kMaxConnections (64), so several coordinators can share a fleet.
inline constexpr size_t kIdleConnectionsPerReplica = 8;

struct ReplicaEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

struct CoordinatorOptions {
  // Per-attempt recv deadline for SHARDINFO / PARTIAL / INGEST calls,
  // counted from the request's send. A replica that blows this deadline
  // counts as failed and the next replica is tried.
  double shard_timeout_seconds = 2.0;
  // Shards slower than this get a straggler warning in the log.
  double straggler_seconds = 0.5;
  // Coordinator-level seed folded into the replica pick.
  uint64_t seed = 42;
  // Which partial view the merge runs on (the matching `want` is requested).
  MergeMode mode = MergeMode::kSample;
  double confidence_level = 0.95;
  double degraded_penalty = 4.0;
  // When false a missing shard fails the query instead of degrading it.
  bool allow_degraded = true;
  size_t cache_capacity = 1024;
};

// Acknowledgment of one ingest batch forwarded through the shard tier.
struct IngestAck {
  uint64_t appended = 0;
  // Highest committed ingest generation acked by the target shard's
  // replicas (the freshness token the coordinator invalidates on).
  uint64_t generation = 0;
  uint64_t delta_rows = 0;
  uint64_t total_rows = 0;
  uint32_t replicas_acked = 0;
};

struct CoordinatorAnswer {
  MergedAnswer merged;
  bool cache_hit = false;
  std::string cache_key;
  // The canonical execution seed (shipped to every shard).
  uint64_t seed = 0;
  double exec_seconds = 0;
};

class ShardCoordinator {
 public:
  // `replicas[i]` lists the interchangeable endpoints serving shard i.
  explicit ShardCoordinator(std::vector<std::vector<ReplicaEndpoint>> replicas,
                            CoordinatorOptions options = {});

  // SHARDINFO handshake: contacts each shard (first reachable replica),
  // validates that shard indices/counts/row ranges form one contiguous
  // table, merges the per-shard condition-column domains into the global
  // domain, and builds the canonicalizer. Must succeed before Query().
  // With allow_degraded, shards unreachable at connect are tolerated (at
  // least one must answer): queries start out degraded, and with the total
  // row count unknown the merge imputes the missing mass from the covered
  // mean until the shard returns.
  Status Connect();

  // Canonicalize -> cache lookup -> scatter -> merge -> (cache insert unless
  // degraded). Thread-safe after Connect().
  Result<CoordinatorAnswer> Query(const RangeQuery& query);

  // Appends `batch` through the shard tier. Row-range sharding makes ingest
  // an append at the tail: the batch is forwarded to every replica of the
  // last shard (replicas must stay interchangeable bits, so every one of
  // them must ack). When the acked generation moves past the last one seen,
  // the result cache is invalidated so the next query re-scatters and its
  // engine merge folds the new rows. A replica failing after a sibling
  // acked is an error — those replicas may have diverged and should be
  // drained or rebuilt before failover answers are trusted.
  Result<IngestAck> Ingest(const Table& batch);
  // Same, forwarding an already-encoded wire payload verbatim (what the
  // coordinator server receives; the coordinator owns no schema to decode
  // against — workers validate).
  Result<IngestAck> IngestRaw(const std::string& payload);
  // Highest ingest generation acked through this coordinator.
  uint64_t ingest_generation() const { return ingest_generation_.load(); }

  // Raw scatter of an already-canonical query (gate testing and chaos
  // drills): no cache, no canonicalization; `partials[i]` is shard i or
  // nullopt if every replica failed. Failover runs in rounds over the
  // shards still missing: each sends to its next replica, then all are
  // read. Thread-safe after Connect().
  std::vector<std::optional<ShardPartial>> Scatter(const RangeQuery& query,
                                                   uint64_t seed) const;

  size_t num_shards() const { return replicas_.size(); }
  uint64_t total_rows() const { return total_rows_; }
  bool connected() const { return connected_; }
  ResultCacheStats cache_stats() const { return cache_.stats(); }
  const CoordinatorOptions& options() const { return options_; }

 private:
  struct ShardTopology {
    uint64_t rows = 0;
    uint64_t row_begin = 0;
    uint64_t sample_rows = 0;
  };

  // Opens a connection with the recv deadline set.
  Result<ServiceClient> Open(const ReplicaEndpoint& endpoint) const;
  // An idle pooled connection to replica `replica` of shard `shard` (idle
  // ones the peer closed are dropped), or, when `fresh` or none is idle, a
  // new one. `*reused` tells which.
  Result<ServiceClient> Acquire(size_t shard, size_t replica, bool fresh,
                                bool* reused) const;
  // Parks `client` in its replica's pool, or closes it if the pool is full.
  // Only a connection that just read a complete reply may come back: after
  // an error or a timeout a late reply would desynchronize the protocol.
  void Release(size_t shard, size_t replica, ServiceClient client) const;
  // Reads shard `shard`'s PARTIAL reply from `client` within what is left
  // of the deadline counted from `sent`, parks the connection on a complete
  // reply, and checks that the partial is the one asked for.
  Result<ShardPartial> Collect(uint32_t shard, size_t replica,
                               ServiceClient client, const Timer& sent) const;

  std::vector<std::vector<ReplicaEndpoint>> replicas_;
  CoordinatorOptions options_;
  PartialWants wants_;
  bool connected_ = false;
  uint64_t total_rows_ = 0;
  std::vector<ShardTopology> topology_;
  std::optional<QueryCanonicalizer> canonicalizer_;
  ResultCache cache_;
  std::atomic<uint64_t> ingest_generation_{0};
  // aqpp_coord_shard_seconds{shard="i"}, looked up once.
  std::vector<obs::Histogram*> shard_latency_;
  mutable std::mutex pool_mu_;
  // idle_[shard][replica]: connections parked after a complete reply.
  mutable std::vector<std::vector<std::vector<ServiceClient>>> idle_;
};

}  // namespace shard
}  // namespace aqpp

#endif  // AQPP_SHARD_COORDINATOR_H_
