// A shard worker: one AqppEngine over one row-range shard, answering
// PARTIAL requests with the three partial views the coordinator knows how
// to merge (src/shard/partial.h).
//
// Build paths:
//   * Build(table, ...)        — in-memory shard slice (tests, local groups)
//   * BuildFromSlab(path, ...) — a table_pack shard slab; the slab is
//     materialized and the cube + reservoir are built from the same one-pass
//     streaming builder the single-engine out-of-core path uses.
//
// Both paths build identical state from identical data: the BP-Cube scheme
// is equal-depth over the template's condition columns (the paper's P_eq)
// with the cut budget spread evenly across dimensions, the cube and sample
// come from BuildCubeAndSampleFromSource, and the engine adopts them via
// AqppEngine::AdoptPrepared. The per-shard sample seed must come from
// ShardSeed(base, shard_index) so replicas of the same shard draw the same
// reservoir — that is what makes replica answers interchangeable bits.

#ifndef AQPP_SHARD_WORKER_H_
#define AQPP_SHARD_WORKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cancellation.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "shard/partial.h"
#include "storage/table.h"

namespace aqpp {
namespace shard {

struct ShardWorkerOptions {
  // Reservoir rows drawn from this shard (one stratum of the global
  // stratified-by-shard sample).
  size_t sample_size = 4096;
  // BP-Cube cell budget for this shard; cuts per dimension are
  // max(2, floor(budget^(1/d))). 0 disables the cube (plain-AQP shard).
  size_t cube_budget = 1024;
  double confidence_level = 0.95;
  // Base seed; the shard's sample RNG is seeded with
  // ShardSeed(base_seed, shard_index).
  uint64_t base_seed = 42;
  // Synopsis kind the shard engine estimates with ("" = the default
  // "reservoir").
  // PARTIAL requests carrying a different kind are rejected, so coordinator
  // and workers can never silently disagree on the estimator.
  std::string synopsis;
};

// Per-condition-column value range, reported over SHARDINFO so the
// coordinator can canonicalize queries against the merged global domain.
struct ColumnDomain {
  size_t column = 0;
  int64_t min = 0;
  int64_t max = 0;
};

class ShardWorker {
 public:
  static Result<std::unique_ptr<ShardWorker>> Build(
      std::shared_ptr<Table> table, const QueryTemplate& tmpl,
      uint32_t shard_index, uint32_t num_shards, uint64_t row_begin,
      const ShardWorkerOptions& options);

  static Result<std::unique_ptr<ShardWorker>> BuildFromSlab(
      const std::string& slab_path, const QueryTemplate& tmpl,
      uint32_t shard_index, uint32_t num_shards, uint64_t row_begin,
      const ShardWorkerOptions& options);

  // Computes the requested partial views for a canonical scalar query: a
  // PartialBatch of one. Deterministic: a pure function of (shard data,
  // query, wants, seed).
  Result<ShardPartial> Partial(const RangeQuery& query,
                               const PartialWants& wants, uint64_t seed,
                               const CancellationToken* cancel = nullptr) const;

  // One member of a fused PARTIAL batch; mirrors Partial's arguments.
  struct PartialRequest {
    RangeQuery query;
    PartialWants wants;
    uint64_t seed = 0;
  };

  // The one partial path: one pass over the shard's block grid evaluates
  // every member's exact view, and one pass over the sample evaluates every
  // member's predicate mask (shared by the sample and engine views).
  // results[i] does not depend on the other members — it is bit-identical
  // to a batch of requests[i] alone, including error statuses — and one
  // member's failure never affects its siblings.
  std::vector<Result<ShardPartial>> PartialBatch(
      const std::vector<PartialRequest>& requests,
      const CancellationToken* cancel = nullptr) const;

  // Enables delta-only streaming ingest on this worker: appended batches are
  // stage-validated and committed to an exact in-memory delta that is folded
  // into the *engine* partial view (SUM/COUNT). The exact and sample views
  // keep answering from base data — their wire invariants (block count ==
  // ceil(rows / kShardRows), population_rows == rows) pin them to the
  // build-time row range — so the absorber never runs here (background is
  // forced off; do not call AbsorbNow on the returned manager) and the
  // prepared state stays at the build generation until a rebuild. Replicas
  // fed identical batch sequences stay interchangeable bits.
  Status EnableIngest(IngestOptions options = {});
  // Null until EnableIngest; internally synchronized (Append is safe under
  // concurrent Partial traffic).
  IngestManager* ingest() const { return ingest_.get(); }
  // Committed ingest generation (0 when ingest is disabled or idle).
  uint64_t ingest_generation() const;

  uint32_t shard_index() const { return shard_index_; }
  uint32_t num_shards() const { return num_shards_; }
  uint64_t row_begin() const { return row_begin_; }
  uint64_t rows() const { return table_->num_rows(); }
  uint64_t sample_rows() const { return engine_->sample().size(); }
  const QueryTemplate& query_template() const { return template_; }
  const Table& table() const { return *table_; }
  const AqppEngine& engine() const { return *engine_; }
  // Observed min/max per template condition column on this shard.
  const std::vector<ColumnDomain>& domains() const { return domains_; }

 private:
  ShardWorker() = default;

  // Moments accumulation under the member's sample-row mask.
  Status ComputeSampleWithMask(const RangeQuery& query,
                               const std::vector<uint8_t>& mask,
                               ShardPartial* out) const;
  Status ComputeEngine(const RangeQuery& query, uint64_t seed,
                       const CancellationToken* cancel,
                       const std::vector<uint8_t>* query_mask,
                       ShardPartial* out) const;

  std::shared_ptr<Table> table_;
  std::unique_ptr<AqppEngine> engine_;
  std::unique_ptr<IngestManager> ingest_;
  QueryTemplate template_;
  std::vector<ColumnDomain> domains_;
  uint32_t shard_index_ = 0;
  uint32_t num_shards_ = 1;
  uint64_t row_begin_ = 0;
};

}  // namespace shard
}  // namespace aqpp

#endif  // AQPP_SHARD_WORKER_H_
