// Shard partials and their deterministic merge — the math of the scatter-
// gather tier.
//
// A shard worker answers a canonical scalar query with up to three partial
// views, and the coordinator folds them in fixed shard-index order so the
// merged answer does not depend on worker count or arrival order:
//
//  * Exact moment partials: one lane-accumulator block (count + 8 sum lanes
//    + 8 sum-of-square lanes) per kernels::kShardRows-aligned block of the
//    shard. Concatenating every shard's blocks in global order and reducing
//    them with the kernel layer's Finalize contract reproduces, bit for bit,
//    the single-table ScanAggregate fold — so merged exact COUNT/SUM/AVG/VAR
//    answers are identical to the single-engine exact executor at 1/2/4/8
//    shards (any partitioning aligned to the kShardRows grid) and at any
//    worker count.
//
//  * Stratified sample partials: each shard is one stratum of a stratified-
//    by-shard estimator (Liang et al., arXiv:2103.15994). The worker reports
//    Welford moments of the three per-row series c_i = match_i,
//    s_i = match_i * A_i, q_i = match_i * A_i^2 over its sample, plus their
//    pairwise sample covariances. The coordinator folds est/var per stratum
//    with the stratified formula of SparseSumCI (synopsis/estimator.h), so
//    merged SUM/COUNT answers agree with that estimator over the
//    concatenated stratified sample up to rounding (it folds the zero rows
//    in closed form; the worker walks them). AVG/VAR come from the merged
//    moment vector by the delta method (ratio / plug-in variance gradients).
//
//  * Engine partials: the shard's own AQP++ difference estimate (cube probe
//    + sample). Estimates of disjoint shard totals are independent, so
//    SUM/COUNT merge as est = sum_h est_h, var = sum_h (half_h / lambda)^2.
//
// Degradation: when a shard stays missing after replica retries, the merge
// extrapolates the covered estimate by total/covered row mass and inflates
// the variance by scale^2 * penalty; the answer is flagged `degraded` and
// must never be cached (coordinator contract, chaos-tested).

#ifndef AQPP_SHARD_PARTIAL_H_
#define AQPP_SHARD_PARTIAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/query.h"
#include "kernels/kernels.h"
#include "service/protocol.h"
#include "stats/confidence.h"

namespace aqpp {
namespace shard {

// Streaming covariance companion to RunningMoments (Welford pair update).
// Feeding (x_i, y_i) in the same order on worker and reference produces
// bit-identical C2, so covariance terms survive the wire deterministically.
class RunningCovariance {
 public:
  void Add(double x, double y);
  double count() const { return n_; }
  // Sample covariance (Bessel-corrected); 0 with fewer than two points.
  double covariance_sample() const;

 private:
  double n_ = 0.0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double c2_ = 0.0;
};

// One kernels::kShardRows block's lane accumulators (the wire image of the
// scan layer's ShardAccum, minus min/max which the shard tier doesn't merge).
struct BlockMoments {
  uint64_t count = 0;
  double sum[kernels::kAccumulatorLanes] = {0};
  double sum_sq[kernels::kAccumulatorLanes] = {0};
};

// One stratum's (== one shard's) sample-side summary for the stratified
// estimator: Welford moments of c/s/q plus pairwise sample covariances.
struct StratumPartial {
  uint64_t sample_rows = 0;      // n_h
  uint64_t population_rows = 0;  // N_h
  double mean_c = 0, mean_s = 0, mean_q = 0;
  double var_c = 0, var_s = 0, var_q = 0;  // sample variances
  double cov_cs = 0, cov_cq = 0, cov_sq = 0;
};

// Which partial views a PARTIAL request asks the worker to compute.
struct PartialWants {
  bool exact = false;   // full-shard moment scan (heavy, bit-exact)
  bool sample = false;  // stratified sample moments (cheap)
  bool engine = false;  // the shard engine's AQP++ difference estimate
};

struct ShardPartial {
  uint32_t shard_index = 0;
  uint32_t num_shards = 0;
  uint64_t rows = 0;  // population rows owned by this shard

  bool has_exact = false;
  std::vector<BlockMoments> blocks;  // one per kShardRows block, in order

  bool has_sample = false;
  StratumPartial stratum;

  bool has_engine = false;
  double engine_estimate = 0;
  double engine_half_width = 0;
  bool engine_used_pre = false;

  double exec_seconds = 0;
};

// ---- Wire encoding ---------------------------------------------------------
//
// PARTIAL requests carry the canonical query as a compact spec:
//   func=SUM agg=10 conds=7:30:90,4:1:25 want=esa seed=123456
// (conds may be absent for a full-table aggregate; `want` is any subset of
// e=exact s=sample a=aqpp-engine). Responses carry the partial as key=value
// fields; doubles are %.17g so every moment round-trips exactly.

struct PartialSpec {
  RangeQuery query;
  PartialWants wants;
  uint64_t seed = 0;
  // Synopsis kind the worker's engine should estimate with ("" = whatever
  // the worker runs, by default "reservoir"). Carried on the wire only when
  // non-empty, so old coordinators and workers interoperate unchanged.
  std::string synopsis_kind;
};

std::string FormatPartialSpec(const PartialSpec& spec);
// Strict inverse: unknown keys, malformed triples, and out-of-range counts
// are InvalidArgument (fuzz-tested; this faces the network).
Result<PartialSpec> ParsePartialSpec(const std::string& text);

// Appends the partial's fields to an OK response.
void EncodePartial(const ShardPartial& partial, Response* response);

// Parses a worker's OK response. Validates structural invariants so a
// truncated moment vector or a shard-count mismatch surfaces as a protocol
// error instead of silently skewing the merge:
//  * shard < shards, shards >= 1;
//  * when exact moments are present, the block count must equal
//    ceil(rows / kernels::kShardRows) and every block must parse fully;
//  * when sample moments are present, population_rows must equal rows.
Result<ShardPartial> ParsePartial(const Response& response);

// ---- Merge -----------------------------------------------------------------

enum class MergeMode {
  kExact,   // fold moment blocks; bit-identical to the single-table scan
  kSample,  // stratified-by-shard estimator fold
  kEngine,  // per-shard AQP++ difference estimates (SUM/COUNT only)
};

struct MergeOptions {
  MergeMode mode = MergeMode::kSample;
  double confidence_level = 0.95;
  // Population rows across all shards (the coordinator knows this from
  // SHARDINFO). Used only when shards are missing, to size the
  // extrapolation; 0 means "assume missing shards match the covered mean".
  uint64_t total_rows = 0;
  // Variance inflation applied to the covered-mass extrapolation when shards
  // are missing. Deliberately conservative: a degraded CI must never read
  // tighter than the full answer's (chaos invariant b).
  double degraded_penalty = 4.0;
  // When false, any missing shard fails the merge instead of degrading.
  bool allow_degraded = true;
};

struct MergedAnswer {
  ConfidenceInterval ci;
  // True when at least one shard was missing and the answer was
  // extrapolated. Degraded answers must never be cached.
  bool degraded = false;
  uint32_t shards_total = 0;
  uint32_t shards_answered = 0;
  // Engine mode: true when any shard's difference estimate used a non-phi
  // precomputed aggregate.
  bool used_pre = false;
};

// Folds the partials in shard-index order (`partials[i]` is shard i; missing
// shards are nullopt). Every present partial must agree on num_shards ==
// partials.size() and carry the view `options.mode` needs.
Result<MergedAnswer> MergePartials(
    const RangeQuery& query,
    const std::vector<std::optional<ShardPartial>>& partials,
    const MergeOptions& options);

}  // namespace shard
}  // namespace aqpp

#endif  // AQPP_SHARD_PARTIAL_H_
