// Fused filter + aggregate scans built on the selection kernels.
//
// A scan evaluates a conjunction of range conditions and reduces the
// selected rows' values to COUNT / SUM / sum-of-squares moments / MIN / MAX
// in one pass, chunk by chunk, with the deterministic shard/lane layout
// described in kernels.h. Per chunk the aggregation switches adaptively
// between bitmap(word-mask)-driven and selection-vector-driven accumulation
// based on the chunk's observed selectivity; both produce the same bits
// because rows always feed lane (row % kAccumulatorLanes) in row order.

#ifndef AQPP_KERNELS_SCAN_H_
#define AQPP_KERNELS_SCAN_H_

#include <limits>

#include "common/parallel.h"
#include "kernels/kernels.h"

namespace aqpp {
namespace kernels {

// Which reductions a scan computes. COUNT is always available for free (it
// falls out of the selection masks); the other profiles add fused value
// accumulation.
enum class ScanProfile {
  kCount,    // predicate count only; no values needed
  kSum,      // count + sum
  kMoments,  // count + sum + sum of squares (for AVG/VAR)
  kMinMax,   // count + min + max
  kFull,     // everything (equivalence testing / ablation)
};

// How chunk selections are produced / consumed. All strategies share the
// accumulation kernels and therefore produce bit-identical results (see
// docs/kernels.md for the one ±0.0 caveat).
enum class ScanStrategy {
  // Per chunk: word-mask kernels, then bitmap-driven accumulation for dense
  // chunks and selection-vector-driven accumulation for sparse ones
  // (threshold: selected * 8 < chunk rows). The default.
  kAdaptive,
  // Force bitmap(word-mask)-driven accumulation for every non-empty chunk.
  kMasked,
  // Force selection-vector-driven accumulation for every non-empty chunk.
  kSelectionVector,
  // Row-at-a-time predicate evaluation (no vectorized mask kernels) feeding
  // the shared accumulators: the scalar oracle for equivalence tests.
  kScalarRows,
};

struct ScanOptions {
  ScanStrategy strategy = ScanStrategy::kAdaptive;
  // Pool for shard dispatch (process-global pool when null).
  ThreadPool* pool = nullptr;
  // Sequential shard processing when false (results are identical either
  // way; this is a scheduling knob, not a semantics knob).
  bool parallel = true;
};

// Scan results. Fields not requested by the profile keep their defaults.
struct ScanStats {
  double count = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  double mean() const { return count > 0 ? sum / count : 0.0; }
  // Population variance from the moment sums, clamped at zero.
  double variance_population() const {
    if (count <= 0) return 0.0;
    double m = sum / count;
    double v = sum_sq / count - m * m;
    return v > 0 ? v : 0.0;
  }
};

// The exact-answer contract every exact scan path shares
// (ExactExecutor::Execute, ExecuteQueryOnSource, the shard worker's exact
// partials): which profile an aggregate function scans with, and how the
// resulting stats become its answer.

// Scan profile `func` needs: COUNT -> kCount, SUM/AVG -> kSum,
// VAR -> kMoments, MIN/MAX -> kMinMax.
ScanProfile ProfileFor(AggregateFunction func);

// Answer of `func` over a predicate that is empty by construction
// (RangePredicate::IsEmpty), reached without touching data: 0 for
// SUM/COUNT/AVG/VAR, FailedPrecondition for MIN/MAX.
Result<double> EmptyPredicateAnswer(AggregateFunction func);

// Answer of `func` from a scan's stats. AVG/VAR of an empty selection are
// 0; MIN/MAX of an empty selection are FailedPrecondition.
Result<double> AnswerFromStats(AggregateFunction func, const ScanStats& stats);

// Fused filter + aggregate over all rows of `table`. `values` supplies the
// aggregation input (ignored for ScanProfile::kCount; required otherwise).
// `stats`, when given, enables the bind-time full-range/disjoint condition
// elision.
Result<ScanStats> ScanAggregate(const Table& table,
                                const std::vector<RangeCondition>& conds,
                                ValueRef values, ScanProfile profile,
                                const ScanOptions& opts = {},
                                ColumnStatsCache* stats = nullptr);

// Same, with an already-bound predicate (n = number of rows the bound spans
// cover). The bound predicate must outlive the call.
ScanStats ScanAggregateBound(const BoundPredicate& pred, size_t n,
                             ValueRef values, ScanProfile profile,
                             const ScanOptions& opts = {});

// Number of rows matching `conds` (ScanProfile::kCount as a size_t).
Result<size_t> CountMatching(const Table& table,
                             const std::vector<RangeCondition>& conds,
                             const ScanOptions& opts = {},
                             ColumnStatsCache* stats = nullptr);

}  // namespace kernels
}  // namespace aqpp

#endif  // AQPP_KERNELS_SCAN_H_
