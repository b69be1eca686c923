#include "kernels/scan.h"

#include <algorithm>

#include "kernels/scan_internal.h"

namespace aqpp {
namespace kernels {

ScanProfile ProfileFor(AggregateFunction func) {
  switch (func) {
    case AggregateFunction::kCount:
      return ScanProfile::kCount;
    case AggregateFunction::kSum:
    case AggregateFunction::kAvg:
      return ScanProfile::kSum;
    case AggregateFunction::kVar:
      return ScanProfile::kMoments;
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return ScanProfile::kMinMax;
  }
  return ScanProfile::kCount;
}

Result<double> EmptyPredicateAnswer(AggregateFunction func) {
  if (func == AggregateFunction::kMin || func == AggregateFunction::kMax) {
    return Status::FailedPrecondition("MIN/MAX over empty selection");
  }
  return 0.0;
}

Result<double> AnswerFromStats(AggregateFunction func,
                               const ScanStats& stats) {
  switch (func) {
    case AggregateFunction::kSum:
      return stats.sum;
    case AggregateFunction::kCount:
      return stats.count;
    case AggregateFunction::kAvg:
      return stats.mean();
    case AggregateFunction::kVar:
      return stats.variance_population();
    case AggregateFunction::kMin:
      if (stats.count == 0) {
        return Status::FailedPrecondition("MIN over empty selection");
      }
      return stats.min;
    case AggregateFunction::kMax:
      if (stats.count == 0) {
        return Status::FailedPrecondition("MAX over empty selection");
      }
      return stats.max;
  }
  return Status::Internal("unreachable");
}

ScanStats ScanAggregateBound(const BoundPredicate& pred, size_t n,
                             ValueRef values, ScanProfile profile,
                             const ScanOptions& opts) {
  if (n == 0) return ScanStats{};
  if (pred.never_matches) return ScanStats{};
  const size_t num_shards = (n + kShardRows - 1) / kShardRows;
  std::vector<internal::ShardAccum> shards(num_shards);
  auto run_shard = [&](size_t s) {
    const size_t begin = s * kShardRows;
    const size_t end = std::min(n, begin + kShardRows);
    if (values.dbl != nullptr || profile == ScanProfile::kCount) {
      internal::ScanShard<double>(pred, values.dbl, begin, end, profile,
                                  opts.strategy, shards[s]);
    } else {
      internal::ScanShard<int64_t>(pred, values.i64, begin, end, profile,
                                   opts.strategy, shards[s]);
    }
  };
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::Global();
  if (opts.parallel && num_shards > 1 && pool.num_threads() > 1) {
    ParallelForEach(num_shards, run_shard, &pool);
  } else {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  }
  return internal::Finalize(shards);
}

Result<ScanStats> ScanAggregate(const Table& table,
                                const std::vector<RangeCondition>& conds,
                                ValueRef values, ScanProfile profile,
                                const ScanOptions& opts,
                                ColumnStatsCache* stats) {
  if (profile != ScanProfile::kCount && values.empty()) {
    return Status::InvalidArgument("scan profile requires aggregation values");
  }
  AQPP_ASSIGN_OR_RETURN(BoundPredicate pred,
                        BindConditions(table, conds, stats));
  return ScanAggregateBound(pred, table.num_rows(), values, profile, opts);
}

Result<size_t> CountMatching(const Table& table,
                             const std::vector<RangeCondition>& conds,
                             const ScanOptions& opts,
                             ColumnStatsCache* stats) {
  AQPP_ASSIGN_OR_RETURN(
      ScanStats s,
      ScanAggregate(table, conds, ValueRef{}, ScanProfile::kCount, opts,
                    stats));
  return static_cast<size_t>(s.count);
}

}  // namespace kernels
}  // namespace aqpp
