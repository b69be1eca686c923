// Exact-scan oracle: the row-at-a-time ground truth the kernel scans of
// exec/executor.h replaced. Every row is tested condition by condition
// through the column accessors, and matches fold into Welford moments plus
// min/max. Scalar scans shard on the same fixed kernels::kShardRows grid
// and merge shard partials in shard-index order, so the oracle is itself
// bit-identical at any thread count. Tests hold ExactExecutor to it (equal
// within rounding for scalar answers, bit-identical for group-by);
// bench_kernels times it as the scalar baseline. LaneOrderedSum spells out
// the kernels' lane-order SUM contract, which kernel sums match bit for
// bit. Not linked into any production target.
//
// Queries must already be valid for the table (ExactExecutor validates
// columns before scanning; the oracle does not).

#ifndef AQPP_TESTS_EXACT_SCAN_ORACLE_H_
#define AQPP_TESTS_EXACT_SCAN_ORACLE_H_

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "exec/executor.h"
#include "expr/query.h"
#include "kernels/kernels.h"
#include "stats/descriptive.h"
#include "storage/table.h"

namespace aqpp {
namespace oracle {

struct ScanAccumulator {
  RunningMoments moments;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double x) {
    moments.Add(x);
    min = std::min(min, x);
    max = std::max(max, x);
  }
  void Merge(const ScanAccumulator& other) {
    moments.Merge(other.moments);
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
};

// True when row `i` satisfies every condition of `query`.
inline bool RowMatches(const Table& table, const RangeQuery& query, size_t i) {
  for (const auto& c : query.predicate.conditions()) {
    const int64_t v = table.column(c.column).GetInt64(i);
    if (v < c.lo || v > c.hi) return false;
  }
  return true;
}

// The aggregated input of row `i` (1 for COUNT).
inline double RowValue(const Table& table, const RangeQuery& query,
                       size_t i) {
  return query.func == AggregateFunction::kCount
             ? 1.0
             : table.column(query.agg_column).GetDouble(i);
}

// Scalar answer of `query`: COUNT/SUM/AVG/VAR of an empty selection are 0,
// MIN/MAX of an empty selection (or an empty predicate) are
// FailedPrecondition, with ExactExecutor's messages.
inline Result<double> ExactScan(const Table& table, const RangeQuery& query,
                                ThreadPool* pool = nullptr) {
  if (query.predicate.IsEmpty()) {
    if (query.func == AggregateFunction::kMin ||
        query.func == AggregateFunction::kMax) {
      return Status::FailedPrecondition("MIN/MAX over empty selection");
    }
    return 0.0;
  }
  const size_t n = table.num_rows();
  const size_t num_shards =
      n == 0 ? 0 : (n + kernels::kShardRows - 1) / kernels::kShardRows;
  std::vector<ScanAccumulator> shards(num_shards);
  auto scan_shard = [&](size_t s) {
    const size_t begin = s * kernels::kShardRows;
    const size_t end = std::min(n, begin + kernels::kShardRows);
    for (size_t i = begin; i < end; ++i) {
      if (RowMatches(table, query, i)) {
        shards[s].Add(RowValue(table, query, i));
      }
    }
  };
  ThreadPool& threads = pool != nullptr ? *pool : ThreadPool::Global();
  if (num_shards > 1 && threads.num_threads() > 1) {
    ParallelForEach(num_shards, scan_shard, &threads);
  } else {
    for (size_t s = 0; s < num_shards; ++s) scan_shard(s);
  }
  ScanAccumulator total;
  for (const ScanAccumulator& s : shards) total.Merge(s);

  switch (query.func) {
    case AggregateFunction::kSum:
      return total.moments.sum();
    case AggregateFunction::kCount:
      return total.moments.count();
    case AggregateFunction::kAvg:
      return total.moments.mean();
    case AggregateFunction::kVar:
      return total.moments.variance_population();
    case AggregateFunction::kMin:
      if (total.moments.count() == 0) {
        return Status::FailedPrecondition("MIN over empty selection");
      }
      return total.min;
    case AggregateFunction::kMax:
      if (total.moments.count() == 0) {
        return Status::FailedPrecondition("MAX over empty selection");
      }
      return total.max;
  }
  return Status::Internal("unreachable");
}

// The kernel SUM contract in scalar form: within each kShardRows shard,
// matching row i adds into lane i % kAccumulatorLanes in row order; shard
// lanes merge into the totals in shard order; the totals reduce in lane
// order. Kernel SUM scans must reproduce this bit for bit.
inline double LaneOrderedSum(const Table& table, const RangeQuery& query) {
  constexpr size_t kLanes = kernels::kAccumulatorLanes;
  double total[kLanes] = {};
  if (!query.predicate.IsEmpty()) {
    for (size_t begin = 0; begin < table.num_rows();
         begin += kernels::kShardRows) {
      const size_t end =
          std::min(table.num_rows(), begin + kernels::kShardRows);
      double lanes[kLanes] = {};
      for (size_t i = begin; i < end; ++i) {
        if (RowMatches(table, query, i)) {
          lanes[i % kLanes] += RowValue(table, query, i);
        }
      }
      for (size_t l = 0; l < kLanes; ++l) total[l] += lanes[l];
    }
  }
  double sum = 0.0;
  for (size_t l = 0; l < kLanes; ++l) sum += total[l];
  return sum;
}

// Group-by answer of `query`: one sequential pass in row order, groups with
// no matching rows absent, sorted by key.
inline std::vector<GroupResult> ExactGroupBy(const Table& table,
                                             const RangeQuery& query) {
  std::unordered_map<GroupKey, ScanAccumulator, GroupKeyHash> groups;
  if (!query.predicate.IsEmpty()) {
    GroupKey key;
    key.values.resize(query.group_by.size());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      if (!RowMatches(table, query, i)) continue;
      for (size_t g = 0; g < query.group_by.size(); ++g) {
        key.values[g] = table.column(query.group_by[g]).GetInt64(i);
      }
      groups[key].Add(RowValue(table, query, i));
    }
  }
  std::vector<GroupResult> out;
  out.reserve(groups.size());
  for (const auto& [key, acc] : groups) {
    GroupResult r;
    r.key = key;
    switch (query.func) {
      case AggregateFunction::kSum:
        r.value = acc.moments.sum();
        break;
      case AggregateFunction::kCount:
        r.value = acc.moments.count();
        break;
      case AggregateFunction::kAvg:
        r.value = acc.moments.mean();
        break;
      case AggregateFunction::kVar:
        r.value = acc.moments.variance_population();
        break;
      case AggregateFunction::kMin:
        r.value = acc.min;
        break;
      case AggregateFunction::kMax:
        r.value = acc.max;
        break;
    }
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const GroupResult& a, const GroupResult& b) {
              return a.key.values < b.key.values;
            });
  return out;
}

}  // namespace oracle
}  // namespace aqpp

#endif  // AQPP_TESTS_EXACT_SCAN_ORACLE_H_
