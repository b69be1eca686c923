// Exact (full-scan) query execution.
//
// This is the ground-truth path: benchmarks use it to compute true answers
// and relative errors, and the AggPre baseline uses it when a query cannot
// be answered from the cube. Scans run on the vectorized kernel layer
// (src/kernels/), which shards the table on the fixed kernels::kShardRows
// grid and merges shard results in shard-index order, so answers are
// bit-identical run-to-run and across thread counts. The row-at-a-time
// reference these answers are tested against lives in
// tests/exact_scan_oracle.h.

#ifndef AQPP_EXEC_EXECUTOR_H_
#define AQPP_EXEC_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "expr/query.h"
#include "kernels/scan.h"
#include "storage/table.h"

namespace aqpp {

struct GroupResult {
  GroupKey key;
  double value = 0.0;
};

struct ExecutorOptions {
  // Pool for shard dispatch (process-global pool when null).
  ThreadPool* pool = nullptr;
};

class ExactExecutor {
 public:
  explicit ExactExecutor(const Table* table, ExecutorOptions options = {})
      : table_(table), options_(options), stats_(table) {}

  // Evaluates a scalar (non-group-by) query. COUNT ignores agg_column.
  // VAR is the population variance of the selected values. MIN/MAX over an
  // empty selection is an error; SUM/COUNT return 0, AVG returns 0.
  Result<double> Execute(const RangeQuery& query) const;

  // Evaluates a group-by query; groups with no matching rows are absent.
  // Results are sorted by key for deterministic output.
  Result<std::vector<GroupResult>> ExecuteGroupBy(const RangeQuery& query) const;

  // Number of rows matching the predicate.
  Result<size_t> CountMatching(const RangePredicate& predicate) const;

  // Fraction of rows matching the predicate.
  Result<double> Selectivity(const RangePredicate& predicate) const;

  const ExecutorOptions& options() const { return options_; }

 private:
  const Table* table_;
  ExecutorOptions options_;
  // Lazily built per-column min/max for bind-time full-range elision;
  // thread-safe, shared across queries against the same table.
  mutable kernels::ColumnStatsCache stats_;
};

}  // namespace aqpp

#endif  // AQPP_EXEC_EXECUTOR_H_
