#include "exec/executor.h"

#include <algorithm>
#include <limits>

#include "common/timer.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"

namespace aqpp {

namespace {

// Validates that all condition and group-by columns are ordinal and in range.
Status ValidateQuery(const Table& table, const RangeQuery& query) {
  if (query.func != AggregateFunction::kCount &&
      query.agg_column >= table.num_columns()) {
    return Status::InvalidArgument("aggregate column out of range");
  }
  for (const auto& c : query.predicate.conditions()) {
    if (c.column >= table.num_columns()) {
      return Status::InvalidArgument("condition column out of range");
    }
    if (table.column(c.column).type() == DataType::kDouble) {
      return Status::InvalidArgument(
          "condition column '" + table.schema().column(c.column).name +
          "' must be ordinal (INT64 or STRING)");
    }
  }
  for (size_t g : query.group_by) {
    if (g >= table.num_columns()) {
      return Status::InvalidArgument("group-by column out of range");
    }
    if (table.column(g).type() == DataType::kDouble) {
      return Status::InvalidArgument("group-by column must be ordinal");
    }
  }
  return Status::OK();
}

struct ScanAccumulator {
  RunningMoments moments;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Merge(const ScanAccumulator& other) {
    moments.Merge(other.moments);
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
};

// Full-table scans are the expensive fallback the approximate paths exist to
// avoid; counting them (and their latency) makes accidental exact-path
// traffic visible in the exposition.
struct ScanMetrics {
  obs::Counter* scans;
  obs::Histogram* seconds;
  static const ScanMetrics& Get() {
    static const ScanMetrics m = {
        obs::Registry::Global().GetCounter(
            "aqpp_exact_scans_total", "",
            "Full-table exact aggregation scans executed."),
        obs::Registry::Global().GetHistogram(
            "aqpp_exact_scan_seconds", "", {},
            "Wall-clock seconds per full-table exact scan."),
    };
    return m;
  }
};

}  // namespace

Result<double> ExactExecutor::Execute(const RangeQuery& query) const {
  AQPP_RETURN_NOT_OK(ValidateQuery(*table_, query));
  if (query.predicate.IsEmpty()) {
    return kernels::EmptyPredicateAnswer(query.func);
  }
  const ScanMetrics& metrics = ScanMetrics::Get();
  metrics.scans->Increment();
  Timer timer;
  kernels::ValueRef values;
  if (query.func != AggregateFunction::kCount) {
    values = kernels::ValueRef::FromColumn(table_->column(query.agg_column));
  }
  kernels::ScanOptions opts;
  opts.pool = options_.pool;
  Result<kernels::ScanStats> stats = kernels::ScanAggregate(
      *table_, query.predicate.conditions(), values,
      kernels::ProfileFor(query.func), opts, &stats_);
  metrics.seconds->Observe(timer.ElapsedSeconds());
  AQPP_RETURN_NOT_OK(stats.status());
  return kernels::AnswerFromStats(query.func, *stats);
}

Result<std::vector<GroupResult>> ExactExecutor::ExecuteGroupBy(
    const RangeQuery& query) const {
  AQPP_RETURN_NOT_OK(ValidateQuery(*table_, query));
  if (query.group_by.empty()) {
    return Status::InvalidArgument("ExecuteGroupBy requires group-by columns");
  }
  const size_t n = table_->num_rows();
  const bool needs_value = query.func != AggregateFunction::kCount;
  const Column* agg = needs_value ? &table_->column(query.agg_column) : nullptr;

  std::unordered_map<GroupKey, ScanAccumulator, GroupKeyHash> groups;
  if (!query.predicate.IsEmpty() && n > 0) {
    // Group-by columns as raw ordinal spans (validated ordinal above).
    std::vector<const int64_t*> group_data(query.group_by.size());
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      group_data[g] = table_->column(query.group_by[g]).Int64Data().data();
    }
    AQPP_ASSIGN_OR_RETURN(
        kernels::BoundPredicate pred,
        kernels::BindConditions(*table_, query.predicate.conditions(),
                                &stats_));
    GroupKey key;
    key.values.resize(query.group_by.size());
    // Chunked scan: the predicate kernels produce each chunk's selection,
    // then selected rows are folded into their group accumulators in row
    // order (same order as the old row loop, so results are unchanged).
    alignas(64) int64_t mask[kernels::kChunkRows];
    alignas(64) uint32_t sel[kernels::kChunkRows];
    for (size_t base = 0; base < n; base += kernels::kChunkRows) {
      const size_t stop = std::min(n, base + kernels::kChunkRows);
      size_t k = kernels::EvaluateChunk(pred, base, stop, mask);
      if (k == 0) continue;
      k = kernels::MaskToSelection(mask, stop - base, sel);
      for (size_t j = 0; j < k; ++j) {
        const size_t i = base + sel[j];
        for (size_t g = 0; g < query.group_by.size(); ++g) {
          key.values[g] = group_data[g][i];
        }
        auto& acc = groups[key];
        double x = needs_value ? agg->GetDouble(i) : 1.0;
        acc.moments.Add(x);
        acc.min = std::min(acc.min, x);
        acc.max = std::max(acc.max, x);
      }
    }
  }

  std::vector<GroupResult> out;
  out.reserve(groups.size());
  for (auto& [key, acc] : groups) {
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

Result<size_t> ExactExecutor::CountMatching(
    const RangePredicate& predicate) const {
  // COUNT, Selectivity, and Execute(kCount) all funnel through the same
  // kernel entry point instead of three hand-rolled predicate scans.
  RangeQuery q;
  q.func = AggregateFunction::kCount;
  q.predicate = predicate;
  AQPP_ASSIGN_OR_RETURN(double count, Execute(q));
  return static_cast<size_t>(count);
}

Result<double> ExactExecutor::Selectivity(
    const RangePredicate& predicate) const {
  if (table_->num_rows() == 0) return 0.0;
  AQPP_ASSIGN_OR_RETURN(size_t count, CountMatching(predicate));
  return static_cast<double>(count) / static_cast<double>(table_->num_rows());
}

}  // namespace aqpp
