#include "kernels/source_scan.h"

#include <algorithm>
#include <atomic>

#include "kernels/scan_internal.h"
#include "obs/metrics.h"

namespace aqpp {
namespace kernels {

// One extent == one shard: the grid alignment the whole bit-identity
// argument rests on.
static_assert(kExtentRows == kShardRows,
              "extent size must equal the scan shard size");

namespace {

struct SourceCond {
  size_t column;
  int64_t lo;
  int64_t hi;
};

struct PruneMetrics {
  obs::Counter* skipped;
  static const PruneMetrics& Get() {
    static const PruneMetrics m = {
        obs::Registry::Global().GetCounter(
            "aqpp_extents_skipped_total", "",
            "Extents skipped by zone-map pruning (never decoded)."),
    };
    return m;
  }
};

}  // namespace

Result<SourceScanResult> ScanAggregateSource(ColumnSource& source,
                                             const std::vector<RangeCondition>& conds,
                                             int value_column,
                                             ScanProfile profile,
                                             const SourceScanOptions& opts) {
  const size_t num_cols = source.schema().num_columns();
  if (profile != ScanProfile::kCount) {
    if (value_column < 0 || static_cast<size_t>(value_column) >= num_cols) {
      return Status::InvalidArgument("scan profile requires a value column");
    }
  }

  SourceScanResult result;
  result.extents_total = source.num_extents();

  // Source-wide bind: the same validation and full-range/disjoint elision
  // BindConditions applies, against the source's exact column min/max.
  bool never_matches = false;
  std::vector<SourceCond> bound;
  bound.reserve(conds.size());
  for (const auto& c : conds) {
    if (c.column >= num_cols) {
      return Status::InvalidArgument("condition references missing column");
    }
    if (source.schema().column(c.column).type == DataType::kDouble) {
      return Status::InvalidArgument(
          "range conditions require an ordinal column; '" +
          source.schema().column(c.column).name + "' is DOUBLE");
    }
    ConditionClass cls = ClassifyCondition(c.lo, c.hi, nullptr);
    if (cls == ConditionClass::kEffective) {
      ColumnStatsCache::MinMax mm;
      if (source.ColumnMinMax(c.column, &mm.min, &mm.max)) {
        cls = ClassifyCondition(c.lo, c.hi, &mm);
      }
    }
    switch (cls) {
      case ConditionClass::kNeverMatches:
        never_matches = true;
        break;
      case ConditionClass::kFullRange:
        break;
      case ConditionClass::kEffective:
        bound.push_back({c.column, c.lo, c.hi});
        break;
    }
  }
  if (never_matches || source.num_rows() == 0) {
    // Same zero result the in-memory path returns without touching data.
    result.extents_skipped = result.extents_total;
    PruneMetrics::Get().skipped->Increment(result.extents_skipped);
    return result;
  }

  const size_t num_extents = source.num_extents();
  const bool value_is_double =
      profile == ScanProfile::kCount ||
      source.schema().column(static_cast<size_t>(value_column)).type ==
          DataType::kDouble;

  std::vector<internal::ShardAccum> shards(num_extents);
  std::vector<uint8_t> skipped(num_extents, 0);
  std::vector<Status> errors(num_extents);

  auto run_extent = [&](size_t e) {
    const size_t rows = source.ExtentRows(e);
    // Zone-map pass: decide what this extent needs before pinning anything.
    BoundPredicate pred;
    std::vector<ColumnSource::PinnedColumn> pins;  // keep decodes alive
    pins.reserve(bound.size() + 1);
    for (const SourceCond& c : bound) {
      ColumnStatsCache::MinMax zone;
      const ColumnStatsCache::MinMax* mm =
          opts.zone_map_pruning &&
                  source.ZoneMap(e, c.column, &zone.min, &zone.max)
              ? &zone
              : nullptr;
      switch (ClassifyCondition(c.lo, c.hi, mm)) {
        case ConditionClass::kNeverMatches:
          // Disproved by the zone map: every chunk of this extent would
          // produce an empty selection, and empty chunks never touch the
          // accumulators — so skipping the extent outright is bit-identical
          // to scanning it.
          skipped[e] = 1;
          return;
        case ConditionClass::kFullRange:
          continue;  // every row in this extent passes; drop the mask pass
        case ConditionClass::kEffective:
          break;
      }
      auto pin = source.Pin(e, c.column);
      if (!pin.ok()) {
        errors[e] = pin.status();
        return;
      }
      pred.conds.push_back({pin->ints, c.lo, c.hi});
      pins.push_back(std::move(*pin));
    }
    // COUNT with no surviving conditions never reads values; otherwise pin
    // the aggregation column.
    const double* dbl_values = nullptr;
    const int64_t* i64_values = nullptr;
    if (profile != ScanProfile::kCount) {
      auto pin = source.Pin(e, static_cast<size_t>(value_column));
      if (!pin.ok()) {
        errors[e] = pin.status();
        return;
      }
      dbl_values = pin->dbls;
      i64_values = pin->ints;
      pins.push_back(std::move(*pin));
    }
    if (value_is_double) {
      internal::ScanShard<double>(pred, dbl_values, 0, rows, profile,
                                  opts.strategy, shards[e]);
    } else {
      internal::ScanShard<int64_t>(pred, i64_values, 0, rows, profile,
                                   opts.strategy, shards[e]);
    }
  };

  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::Global();
  if (opts.parallel && num_extents > 1 && pool.num_threads() > 1) {
    ParallelForEach(num_extents, run_extent, &pool);
  } else {
    for (size_t e = 0; e < num_extents; ++e) run_extent(e);
  }
  for (const Status& st : errors) {
    AQPP_RETURN_NOT_OK(st);
  }

  // Shard-index (== extent-index) order merge, same as ScanAggregateBound.
  result.stats = internal::Finalize(shards);
  for (uint8_t s : skipped) result.extents_skipped += s;
  result.extents_scanned = num_extents - result.extents_skipped;
  PruneMetrics::Get().skipped->Increment(result.extents_skipped);
  return result;
}

Result<double> ExecuteQueryOnSource(ColumnSource& source,
                                    const RangeQuery& query,
                                    const SourceScanOptions& opts) {
  if (query.func != AggregateFunction::kCount &&
      query.agg_column >= source.schema().num_columns()) {
    return Status::InvalidArgument("aggregate column out of range");
  }
  if (query.predicate.IsEmpty()) return EmptyPredicateAnswer(query.func);
  const int value_column = query.func == AggregateFunction::kCount
                               ? -1
                               : static_cast<int>(query.agg_column);
  AQPP_ASSIGN_OR_RETURN(
      SourceScanResult r,
      ScanAggregateSource(source, query.predicate.conditions(), value_column,
                          ProfileFor(query.func), opts));
  return AnswerFromStats(query.func, r.stats);
}

}  // namespace kernels
}  // namespace aqpp
