#include "core/scoring.h"

#include <algorithm>

#include "common/logging.h"

namespace aqpp {

CellIndex::CellIndex(const Table& rows, const PartitionScheme& scheme) {
  num_dims_ = scheme.num_dims();
  const size_t n = rows.num_rows();
  cells_.resize(n * num_dims_);
  for (size_t i = 0; i < num_dims_; ++i) {
    const DimensionPartition& dim = scheme.dim(i);
    const std::vector<int64_t>& values = rows.column(dim.column).Int64Data();
    const auto begin = dim.cuts.begin();
    const auto end = dim.cuts.end();
    const uint32_t sentinel = static_cast<uint32_t>(dim.num_cuts() + 1);
    for (size_t r = 0; r < n; ++r) {
      auto it = std::lower_bound(begin, end, values[r]);
      cells_[r * num_dims_ + i] =
          it == end ? sentinel : static_cast<uint32_t>(it - begin) + 1;
    }
  }
}

BatchCandidateScorer::BatchCandidateScorer(const Sample* sample,
                                           const PartitionScheme* scheme,
                                           double confidence_level,
                                           size_t bootstrap_resamples)
    : sample_(sample),
      scheme_(scheme),
      options_{.confidence_level = confidence_level,
               .bootstrap_resamples = bootstrap_resamples},
      cells_(*sample->rows, *scheme),
      measures_(sample->rows.get()) {
  AQPP_CHECK(sample != nullptr);
  AQPP_CHECK_GT(sample->size(), 0u);
}

BatchCandidateScorer::ActiveSet BatchCandidateScorer::ActiveRows(
    const QueryContext& ctx, const PreAggregate* hull, bool group) const {
  const size_t n = sample_->size();
  const size_t d = cells_.num_dims();
  ActiveSet set;
  set.rows.reserve(n / 4);
  for (size_t i = 0; i < n; ++i) {
    if (ctx.q_mask[i] != 0 || (hull != nullptr && cells_.Contains(i, *hull))) {
      set.rows.push_back(static_cast<uint32_t>(i));
    }
  }
  if (!group) return set;

  // Group by cell tuple, rows ascending within a group — a deterministic
  // order, so scores cannot depend on how the set was built. Fast path:
  // flatten the tuple into the high bits of one uint64 above the row index,
  // so a plain integer sort produces the grouping.
  uint64_t total_cells = 1;
  bool flat_ok = true;
  std::vector<uint64_t> strides(d);
  for (size_t i = 0; i < d; ++i) {
    const uint64_t s = static_cast<uint64_t>(scheme_->dim(i).num_cuts()) + 2;
    strides[i] = s;
    if (total_cells > (uint64_t{1} << 32) / s) {
      flat_ok = false;
      break;
    }
    total_cells *= s;
  }
  if (flat_ok) {
    std::vector<uint64_t> keys(set.rows.size());
    for (size_t k = 0; k < set.rows.size(); ++k) {
      const uint32_t* c = cells_.row(set.rows[k]);
      uint64_t flat = 0;
      for (size_t i = 0; i < d; ++i) flat = flat * strides[i] + c[i];
      keys[k] = (flat << 32) | set.rows[k];
    }
    std::sort(keys.begin(), keys.end());
    for (size_t k = 0; k < keys.size(); ++k) {
      set.rows[k] = static_cast<uint32_t>(keys[k]);
    }
  } else {
    std::sort(set.rows.begin(), set.rows.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t* ca = cells_.row(a);
      const uint32_t* cb = cells_.row(b);
      for (size_t i = 0; i < d; ++i) {
        if (ca[i] != cb[i]) return ca[i] < cb[i];
      }
      return a < b;
    });
  }
  for (size_t k = 0; k < set.rows.size(); ++k) {
    const uint32_t* c = cells_.row(set.rows[k]);
    if (k == 0 ||
        !std::equal(c, c + d, cells_.row(set.rows[k - 1]))) {
      set.starts.push_back(static_cast<uint32_t>(k));
      set.cells.insert(set.cells.end(), c, c + d);
    }
  }
  set.starts.push_back(static_cast<uint32_t>(set.rows.size()));
  return set;
}

Result<BatchCandidateScorer::QueryContext> BatchCandidateScorer::Prepare(
    const RangeQuery& query) const {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("candidate scoring covers scalar queries");
  }
  QueryContext ctx;
  ctx.func = query.func;
  AQPP_ASSIGN_OR_RETURN(ctx.q_mask,
                        query.predicate.EvaluateMask(*sample_->rows));
  if (query.func != AggregateFunction::kCount) {
    AQPP_ASSIGN_OR_RETURN(ctx.measure, measures_.Get(query.agg_column));
  }
  return ctx;
}

Result<double> BatchCandidateScorer::Score(
    const QueryContext& ctx, const PreAggregate& pre, const PreValues& values,
    Rng& rng, const ActiveSet* active) const {
  const std::vector<uint8_t>& q_mask = ctx.q_mask;

  // The support: every row whose query-vs-box difference is nonzero (every
  // skipped row contributes an exact zero). With an active set, box
  // membership is decided once per cell group; without one, the whole
  // sample is swept row by row.
  std::vector<SupportRow> support;
  auto visit = [&](size_t i, uint8_t inside) {
    if (q_mask[i] != inside) {
      support.push_back(
          {static_cast<uint32_t>(i), MaskDifference(q_mask[i], inside)});
    }
  };
  if (active != nullptr && active->starts.empty()) {
    // Ungrouped active set: membership test per row.
    for (uint32_t r : active->rows) visit(r, cells_.Contains(r, pre) ? 1 : 0);
  } else if (active != nullptr) {
    const size_t d = cells_.num_dims();
    const size_t groups = active->num_groups();
    for (size_t g = 0; g < groups; ++g) {
      const uint32_t* cell = active->cells.data() + g * d;
      uint8_t inside = 1;
      for (size_t i = 0; i < d; ++i) {
        if (cell[i] <= pre.lo[i] || cell[i] > pre.hi[i]) {
          inside = 0;
          break;
        }
      }
      for (uint32_t k = active->starts[g]; k < active->starts[g + 1]; ++k) {
        visit(active->rows[k], inside);
      }
    }
    // Grouped rows arrive by cell; the estimator's support is in row order.
    std::sort(support.begin(), support.end(),
              [](const SupportRow& a, const SupportRow& b) {
                return a.row < b.row;
              });
  } else {
    for (size_t i = 0; i < sample_->size(); ++i) {
      visit(i, cells_.Contains(i, pre) ? 1 : 0);
    }
  }
  AQPP_ASSIGN_OR_RETURN(ConfidenceInterval ci,
                        DifferenceCI(ctx.func, *sample_, support, ctx.measure,
                                     values, options_, rng));
  return ci.half_width;
}

}  // namespace aqpp
