#include "core/scoring.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "stats/descriptive.h"

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

std::vector<uint8_t> CellIndex::BoxMask(const PreAggregate& pre) const {
  const size_t n = num_rows();
  std::vector<uint8_t> mask(n);
  for (size_t r = 0; r < n; ++r) {
    mask[r] = Contains(r, pre) ? 1 : 0;
  }
  return mask;
}

BatchCandidateScorer::BatchCandidateScorer(const Sample* sample,
                                           const PartitionScheme* scheme,
                                           double confidence_level,
                                           size_t bootstrap_resamples)
    : sample_(sample),
      scheme_(scheme),
      confidence_level_(confidence_level),
      bootstrap_resamples_(bootstrap_resamples),
      lambda_(NormalCriticalValue(confidence_level)),
      cells_(*sample->rows, *scheme),
      measures_(sample->rows.get()) {
  AQPP_CHECK(sample != nullptr);
  AQPP_CHECK_GT(sample->size(), 0u);
  if (sample_->stratified()) {
    stratum_rows_.assign(sample_->stratum_info.size(), 0.0);
    for (size_t i = 0; i < sample_->size(); ++i) {
      stratum_rows_[static_cast<size_t>(sample_->strata[i])] += 1.0;
    }
  }
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

namespace {

// Per-thread per-stratum moment accumulators (stratified SumCI).
std::vector<RunningMoments>& StratumScratch(size_t num_strata) {
  static thread_local std::vector<RunningMoments> moments;
  moments.assign(num_strata, RunningMoments());
  return moments;
}

// Sample variance of the multiset formed by the values accumulated in `z`
// plus (n - z.count()) exact zeros, folded in closed form: the zero block
// shifts the mean to mean * m/n and contributes (n - m) * mean_all^2 to the
// centered second moment. Equal to walking the zeros through Welford up to
// the rounding of the moment arithmetic (~1 ulp).
double SparseVarianceSample(const RunningMoments& z, double n) {
  if (n <= 1.0) return 0.0;
  const double m = z.count();
  if (m <= 0.0) return 0.0;
  if (m >= n) return z.variance_sample();
  const double mean_nz = z.mean();
  const double mean_all = mean_nz * (m / n);
  const double shift = mean_nz - mean_all;
  const double m2_all = z.variance_population() * m + m * shift * shift +
                        (n - m) * mean_all * mean_all;
  return m2_all / (n - 1.0);
}

}  // namespace

Result<double> BatchCandidateScorer::Score(
    const QueryContext& ctx, const PreAggregate& pre, const PreValues& values,
    Rng& rng, const ActiveSet* active) const {
  const size_t n = sample_->size();
  const std::vector<uint8_t>& q_mask = ctx.q_mask;
  const std::vector<double>* measure = ctx.measure;
  const std::vector<double>& weights = sample_->weights;

  // Invokes fn(i, diff) for every row whose query-vs-box difference is
  // nonzero (diff is exactly +1.0 or -1.0); every skipped row contributes
  // an exact zero. With an active set, box membership is decided once per
  // cell group; without one, the whole sample is swept row by row.
  auto for_nonzero = [&](auto&& fn) {
    if (active != nullptr && active->starts.empty()) {
      // Ungrouped active set: membership test per row.
      for (uint32_t r : active->rows) {
        const size_t i = r;
        const uint8_t inside = cells_.Contains(i, pre) ? 1 : 0;
        if (q_mask[i] == inside) continue;
        fn(i, MaskDifference(q_mask[i], inside));
      }
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
          const size_t i = active->rows[k];
          if (q_mask[i] == inside) continue;
          fn(i, MaskDifference(q_mask[i], inside));
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        const uint8_t inside = cells_.Contains(i, pre) ? 1 : 0;
        if (q_mask[i] == inside) continue;
        fn(i, MaskDifference(q_mask[i], inside));
      }
    }
  };

  switch (ctx.func) {
    case AggregateFunction::kSum:
    case AggregateFunction::kCount: {
      // Fused SumDifferenceCI: y_i = A_i * (cond_q - cond_pre) accumulated
      // straight into the moment sums. Rows with zero difference are not
      // walked; their (exactly zero) contributions are folded back in closed
      // form by SparseVarianceSample.
      if (sample_->stratified()) {
        std::vector<RunningMoments>& per_stratum =
            StratumScratch(sample_->stratum_info.size());
        for_nonzero([&](size_t i, double diff) {
          double y = measure != nullptr ? (*measure)[i] * diff : 1.0 * diff;
          per_stratum[static_cast<size_t>(sample_->strata[i])].Add(y);
        });
        double var = 0;
        for (size_t h = 0; h < per_stratum.size(); ++h) {
          const double n_h = stratum_rows_[h];
          if (n_h <= 0.0) continue;
          double num_pop =
              static_cast<double>(sample_->stratum_info[h].population_rows);
          var += num_pop * num_pop *
                 SparseVarianceSample(per_stratum[h], n_h) / n_h;
        }
        return lambda_ * std::sqrt(std::max(0.0, var));
      }
      RunningMoments z;
      const double dn = static_cast<double>(n);
      for_nonzero([&](size_t i, double diff) {
        double y = measure != nullptr ? (*measure)[i] * diff : 1.0 * diff;
        z.Add(dn * weights[i] * y);
      });
      return lambda_ * std::sqrt(SparseVarianceSample(z, dn) / dn);
    }
    case AggregateFunction::kAvg:
    case AggregateFunction::kVar: {
      AQPP_CHECK(measure != nullptr);
      // The bootstrap support, built straight from the nonzero-difference
      // rows in ascending row order (the order the estimator builds it in;
      // a grouped active set walks rows by cell, so sort first).
      std::vector<std::pair<uint32_t, double>> rows;  // (row, diff)
      for_nonzero([&](size_t i, double diff) {
        rows.emplace_back(static_cast<uint32_t>(i), diff);
      });
      if (active != nullptr && !active->starts.empty()) {
        std::sort(rows.begin(), rows.end());
      }
      if (ctx.func == AggregateFunction::kAvg) {
        SupportSeries<2> contrib(n);
        for (const auto& [i, diff] : rows) {
          contrib.Push(AvgContribution((*measure)[i], weights[i], diff));
        }
        return AvgDifferenceBootstrapCI(contrib, values, confidence_level_,
                                        bootstrap_resamples_, rng)
            .half_width;
      }
      SupportSeries<3> contrib(n);
      for (const auto& [i, diff] : rows) {
        contrib.Push(VarContribution((*measure)[i], weights[i], diff));
      }
      return VarDifferenceBootstrapCI(contrib, values, confidence_level_,
                                      bootstrap_resamples_, rng)
          .half_width;
    }
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return Status::Unimplemented(
          "AQP++ inherits AQP's aggregate support; MIN/MAX unsupported");
  }
  return Status::Internal("unreachable");
}

}  // namespace aqpp
