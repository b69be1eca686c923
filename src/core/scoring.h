// Single-pass batched candidate scoring for aggregate identification
// (Problem 1, Section 5).
//
// Scoring a candidate pre-aggregate means estimating the query's CI width
// against it on a (sub)sample. The naive path re-evaluates the candidate's
// RangePredicate, re-materializes the measure column, and allocates fresh
// contribution vectors for every one of the up-to 4^d + 1 candidates. This
// module removes all of that redundant work:
//
//  * CellIndex buckets every sample row into its per-dimension partition
//    cell ONCE (one binary search per row per dimension), stored as a
//    row-major uint32 matrix. A candidate box (lo, hi] then contains row r
//    iff lo_i < cell[r][i] <= hi_i on every dimension — two integer
//    compares per dimension instead of a predicate evaluation.
//  * The query mask and measure column are computed once per query
//    (QueryContext) and shared by all candidates (and scoring threads).
//  * Candidate scoring derives the candidate's support (the rows where the
//    query mask and the box differ) straight from the cell ids, with no
//    per-candidate mask or y vector, and hands it to the estimator's own
//    DifferenceCI (synopsis/estimator.h).
//  * The per-candidate sweep can be restricted to an active-row list (rows
//    inside the query or inside the hull of all candidate boxes, computed
//    once per batch): every excluded row has difference 0 for every
//    candidate, and DifferenceCI folds the zero rows in closed form.
//
// Every score is bit-identical to SampleEstimator::EstimateWithPre's
// half-width on the same sample and RNG state, for SUM/COUNT/AVG/VAR alike:
// the same support in ascending row order through the same DifferenceCI,
// with the same RNG consumption. The batched scorer changes identification
// cost, not identification decisions.

#ifndef AQPP_CORE_SCORING_H_
#define AQPP_CORE_SCORING_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "cube/partition.h"
#include "expr/query.h"
#include "sampling/sample.h"
#include "synopsis/estimator.h"

namespace aqpp {

// Row-major matrix of per-dimension partition cell ids for all rows of one
// table: cell (r, i) is the smallest cut index j >= 1 with
// value(r, dim_i) <= cut_i[j], i.e. row r lies in the half-open slab
// (cut_i[j-1], cut_i[j]]. Values beyond the last cut (impossible for a
// validated scheme, kept defensive) get the sentinel num_cuts + 1, which no
// box contains.
class CellIndex {
 public:
  // Buckets every row of `rows` against `scheme` (one binary search per row
  // per dimension).
  CellIndex(const Table& rows, const PartitionScheme& scheme);

  size_t num_rows() const { return num_dims_ == 0 ? 0 : cells_.size() / num_dims_; }
  size_t num_dims() const { return num_dims_; }
  const uint32_t* row(size_t r) const { return cells_.data() + r * num_dims_; }

  // True iff row r lies inside the box `pre` (two integer compares per
  // dimension). An empty box (lo >= hi anywhere) contains nothing.
  bool Contains(size_t r, const PreAggregate& pre) const {
    const uint32_t* c = row(r);
    for (size_t i = 0; i < num_dims_; ++i) {
      if (c[i] <= pre.lo[i] || c[i] > pre.hi[i]) return false;
    }
    return true;
  }

 private:
  size_t num_dims_ = 0;
  std::vector<uint32_t> cells_;
};

// Scores identification candidates for one (sub)sample against one scheme.
// Thread-compatible: Score() is const and safe to call concurrently from
// pool workers once a QueryContext has been prepared.
class BatchCandidateScorer {
 public:
  // `sample` and `scheme` must outlive the scorer. `bootstrap_resamples`
  // applies to the AVG/VAR bootstrap scoring paths.
  BatchCandidateScorer(const Sample* sample, const PartitionScheme* scheme,
                       double confidence_level, size_t bootstrap_resamples);

  // Query-scoped shared state: the query's row mask and measure column,
  // computed once and read by every candidate scoring call.
  struct QueryContext {
    AggregateFunction func = AggregateFunction::kSum;
    std::vector<uint8_t> q_mask;
    // Null for COUNT (implicit all-ones measure).
    const std::vector<double>* measure = nullptr;
  };

  Result<QueryContext> Prepare(const RangeQuery& query) const;

  // Rows that can contribute a nonzero difference for some candidate box,
  // grouped by distinct partition cell: all rows of a group share one cell
  // id tuple, so a candidate's membership is decided once per group (two
  // integer compares per dimension) instead of once per row.
  struct ActiveSet {
    // Active row indices, grouped by cell; group g occupies
    // rows[starts[g] .. starts[g + 1]) and has cell tuple
    // cells[g * num_dims .. (g + 1) * num_dims).
    std::vector<uint32_t> rows;
    std::vector<uint32_t> starts;
    std::vector<uint32_t> cells;
    size_t num_groups() const {
      return starts.empty() ? 0 : starts.size() - 1;
    }
  };

  // Builds the active set for one batch: rows matching the query plus rows
  // inside `hull` (the elementwise hull of the batch's non-empty candidate
  // boxes; pass nullptr when every candidate is empty). Every excluded row
  // has an exactly-zero difference for every candidate in the batch. One
  // sweep per batch, shared by all of the batch's Score calls. With `group`
  // the rows are additionally sorted into cell groups (one extra O(a log a)
  // pass that pays off once the batch has enough candidates to amortize
  // it); without it Score tests membership per row.
  ActiveSet ActiveRows(const QueryContext& ctx, const PreAggregate* hull,
                       bool group) const;

  // CI half-width of the query (in `ctx`) estimated against `pre` with the
  // candidate's exact cube values. Bit-identical to
  // SampleEstimator::EstimateWithPre(query, pre.ToPredicate(scheme), values,
  // rng).half_width for the same rng state. `active`, when
  // non-null, must cover every row with a nonzero difference for `pre`
  // (see ActiveRows); null sweeps all rows.
  Result<double> Score(const QueryContext& ctx, const PreAggregate& pre,
                       const PreValues& values, Rng& rng,
                       const ActiveSet* active = nullptr) const;

 private:
  const Sample* sample_;
  const PartitionScheme* scheme_;
  EstimatorOptions options_;
  CellIndex cells_;
  mutable MeasureCache measures_;
};

}  // namespace aqpp

#endif  // AQPP_CORE_SCORING_H_
