#include "core/maintenance.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "synopsis/synopsis.h"

namespace aqpp {

namespace {

// Checks name/type equality between two schemas.
Status SchemasMatch(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) {
    return Status::InvalidArgument("batch schema arity mismatch");
  }
  for (size_t i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).name != b.column(i).name ||
        a.column(i).type != b.column(i).type) {
      return Status::InvalidArgument(
          "batch schema mismatch at column '" + a.column(i).name + "'");
    }
  }
  return Status::OK();
}

// Translates a batch row value of column `c` into the reference coding.
// For STRING columns the batch's own dictionary is consulted, then the
// string is looked up in the reference dictionary.
Result<int64_t> TranslateOrdinal(const Table& reference, const Table& batch,
                                 size_t c, size_t row) {
  const Column& ref_col = reference.column(c);
  const Column& batch_col = batch.column(c);
  if (ref_col.type() == DataType::kString) {
    const std::string& value = batch_col.GetString(row);
    auto code = ref_col.LookupDictionary(value);
    if (!code.ok()) {
      return Status::InvalidArgument(
          "appended value '" + value + "' is not in column '" +
          reference.schema().column(c).name +
          "'s dictionary; new categories require re-preparation");
    }
    return *code;
  }
  return batch_col.GetInt64(row);
}

}  // namespace

CubeMaintainer::CubeMaintainer(std::shared_ptr<PrefixCube> cube,
                               std::shared_ptr<Table> reference_table,
                               CubeMaintainerOptions options)
    : cube_(std::move(cube)),
      reference_(std::move(reference_table)),
      options_(options) {
  AQPP_CHECK(cube_ != nullptr);
  AQPP_CHECK(reference_ != nullptr);
}

Status CubeMaintainer::Absorb(const Table& batch) {
  AQPP_RETURN_NOT_OK(SchemasMatch(reference_->schema(), batch.schema()));
  AQPP_FAILPOINT_RETURN_STATUS("core/maintenance/cube_absorb");
  // Domain-coverage guard: every partition-column value must fall under the
  // dimension's last cut (footnote 5's t_k = |dom(C)| invariant).
  for (const auto& dim : cube_->scheme().dims()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      AQPP_ASSIGN_OR_RETURN(int64_t v,
                            TranslateOrdinal(*reference_, batch, dim.column, r));
      if (v > dim.cuts.back()) {
        return Status::OutOfRange(StrFormat(
            "appended value %lld on column '%s' exceeds the cube's last cut "
            "%lld; rebuild the cube to extend the domain",
            static_cast<long long>(v),
            reference_->schema().column(dim.column).name.c_str(),
            static_cast<long long>(dim.cuts.back())));
      }
    }
  }

  // Stage every ordinal translation before touching pending_: a failure on
  // any column (e.g. a string value missing from a non-dimension column's
  // dictionary) must reject the whole batch, not leave pending_ with ragged
  // columns that abort the next SetRowCountFromColumns.
  std::vector<std::vector<int64_t>> staged(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (batch.column(c).type() == DataType::kDouble) continue;
    staged[c].reserve(batch.num_rows());
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      AQPP_ASSIGN_OR_RETURN(int64_t v,
                            TranslateOrdinal(*reference_, batch, c, r));
      staged[c].push_back(v);
    }
  }

  if (pending_ == nullptr) {
    pending_ = std::make_shared<Table>(reference_->schema());
    // Share the reference dictionaries so ordinal codes line up.
    for (size_t c = 0; c < reference_->num_columns(); ++c) {
      if (reference_->column(c).type() == DataType::kString) {
        pending_->mutable_column(c).SetDictionary(
            reference_->column(c).dictionary());
      }
    }
  }
  // Commit phase: nothing below can fail.
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    Column& dst = pending_->mutable_column(c);
    const Column& src = batch.column(c);
    if (src.type() == DataType::kDouble) {
      auto& data = dst.MutableDoubleData();
      const auto& sdata = src.DoubleData();
      data.insert(data.end(), sdata.begin(), sdata.end());
    } else {
      auto& data = dst.MutableInt64Data();
      data.insert(data.end(), staged[c].begin(), staged[c].end());
    }
  }
  pending_->SetRowCountFromColumns();
  total_absorbed_ += batch.num_rows();

  if (pending_->num_rows() >= options_.compact_threshold) {
    AQPP_RETURN_NOT_OK(Compact());
  }
  if (observer_) observer_();
  return Status::OK();
}

double CubeMaintainer::BoxValue(const PreAggregate& pre,
                                size_t measure) const {
  double value = cube_->BoxValue(pre, measure);
  if (pending_ == nullptr || pending_->num_rows() == 0) return value;
  // Exact scan of the (small) pending buffer.
  RangePredicate pred = pre.ToPredicate(cube_->scheme());
  const MeasureSpec& spec = cube_->measures()[measure];
  for (size_t r = 0; r < pending_->num_rows(); ++r) {
    if (!pred.Matches(*pending_, r)) continue;
    double v = spec.is_count()
                   ? 1.0
                   : pending_->column(static_cast<size_t>(spec.column))
                         .GetDouble(r);
    if (spec.squared) v *= v;
    value += v;
  }
  return value;
}

Status CubeMaintainer::Compact() {
  if (pending_ == nullptr || pending_->num_rows() == 0) return Status::OK();
  AQPP_ASSIGN_OR_RETURN(
      auto delta,
      PrefixCube::Build(*pending_, cube_->scheme(), cube_->measures()));
  AQPP_RETURN_NOT_OK(cube_->MergeFrom(*delta));
  pending_.reset();
  return Status::OK();
}

ReservoirMaintainer::ReservoirMaintainer(Sample sample, uint64_t seed)
    : sample_(std::move(sample)),
      rows_seen_(sample_.population_size),
      rng_(seed) {
  AQPP_CHECK(sample_.rows != nullptr);
  AQPP_CHECK(sample_.method == SamplingMethod::kUniform)
      << "reservoir maintenance requires a uniform sample";
}

Status ReservoirMaintainer::Absorb(const Table& batch) {
  AQPP_RETURN_NOT_OK(SchemasMatch(sample_.rows->schema(), batch.schema()));
  AQPP_FAILPOINT_RETURN_STATUS("core/maintenance/reservoir_absorb");
  const size_t n = sample_.size();
  AQPP_CHECK_GT(n, 0u);
  // Pre-validate every string value against the sample dictionaries so the
  // sampling loop below cannot fail: an unknown category used to surface
  // mid-batch, leaving a half-overwritten sample row and rows_seen_
  // advanced past rows that were never absorbed.
  AQPP_RETURN_NOT_OK(
      synopsis::ValidateBatchDictionaries(*sample_.rows, batch));
  // A sample handed in by copy still shares the engine's rows.
  AQPP_RETURN_NOT_OK(synopsis::UnshareRows(&sample_));
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    ++rows_seen_;
    // Algorithm R: the new row replaces a uniformly random slot with
    // probability n / rows_seen.
    size_t j = static_cast<size_t>(rng_.NextBounded(rows_seen_));
    if (j < n) {
      AQPP_RETURN_NOT_OK(
          synopsis::OverwriteSlot(sample_.rows.get(), j, batch, r));
    }
  }
  sample_.population_size = rows_seen_;
  double w = static_cast<double>(rows_seen_) / static_cast<double>(n);
  std::fill(sample_.weights.begin(), sample_.weights.end(), w);
  sample_.sampling_fraction =
      static_cast<double>(n) / static_cast<double>(rows_seen_);
  if (observer_) observer_();
  return Status::OK();
}

}  // namespace aqpp
