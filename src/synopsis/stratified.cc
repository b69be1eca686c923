#include "synopsis/stratified.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/logging.h"
#include "sampling/samplers.h"
#include "synopsis/serialize_util.h"
#include "synopsis/strata_fold.h"

namespace aqpp {
namespace synopsis {

namespace {
constexpr char kMagic[] = "AQPPSYN1";
}  // namespace

StratifiedSynopsis::StratifiedSynopsis(SynopsisOptions options)
    : Synopsis(std::move(options)), absorb_rng_(options_.seed) {}

void StratifiedSynopsis::RebuildStratumIndex() {
  key_to_stratum_.clear();
  stratum_slots_.assign(sample_.stratum_info.size(), {});
  for (size_t i = 0; i < sample_.size(); ++i) {
    stratum_slots_[static_cast<size_t>(sample_.strata[i])].push_back(i);
  }
  if (options_.key_columns.empty()) return;
  const Table& rows = *sample_.rows;
  for (size_t i = 0; i < sample_.size(); ++i) {
    GroupKey key;
    key.values.reserve(options_.key_columns.size());
    for (size_t c : options_.key_columns) {
      key.values.push_back(rows.column(c).GetInt64(i));
    }
    key_to_stratum_.emplace(std::move(key), sample_.strata[i]);
  }
}

Status StratifiedSynopsis::BuildFromTable(const Table& table) {
  if (table.num_rows() == 0) {
    return Status::FailedPrecondition("cannot build a synopsis of no rows");
  }
  if (options_.key_columns.empty()) {
    return Status::InvalidArgument(
        "stratified synopsis requires key_columns (the stratification "
        "attributes)");
  }
  for (size_t c : options_.key_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("key column out of range");
    }
    if (table.column(c).type() == DataType::kDouble) {
      return Status::InvalidArgument("key columns must be ordinal");
    }
  }
  Rng build_rng(options_.seed);
  AQPP_ASSIGN_OR_RETURN(
      sample_, CreateStratifiedSample(table, options_.key_columns,
                                      options_.sample_rate, build_rng));
  absorb_rng_ = Rng(options_.seed);
  RebuildStratumIndex();
  built_ = true;
  engine_aligned_ = false;
  ci_inflation_ = 1.0;
  return Status::OK();
}

Status StratifiedSynopsis::BuildFromSample(const Sample& sample) {
  if (sample.method != SamplingMethod::kStratified) {
    return Status::Unimplemented(
        "stratified synopsis adopts stratified samples only");
  }
  if (sample.size() == 0) {
    return Status::FailedPrecondition("cannot adopt an empty sample");
  }
  // Shares the rows (engine-aligned); Absorb copies them before overwriting.
  sample_ = sample;
  absorb_rng_ = Rng(options_.seed);
  RebuildStratumIndex();
  built_ = true;
  engine_aligned_ = true;
  ci_inflation_ = 1.0;
  return Status::OK();
}

Result<ConfidenceInterval> StratifiedSynopsis::Estimate(
    const RangeQuery& query, const ExecuteControl& control, Rng& rng) const {
  (void)rng;  // fully closed-form: consumes no draws
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("synopsis estimates are scalar");
  }
  const std::vector<uint8_t>* mask = nullptr;
  std::vector<uint8_t> local_mask;
  if (control.query_mask != nullptr && engine_aligned_ &&
      control.query_mask->size() == sample_.size()) {
    mask = control.query_mask;
  } else {
    AQPP_ASSIGN_OR_RETURN(local_mask,
                          query.predicate.EvaluateMask(*sample_.rows));
    mask = &local_mask;
  }
  return EstimateSeries(query, *mask, nullptr, PreValues{});
}

Result<ConfidenceInterval> StratifiedSynopsis::EstimateWithPre(
    const RangeQuery& query, const RangePredicate& pre_predicate,
    const PreValues& pre, const ExecuteControl& control, Rng& rng) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  AQPP_ASSIGN_OR_RETURN(auto q_mask,
                        query.predicate.EvaluateMask(*sample_.rows));
  AQPP_ASSIGN_OR_RETURN(auto pre_mask,
                        pre_predicate.EvaluateMask(*sample_.rows));
  return EstimateWithPreMasked(query, q_mask, pre_mask, pre, control, rng);
}

Result<ConfidenceInterval> StratifiedSynopsis::EstimateWithPreMasked(
    const RangeQuery& query, const std::vector<uint8_t>& q_mask,
    const std::vector<uint8_t>& pre_mask, const PreValues& pre,
    const ExecuteControl& control, Rng& rng) const {
  (void)control;
  (void)rng;
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("synopsis estimates are scalar");
  }
  if (q_mask.size() != sample_.size() || pre_mask.size() != sample_.size()) {
    return Status::InvalidArgument("mask length does not match synopsis rows");
  }
  return EstimateSeries(query, q_mask, &pre_mask, pre);
}

Result<ConfidenceInterval> StratifiedSynopsis::EstimateSeries(
    const RangeQuery& query, const std::vector<uint8_t>& q_mask,
    const std::vector<uint8_t>* pre_mask, const PreValues& pre) const {
  const Table& rows = *sample_.rows;
  const bool needs_measure = query.func != AggregateFunction::kCount;
  std::vector<double> measure;
  if (needs_measure) {
    if (query.agg_column >= rows.num_columns()) {
      return Status::InvalidArgument("measure column out of range");
    }
    if (query.func == AggregateFunction::kMin ||
        query.func == AggregateFunction::kMax) {
      return Status::Unimplemented(
          "AQP cannot estimate MIN/MAX from a sample (Section 8)");
    }
    measure = rows.column(query.agg_column).ToDoubleVector();
  }

  std::vector<StratumSeries> strata(stratum_slots_.size());
  for (size_t h = 0; h < stratum_slots_.size(); ++h) {
    const auto& slots = stratum_slots_[h];
    StratumSeries& st = strata[h];
    st.population =
        static_cast<double>(sample_.stratum_info[h].population_rows);
    st.c.reserve(slots.size());
    st.s.reserve(slots.size());
    st.q.reserve(slots.size());
    for (size_t i : slots) {
      double d = q_mask[i] ? 1.0 : 0.0;
      if (pre_mask != nullptr && (*pre_mask)[i]) d -= 1.0;
      const double a = needs_measure ? measure[i] : 0.0;
      st.c.push_back(d);
      st.s.push_back(a * d);
      st.q.push_back(a * a * d);
    }
  }
  ConfidenceInterval ci =
      FoldStrata(query.func, strata, pre, options_.confidence_level);
  ci.half_width *= ci_inflation_;
  return ci;
}

Result<std::vector<int32_t>> StratifiedSynopsis::StrataOf(
    const Table& batch) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  AQPP_RETURN_NOT_OK(CheckSameSchema(sample_.rows->schema(), batch.schema()));
  if (options_.key_columns.empty()) {
    return Status::FailedPrecondition(
        "stratified absorb requires key_columns");
  }
  AQPP_RETURN_NOT_OK(ValidateBatchDictionaries(*sample_.rows, batch));
  // Resolve every batch row's stratum before Absorb mutates anything, so an
  // unknown key can never leave a half-absorbed batch behind.
  std::vector<int32_t> row_stratum(batch.num_rows());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    GroupKey key;
    key.values.reserve(options_.key_columns.size());
    for (size_t c : options_.key_columns) {
      const Column& col = batch.column(c);
      if (col.type() == DataType::kString) {
        AQPP_ASSIGN_OR_RETURN(
            int64_t code,
            sample_.rows->column(c).LookupDictionary(col.GetString(r)));
        key.values.push_back(code);
      } else {
        key.values.push_back(col.GetInt64(r));
      }
    }
    auto it = key_to_stratum_.find(key);
    if (it == key_to_stratum_.end()) {
      return Status::InvalidArgument(
          "appended row belongs to a stratum never seen at build time; "
          "re-build the synopsis to admit new strata");
    }
    row_stratum[r] = it->second;
  }
  return row_stratum;
}

Status StratifiedSynopsis::ValidateAbsorb(const Table& batch) const {
  return StrataOf(batch).status();
}

Status StratifiedSynopsis::Absorb(const Table& batch) {
  AQPP_ASSIGN_OR_RETURN(std::vector<int32_t> row_stratum, StrataOf(batch));
  AQPP_FAILPOINT_RETURN_STATUS("synopsis/absorb");
  AQPP_RETURN_NOT_OK(UnshareRows(&sample_));
  // Commit: Algorithm R per stratum, capacity n_h fixed at build time.
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    const size_t h = static_cast<size_t>(row_stratum[r]);
    StratumInfo& info = sample_.stratum_info[h];
    ++info.population_rows;
    const size_t n_h = stratum_slots_[h].size();
    if (n_h == 0) continue;
    const size_t j =
        static_cast<size_t>(absorb_rng_.NextBounded(info.population_rows));
    if (j >= n_h) continue;
    AQPP_RETURN_NOT_OK(
        OverwriteSlot(sample_.rows.get(), stratum_slots_[h][j], batch, r));
  }
  size_t population = 0;
  for (const StratumInfo& info : sample_.stratum_info) {
    population += info.population_rows;
  }
  sample_.population_size = population;
  sample_.sampling_fraction =
      population > 0
          ? static_cast<double>(sample_.size()) / static_cast<double>(population)
          : 0.0;
  for (size_t i = 0; i < sample_.size(); ++i) {
    const StratumInfo& info =
        sample_.stratum_info[static_cast<size_t>(sample_.strata[i])];
    sample_.weights[i] = static_cast<double>(info.population_rows) /
                         static_cast<double>(info.sample_rows);
  }
  engine_aligned_ = false;
  return Status::OK();
}

Status StratifiedSynopsis::Degrade(double keep_fraction, Rng& rng) {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!(keep_fraction > 0.0) || keep_fraction > 1.0) {
    return Status::InvalidArgument("keep_fraction must be in (0, 1]");
  }
  AQPP_ASSIGN_OR_RETURN(sample_, Subsample(sample_, keep_fraction, rng));
  ci_inflation_ *= 1.0 / keep_fraction;
  RebuildStratumIndex();
  engine_aligned_ = false;
  return Status::OK();
}

Status StratifiedSynopsis::SerializeTo(std::string* out) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  out->clear();
  out->append(kMagic);
  PutString(out, "stratified");
  PutF64(out, options_.confidence_level);
  PutF64(out, options_.sample_rate);
  PutU64(out, options_.seed);
  PutU64(out, options_.key_columns.size());
  for (size_t c : options_.key_columns) PutU64(out, c);
  PutF64(out, ci_inflation_);
  PutSample(out, sample_);
  return Status::OK();
}

Status StratifiedSynopsis::DeserializeFrom(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) - 1 ||
      bytes.compare(0, sizeof(kMagic) - 1, kMagic) != 0) {
    return Status::InvalidArgument("bad synopsis magic");
  }
  std::string payload = bytes.substr(sizeof(kMagic) - 1);
  ByteReader r(payload);
  std::string kind;
  if (!r.GetString(&kind)) return Status::InvalidArgument("truncated kind");
  if (kind != "stratified") {
    return Status::InvalidArgument("serialized kind '" + kind +
                                   "' does not match this synopsis "
                                   "('stratified')");
  }
  double level = 0, rate = 0, inflation = 0;
  uint64_t seed = 0, num_keys = 0;
  if (!r.GetF64(&level) || !r.GetF64(&rate) || !r.GetU64(&seed) ||
      !r.GetU64(&num_keys) || num_keys > (1u << 16)) {
    return Status::InvalidArgument("truncated synopsis header");
  }
  std::vector<size_t> key_columns(static_cast<size_t>(num_keys));
  for (auto& c : key_columns) {
    uint64_t v = 0;
    if (!r.GetU64(&v)) return Status::InvalidArgument("truncated key columns");
    c = static_cast<size_t>(v);
  }
  if (!r.GetF64(&inflation)) {
    return Status::InvalidArgument("truncated synopsis header");
  }
  AQPP_ASSIGN_OR_RETURN(Sample sample, GetSample(&r));
  if (!r.Done()) return Status::InvalidArgument("trailing synopsis bytes");
  if (sample.size() == 0 || sample.method != SamplingMethod::kStratified) {
    return Status::InvalidArgument("serialized sample is not stratified");
  }
  for (size_t c : key_columns) {
    if (c >= sample.rows->num_columns()) {
      return Status::InvalidArgument("serialized key column out of range");
    }
  }
  options_.confidence_level = level;
  options_.sample_rate = rate;
  options_.seed = seed;
  options_.key_columns = std::move(key_columns);
  ci_inflation_ = inflation;
  sample_ = std::move(sample);
  absorb_rng_ =
      Rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * sample_.population_size));
  RebuildStratumIndex();
  built_ = true;
  engine_aligned_ = false;
  return Status::OK();
}

size_t StratifiedSynopsis::MemoryUsage() const {
  if (!built_) return 0;
  size_t bytes = sample_.MemoryUsage();
  bytes += key_to_stratum_.size() *
           (sizeof(GroupKey) + sizeof(int32_t) +
            options_.key_columns.size() * sizeof(int64_t));
  for (const auto& slots : stratum_slots_) {
    bytes += slots.size() * sizeof(size_t);
  }
  return bytes;
}

}  // namespace synopsis
}  // namespace aqpp
