#include "synopsis/grouped.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/failpoint.h"
#include "common/logging.h"
#include "synopsis/serialize_util.h"
#include "synopsis/strata_fold.h"

namespace aqpp {
namespace synopsis {

namespace {

constexpr char kMagic[] = "AQPPSYN1";

size_t ReservoirCapacity(double rate, size_t population) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::ceil(rate * static_cast<double>(population))));
}

}  // namespace

GroupedSynopsis::GroupedSynopsis(SynopsisOptions options)
    : Synopsis(std::move(options)), absorb_rng_(options_.seed) {}

Status GroupedSynopsis::BuildFromTable(const Table& table) {
  if (table.num_rows() == 0) {
    return Status::FailedPrecondition("cannot build a synopsis of no rows");
  }
  if (options_.key_columns.empty()) {
    return Status::InvalidArgument(
        "grouped synopsis requires key_columns (the bubble key is "
        "key_columns[0])");
  }
  const size_t key_col = key_column();
  if (key_col >= table.num_columns() ||
      options_.measure_column >= table.num_columns()) {
    return Status::InvalidArgument("key or measure column out of range");
  }
  if (table.column(key_col).type() == DataType::kDouble) {
    return Status::InvalidArgument("bubble key column must be ordinal");
  }
  if (table.column(options_.measure_column).type() == DataType::kString) {
    return Status::InvalidArgument("measure column must be numeric");
  }

  // Pass 1: exact per-group moments plus each group's row list.
  const Column& keys = table.column(key_col);
  const Column& measure = table.column(options_.measure_column);
  std::unordered_map<int64_t, size_t> index;
  std::vector<Group> groups;
  std::vector<std::vector<size_t>> group_rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const int64_t key = keys.GetInt64(r);
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{key, 0, 0.0, 0.0, 0, {}});
      group_rows.emplace_back();
    }
    Group& g = groups[it->second];
    const double a = measure.GetDouble(r);
    ++g.population;
    g.sum += a;
    g.sum_sq += a * a;
    group_rows[it->second].push_back(r);
  }

  // Deterministic bubble order (and thus serialization bytes): sort by key,
  // then draw each group's reservoir in that order from one seeded stream.
  std::vector<size_t> order(groups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return groups[a].key < groups[b].key;
  });

  Rng build_rng(options_.seed);
  std::vector<Group> sorted;
  sorted.reserve(groups.size());
  std::vector<size_t> take;
  for (size_t i : order) {
    Group g = std::move(groups[i]);
    g.capacity = ReservoirCapacity(options_.sample_rate, g.population);
    const std::vector<size_t>& rows_of_g = group_rows[i];
    std::vector<size_t> picks = SampleWithoutReplacement(
        rows_of_g.size(), std::min(g.capacity, rows_of_g.size()), build_rng);
    g.slots.clear();
    for (size_t p : picks) {
      g.slots.push_back(take.size());
      take.push_back(rows_of_g[p]);
    }
    sorted.push_back(std::move(g));
  }
  AQPP_ASSIGN_OR_RETURN(rows_, TakeRows(table, take));
  groups_ = std::move(sorted);
  key_index_.clear();
  for (size_t i = 0; i < groups_.size(); ++i) {
    key_index_.emplace(groups_[i].key, i);
  }
  absorb_rng_ = Rng(options_.seed);
  built_ = true;
  engine_aligned_ = false;
  ci_inflation_ = 1.0;
  return Status::OK();
}

GroupedSynopsis::SplitPredicate GroupedSynopsis::Split(
    const RangePredicate& predicate) const {
  SplitPredicate out;
  out.key_lo = std::numeric_limits<int64_t>::min();
  out.key_hi = std::numeric_limits<int64_t>::max();
  for (const RangeCondition& cond : predicate.conditions()) {
    if (cond.column == key_column()) {
      out.key_lo = std::max(out.key_lo, cond.lo);
      out.key_hi = std::min(out.key_hi, cond.hi);
    } else {
      out.residual.Add(cond);
    }
  }
  return out;
}

bool GroupedSynopsis::ExactlyAnswerable(const RangeQuery& query) const {
  if (query.func == AggregateFunction::kCount) return true;
  if (query.agg_column != options_.measure_column) return false;
  return query.func == AggregateFunction::kSum ||
         query.func == AggregateFunction::kAvg ||
         query.func == AggregateFunction::kVar;
}

Result<ConfidenceInterval> GroupedSynopsis::Estimate(
    const RangeQuery& query, const ExecuteControl& control, Rng& rng) const {
  (void)control;
  (void)rng;  // exact or closed-form: consumes no draws
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("synopsis estimates are scalar");
  }
  if (query.func == AggregateFunction::kMin ||
      query.func == AggregateFunction::kMax) {
    return Status::Unimplemented(
        "AQP cannot estimate MIN/MAX from a sample (Section 8)");
  }
  const SplitPredicate split = Split(query.predicate);

  // Selected bubbles: the key range is exact (every row of a bubble shares
  // the key, so group-level filtering loses nothing).
  std::vector<const Group*> selected;
  for (const Group& g : groups_) {
    if (g.key >= split.key_lo && g.key <= split.key_hi) selected.push_back(&g);
  }

  ConfidenceInterval ci;
  ci.level = options_.confidence_level;

  if (split.residual.empty() && ExactlyAnswerable(query)) {
    // Key-only predicate over the configured measure: fold the exact
    // moments. Zero-width interval — no sampling was involved.
    double n = 0, s = 0, q = 0;
    for (const Group* g : selected) {
      n += static_cast<double>(g->population);
      s += g->sum;
      q += g->sum_sq;
    }
    switch (query.func) {
      case AggregateFunction::kSum:
        ci.estimate = s;
        break;
      case AggregateFunction::kCount:
        ci.estimate = n;
        break;
      case AggregateFunction::kAvg:
        ci.estimate = n > 0 ? s / n : 0.0;
        break;
      case AggregateFunction::kVar:
        ci.estimate =
            n > 0 ? std::max(0.0, q / n - (s / n) * (s / n)) : 0.0;
        break;
      default:
        return Status::Internal("unreachable");
    }
    ci.half_width = 0.0;
    return ci;
  }

  // Residual predicate (or a foreign measure): estimate per bubble from the
  // reservoirs — each selected bubble is a stratum of known population.
  AQPP_ASSIGN_OR_RETURN(auto mask, split.residual.EvaluateMask(*rows_));
  const bool needs_measure = query.func != AggregateFunction::kCount;
  std::vector<double> measure;
  if (needs_measure) {
    if (query.agg_column >= rows_->num_columns()) {
      return Status::InvalidArgument("measure column out of range");
    }
    measure = rows_->column(query.agg_column).ToDoubleVector();
  }
  std::vector<StratumSeries> strata;
  strata.reserve(selected.size());
  for (const Group* g : selected) {
    StratumSeries st;
    st.population = static_cast<double>(g->population);
    st.c.reserve(g->slots.size());
    st.s.reserve(g->slots.size());
    st.q.reserve(g->slots.size());
    for (size_t slot : g->slots) {
      const double d = mask[slot] ? 1.0 : 0.0;
      const double a = needs_measure ? measure[slot] : 0.0;
      st.c.push_back(d);
      st.s.push_back(a * d);
      st.q.push_back(a * a * d);
    }
    strata.push_back(std::move(st));
  }
  ci = FoldStrata(query.func, strata, PreValues{}, options_.confidence_level);
  ci.half_width *= ci_inflation_;
  return ci;
}

Status GroupedSynopsis::AppendBatchRow(const Table& batch, size_t r,
                                       Group* group) {
  Table::RowBuilder builder = rows_->AddRow();
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const Column& src = batch.column(c);
    switch (src.type()) {
      case DataType::kDouble:
        builder.Double(src.GetDouble(r));
        break;
      case DataType::kString:
        builder.String(src.GetString(r));
        break;
      case DataType::kInt64:
        builder.Int64(src.GetInt64(r));
        break;
    }
  }
  builder.Done();
  group->slots.push_back(rows_->num_rows() - 1);
  return Status::OK();
}

Status GroupedSynopsis::Absorb(const Table& batch) {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  AQPP_RETURN_NOT_OK(CheckSameSchema(rows_->schema(), batch.schema()));
  AQPP_RETURN_NOT_OK(ValidateBatchDictionaries(*rows_, batch));
  AQPP_FAILPOINT_RETURN_STATUS("synopsis/absorb");
  const size_t key_col = key_column();
  const Column& keys = batch.column(key_col);
  const Column& measure = batch.column(options_.measure_column);
  // New bubbles are sized off their mass in this batch (their population so
  // far); capacity never shrinks, so later absorbs only grow them.
  std::unordered_map<int64_t, size_t> batch_counts;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    int64_t key;
    if (keys.type() == DataType::kString) {
      AQPP_ASSIGN_OR_RETURN(
          key, rows_->column(key_col).LookupDictionary(keys.GetString(r)));
    } else {
      key = keys.GetInt64(r);
    }
    if (key_index_.count(key) == 0) ++batch_counts[key];
  }
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    int64_t key;
    if (keys.type() == DataType::kString) {
      AQPP_ASSIGN_OR_RETURN(
          key, rows_->column(key_col).LookupDictionary(keys.GetString(r)));
    } else {
      key = keys.GetInt64(r);
    }
    auto it = key_index_.find(key);
    if (it == key_index_.end()) {
      Group g;
      g.key = key;
      g.capacity =
          ReservoirCapacity(options_.sample_rate, batch_counts.at(key));
      key_index_.emplace(key, groups_.size());
      groups_.push_back(std::move(g));
      it = key_index_.find(key);
    }
    Group& g = groups_[it->second];
    const double a = measure.GetDouble(r);
    ++g.population;
    g.sum += a;
    g.sum_sq += a * a;
    if (g.slots.size() < g.capacity) {
      // Reservoir fill phase: keep everything until the bubble is at
      // capacity.
      AQPP_RETURN_NOT_OK(AppendBatchRow(batch, r, &g));
    } else {
      // Algorithm R continuation at capacity.
      const size_t j = static_cast<size_t>(
          absorb_rng_.NextBounded(static_cast<uint64_t>(g.population)));
      if (j < g.capacity) {
        AQPP_RETURN_NOT_OK(OverwriteSlot(rows_.get(), g.slots[j], batch, r));
      }
    }
  }
  engine_aligned_ = false;
  return Status::OK();
}

Status GroupedSynopsis::Degrade(double keep_fraction, Rng& rng) {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  if (!(keep_fraction > 0.0) || keep_fraction > 1.0) {
    return Status::InvalidArgument("keep_fraction must be in (0, 1]");
  }
  // Thin every bubble's reservoir; the exact moments are untouched (they
  // cost O(1) per bubble), so key-only answers stay exact after degrade.
  std::vector<size_t> take;
  for (Group& g : groups_) {
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(
               keep_fraction * static_cast<double>(g.slots.size()))));
    std::vector<size_t> picks =
        SampleWithoutReplacement(g.slots.size(), keep, rng);
    std::vector<size_t> new_slots;
    new_slots.reserve(keep);
    for (size_t p : picks) {
      new_slots.push_back(take.size());
      take.push_back(g.slots[p]);
    }
    g.slots = std::move(new_slots);
    g.capacity = g.slots.size();
  }
  AQPP_ASSIGN_OR_RETURN(rows_, TakeRows(*rows_, take));
  ci_inflation_ *= 1.0 / keep_fraction;
  engine_aligned_ = false;
  return Status::OK();
}

Status GroupedSynopsis::SerializeTo(std::string* out) const {
  if (!built_) return Status::FailedPrecondition("synopsis not built");
  out->clear();
  out->append(kMagic);
  PutString(out, "grouped");
  PutF64(out, options_.confidence_level);
  PutF64(out, options_.sample_rate);
  PutU64(out, options_.seed);
  PutU64(out, key_column());
  PutU64(out, options_.measure_column);
  PutF64(out, ci_inflation_);
  PutTable(out, *rows_);
  PutU64(out, groups_.size());
  for (const Group& g : groups_) {
    PutI64(out, g.key);
    PutU64(out, g.population);
    PutF64(out, g.sum);
    PutF64(out, g.sum_sq);
    PutU64(out, g.capacity);
    PutU64(out, g.slots.size());
    for (size_t s : g.slots) PutU64(out, s);
  }
  return Status::OK();
}

Status GroupedSynopsis::DeserializeFrom(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) - 1 ||
      bytes.compare(0, sizeof(kMagic) - 1, kMagic) != 0) {
    return Status::InvalidArgument("bad synopsis magic");
  }
  std::string payload = bytes.substr(sizeof(kMagic) - 1);
  ByteReader r(payload);
  std::string kind;
  if (!r.GetString(&kind)) return Status::InvalidArgument("truncated kind");
  if (kind != "grouped") {
    return Status::InvalidArgument("serialized kind '" + kind +
                                   "' does not match this synopsis "
                                   "('grouped')");
  }
  double level = 0, rate = 0, inflation = 0;
  uint64_t seed = 0, key_col = 0, measure_col = 0;
  if (!r.GetF64(&level) || !r.GetF64(&rate) || !r.GetU64(&seed) ||
      !r.GetU64(&key_col) || !r.GetU64(&measure_col) ||
      !r.GetF64(&inflation)) {
    return Status::InvalidArgument("truncated synopsis header");
  }
  AQPP_ASSIGN_OR_RETURN(std::shared_ptr<Table> rows, GetTable(&r));
  uint64_t num_groups = 0;
  if (!r.GetU64(&num_groups) || num_groups > (1ull << 32)) {
    return Status::InvalidArgument("bad group count");
  }
  std::vector<Group> groups;
  groups.reserve(static_cast<size_t>(num_groups));
  for (uint64_t i = 0; i < num_groups; ++i) {
    Group g;
    uint64_t population = 0, capacity = 0, num_slots = 0;
    if (!r.GetI64(&g.key) || !r.GetU64(&population) || !r.GetF64(&g.sum) ||
        !r.GetF64(&g.sum_sq) || !r.GetU64(&capacity) ||
        !r.GetU64(&num_slots) || num_slots > rows->num_rows()) {
      return Status::InvalidArgument("truncated group");
    }
    g.population = static_cast<size_t>(population);
    g.capacity = static_cast<size_t>(capacity);
    g.slots.resize(static_cast<size_t>(num_slots));
    for (auto& s : g.slots) {
      uint64_t v = 0;
      if (!r.GetU64(&v) || v >= rows->num_rows()) {
        return Status::InvalidArgument("group slot out of range");
      }
      s = static_cast<size_t>(v);
    }
    groups.push_back(std::move(g));
  }
  if (!r.Done()) return Status::InvalidArgument("trailing synopsis bytes");
  if (key_col >= rows->num_columns() || measure_col >= rows->num_columns()) {
    return Status::InvalidArgument("serialized column out of range");
  }
  options_.confidence_level = level;
  options_.sample_rate = rate;
  options_.seed = seed;
  options_.key_columns = {static_cast<size_t>(key_col)};
  options_.measure_column = static_cast<size_t>(measure_col);
  ci_inflation_ = inflation;
  rows_ = std::move(rows);
  groups_ = std::move(groups);
  key_index_.clear();
  size_t population = 0;
  for (size_t i = 0; i < groups_.size(); ++i) {
    key_index_.emplace(groups_[i].key, i);
    population += groups_[i].population;
  }
  absorb_rng_ = Rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * population));
  built_ = true;
  engine_aligned_ = false;
  return Status::OK();
}

size_t GroupedSynopsis::MemoryUsage() const {
  if (!built_) return 0;
  size_t bytes = rows_->MemoryUsage();
  for (const Group& g : groups_) {
    bytes += sizeof(Group) + g.slots.size() * sizeof(size_t);
  }
  return bytes;
}

}  // namespace synopsis
}  // namespace aqpp
