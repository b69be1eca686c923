#include "shard/partial.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/string_util.h"
#include "kernels/scan_internal.h"

namespace aqpp {
namespace shard {
namespace {

// Strict numeric parsing for network-facing payloads: the whole token must
// be consumed and the value must be finite. strtod's permissive tail
// ("1.5garbage") and inf/nan spellings are all rejected.
bool ParseFiniteDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (errno == ERANGE || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

bool ParseI64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  bool neg = s[0] == '-';
  uint64_t mag = 0;
  if (!ParseU64(neg ? s.substr(1) : s, &mag)) return false;
  if (neg) {
    if (mag > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1) {
      return false;
    }
    *out = static_cast<int64_t>(-mag);
  } else {
    if (mag > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return false;
    }
    *out = static_cast<int64_t>(mag);
  }
  return true;
}

// Fuzz-safety caps: well above anything the system produces, well below
// anything that could make parsing a hostile line expensive.
constexpr size_t kMaxConditions = 64;
constexpr size_t kMaxColumnOrdinal = 1u << 20;
constexpr size_t kMaxBlocks = 1u << 22;

constexpr size_t kLanes = kernels::kAccumulatorLanes;

uint64_t ExpectedBlockCount(uint64_t rows) {
  return (rows + kernels::kShardRows - 1) / kernels::kShardRows;
}

}  // namespace

void RunningCovariance::Add(double x, double y) {
  n_ += 1.0;
  double dx = x - mean_x_;
  mean_x_ += dx / n_;
  double dy = y - mean_y_;
  mean_y_ += dy / n_;
  c2_ += dx * (y - mean_y_);
}

double RunningCovariance::covariance_sample() const {
  return n_ > 1 ? c2_ / (n_ - 1) : 0.0;
}

// ---- Spec ------------------------------------------------------------------

std::string FormatPartialSpec(const PartialSpec& spec) {
  std::string out =
      StrFormat("func=%s agg=%zu", AggregateFunctionToString(spec.query.func),
                spec.query.agg_column);
  const auto& conds = spec.query.predicate.conditions();
  if (!conds.empty()) {
    out += " conds=";
    for (size_t i = 0; i < conds.size(); ++i) {
      if (i > 0) out += ',';
      out += StrFormat("%zu:%lld:%lld", conds[i].column,
                       static_cast<long long>(conds[i].lo),
                       static_cast<long long>(conds[i].hi));
    }
  }
  out += " want=";
  if (spec.wants.exact) out += 'e';
  if (spec.wants.sample) out += 's';
  if (spec.wants.engine) out += 'a';
  out += StrFormat(" seed=%llu", static_cast<unsigned long long>(spec.seed));
  if (!spec.synopsis_kind.empty()) {
    out += " synopsis=" + spec.synopsis_kind;
  }
  return out;
}

Result<PartialSpec> ParsePartialSpec(const std::string& text) {
  PartialSpec spec;
  bool saw_func = false, saw_agg = false, saw_want = false, saw_seed = false;
  for (const std::string& raw : SplitString(text, ' ')) {
    std::string token(TrimWhitespace(raw));
    if (token.empty()) continue;
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("malformed spec token '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "func") {
      AQPP_ASSIGN_OR_RETURN(spec.query.func, AggregateFunctionFromString(value));
      saw_func = true;
    } else if (key == "agg") {
      uint64_t col = 0;
      if (!ParseU64(value, &col) || col >= kMaxColumnOrdinal) {
        return Status::InvalidArgument("bad agg column '" + value + "'");
      }
      spec.query.agg_column = static_cast<size_t>(col);
      saw_agg = true;
    } else if (key == "conds") {
      for (const std::string& triple : SplitString(value, ',')) {
        auto parts = SplitString(triple, ':');
        if (parts.size() != 3) {
          return Status::InvalidArgument("bad condition '" + triple +
                                         "' (want col:lo:hi)");
        }
        uint64_t col = 0;
        RangeCondition c;
        if (!ParseU64(parts[0], &col) || col >= kMaxColumnOrdinal ||
            !ParseI64(parts[1], &c.lo) || !ParseI64(parts[2], &c.hi)) {
          return Status::InvalidArgument("bad condition '" + triple + "'");
        }
        c.column = static_cast<size_t>(col);
        spec.query.predicate.Add(c);
        if (spec.query.predicate.size() > kMaxConditions) {
          return Status::InvalidArgument("too many conditions");
        }
      }
    } else if (key == "want") {
      for (char c : value) {
        if (c == 'e') {
          spec.wants.exact = true;
        } else if (c == 's') {
          spec.wants.sample = true;
        } else if (c == 'a') {
          spec.wants.engine = true;
        } else {
          return Status::InvalidArgument(
              std::string("unknown want flag '") + c + "'");
        }
      }
      if (value.empty()) return Status::InvalidArgument("empty want=");
      saw_want = true;
    } else if (key == "seed") {
      if (!ParseU64(value, &spec.seed)) {
        return Status::InvalidArgument("bad seed '" + value + "'");
      }
      saw_seed = true;
    } else if (key == "synopsis") {
      // Registered kinds are [a-z_]+; bound the length, this faces the
      // network.
      if (value.empty() || value.size() > 32) {
        return Status::InvalidArgument("bad synopsis kind '" + value + "'");
      }
      for (char c : value) {
        if ((c < 'a' || c > 'z') && c != '_') {
          return Status::InvalidArgument("bad synopsis kind '" + value + "'");
        }
      }
      spec.synopsis_kind = value;
    } else {
      return Status::InvalidArgument("unknown spec key '" + key + "'");
    }
  }
  if (!saw_func || !saw_agg || !saw_want || !saw_seed) {
    return Status::InvalidArgument(
        "spec needs func=, agg=, want=, and seed=");
  }
  return spec;
}

// ---- Partial wire image ----------------------------------------------------

void EncodePartial(const ShardPartial& partial, Response* response) {
  response->AddUint("shard", partial.shard_index);
  response->AddUint("shards", partial.num_shards);
  response->AddUint("rows", partial.rows);
  response->AddDouble("exec_ms", partial.exec_seconds * 1000.0);
  if (partial.has_exact) {
    std::string mv;
    for (size_t b = 0; b < partial.blocks.size(); ++b) {
      const BlockMoments& blk = partial.blocks[b];
      if (b > 0) mv += ';';
      mv += StrFormat("%llu", static_cast<unsigned long long>(blk.count));
      for (size_t l = 0; l < kLanes; ++l) {
        mv += ':';
        mv += FormatDoubleExact(blk.sum[l]);
      }
      for (size_t l = 0; l < kLanes; ++l) {
        mv += ':';
        mv += FormatDoubleExact(blk.sum_sq[l]);
      }
    }
    response->Add("mv", mv);
  }
  if (partial.has_sample) {
    const StratumPartial& st = partial.stratum;
    std::string s =
        StrFormat("%llu:%llu", static_cast<unsigned long long>(st.sample_rows),
                  static_cast<unsigned long long>(st.population_rows));
    const double vals[] = {st.mean_c, st.mean_s, st.mean_q, st.var_c,
                           st.var_s,  st.var_q,  st.cov_cs, st.cov_cq,
                           st.cov_sq};
    for (double v : vals) {
      s += ':';
      s += FormatDoubleExact(v);
    }
    response->Add("strat", s);
  }
  if (partial.has_engine) {
    response->AddDouble("aqpp_est", partial.engine_estimate);
    response->AddDouble("aqpp_half", partial.engine_half_width);
    response->AddUint("aqpp_pre", partial.engine_used_pre ? 1 : 0);
  }
}

Result<ShardPartial> ParsePartial(const Response& response) {
  if (!response.ok) {
    return Status::InvalidArgument("cannot parse a partial from an ERR line");
  }
  ShardPartial p;
  auto shard = response.Find("shard");
  auto shards = response.Find("shards");
  auto rows = response.Find("rows");
  if (!shard || !shards || !rows) {
    return Status::InvalidArgument("partial needs shard=, shards=, rows=");
  }
  uint64_t shard_v = 0, shards_v = 0;
  if (!ParseU64(*shard, &shard_v) || !ParseU64(*shards, &shards_v) ||
      !ParseU64(*rows, &p.rows)) {
    return Status::InvalidArgument("non-numeric shard header field");
  }
  if (shards_v == 0 || shards_v > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("bad shard count");
  }
  if (shard_v >= shards_v) {
    return Status::InvalidArgument(StrFormat(
        "shard index %llu out of range for %llu shards",
        static_cast<unsigned long long>(shard_v),
        static_cast<unsigned long long>(shards_v)));
  }
  if (p.rows == 0) return Status::InvalidArgument("shard reports zero rows");
  p.shard_index = static_cast<uint32_t>(shard_v);
  p.num_shards = static_cast<uint32_t>(shards_v);
  if (auto exec = response.Find("exec_ms")) {
    double ms = 0;
    if (!ParseFiniteDouble(*exec, &ms) || ms < 0) {
      return Status::InvalidArgument("bad exec_ms");
    }
    p.exec_seconds = ms / 1000.0;
  }

  if (auto mv = response.Find("mv")) {
    uint64_t expected = ExpectedBlockCount(p.rows);
    if (expected > kMaxBlocks) {
      return Status::InvalidArgument("implausible row count for moment vector");
    }
    auto block_strs = SplitString(*mv, ';');
    if (block_strs.size() != expected) {
      return Status::InvalidArgument(StrFormat(
          "truncated moment vector: %zu blocks, want %llu for %llu rows",
          block_strs.size(), static_cast<unsigned long long>(expected),
          static_cast<unsigned long long>(p.rows)));
    }
    p.blocks.reserve(block_strs.size());
    for (const std::string& bs : block_strs) {
      auto fields = SplitString(bs, ':');
      if (fields.size() != 1 + 2 * kLanes) {
        return Status::InvalidArgument("malformed moment block '" + bs + "'");
      }
      BlockMoments blk;
      if (!ParseU64(fields[0], &blk.count) ||
          blk.count > kernels::kShardRows) {
        return Status::InvalidArgument("bad block count '" + fields[0] + "'");
      }
      for (size_t l = 0; l < kLanes; ++l) {
        if (!ParseFiniteDouble(fields[1 + l], &blk.sum[l]) ||
            !ParseFiniteDouble(fields[1 + kLanes + l], &blk.sum_sq[l])) {
          return Status::InvalidArgument("non-finite moment in block");
        }
      }
      p.blocks.push_back(blk);
    }
    p.has_exact = true;
  }

  if (auto strat = response.Find("strat")) {
    auto fields = SplitString(*strat, ':');
    if (fields.size() != 11) {
      return Status::InvalidArgument("malformed stratum summary");
    }
    StratumPartial& st = p.stratum;
    if (!ParseU64(fields[0], &st.sample_rows) ||
        !ParseU64(fields[1], &st.population_rows)) {
      return Status::InvalidArgument("bad stratum counts");
    }
    double* vals[] = {&st.mean_c, &st.mean_s, &st.mean_q,
                      &st.var_c,  &st.var_s,  &st.var_q,
                      &st.cov_cs, &st.cov_cq, &st.cov_sq};
    for (size_t i = 0; i < 9; ++i) {
      if (!ParseFiniteDouble(fields[2 + i], vals[i])) {
        return Status::InvalidArgument("non-finite stratum moment");
      }
    }
    if (st.population_rows != p.rows) {
      return Status::InvalidArgument(StrFormat(
          "stratum population %llu disagrees with shard rows %llu",
          static_cast<unsigned long long>(st.population_rows),
          static_cast<unsigned long long>(p.rows)));
    }
    if (st.sample_rows > st.population_rows) {
      return Status::InvalidArgument("stratum sample larger than population");
    }
    if (st.var_c < 0 || st.var_s < 0 || st.var_q < 0) {
      return Status::InvalidArgument("negative stratum variance");
    }
    p.has_sample = true;
  }

  auto est = response.Find("aqpp_est");
  auto half = response.Find("aqpp_half");
  auto pre = response.Find("aqpp_pre");
  if (est || half || pre) {
    if (!est || !half || !pre) {
      return Status::InvalidArgument(
          "engine partial needs aqpp_est=, aqpp_half=, aqpp_pre=");
    }
    uint64_t pre_v = 0;
    if (!ParseFiniteDouble(*est, &p.engine_estimate) ||
        !ParseFiniteDouble(*half, &p.engine_half_width) ||
        p.engine_half_width < 0 || !ParseU64(*pre, &pre_v) || pre_v > 1) {
      return Status::InvalidArgument("bad engine partial fields");
    }
    p.engine_used_pre = pre_v == 1;
    p.has_engine = true;
  }
  return p;
}

// ---- Merge -----------------------------------------------------------------

namespace {

bool HasView(const ShardPartial& p, MergeMode mode) {
  switch (mode) {
    case MergeMode::kExact:
      return p.has_exact;
    case MergeMode::kSample:
      return p.has_sample;
    case MergeMode::kEngine:
      return p.has_engine;
  }
  return false;
}

const char* ViewName(MergeMode mode) {
  switch (mode) {
    case MergeMode::kExact:
      return "exact";
    case MergeMode::kSample:
      return "sample";
    case MergeMode::kEngine:
      return "engine";
  }
  return "?";
}

// Shared degradation geometry: how much mass is missing and how to scale.
struct Missing {
  uint32_t count = 0;           // shards missing
  double rows = 0;              // extrapolated missing row mass
  double per_shard_rows = 0;    // rows / count
  double scale = 1.0;           // (covered + missing) / covered
  double fraction = 0.0;        // missing / (covered + missing)
};

Missing ComputeMissing(uint32_t total, uint32_t covered, uint64_t covered_rows,
                       const MergeOptions& options) {
  Missing m;
  m.count = total - covered;
  if (m.count == 0) return m;
  double ncov = static_cast<double>(covered_rows);
  if (options.total_rows > covered_rows) {
    m.rows = static_cast<double>(options.total_rows - covered_rows);
  } else {
    m.rows = ncov / static_cast<double>(covered) *
             static_cast<double>(m.count);
  }
  m.per_shard_rows = m.rows / static_cast<double>(m.count);
  m.scale = (ncov + m.rows) / ncov;
  m.fraction = m.rows / (ncov + m.rows);
  return m;
}

}  // namespace

Result<MergedAnswer> MergePartials(
    const RangeQuery& query,
    const std::vector<std::optional<ShardPartial>>& partials,
    const MergeOptions& options) {
  if (partials.empty()) {
    return Status::InvalidArgument("no shard slots to merge");
  }
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("shard merge handles scalar queries only");
  }
  if (query.func == AggregateFunction::kMin ||
      query.func == AggregateFunction::kMax) {
    return Status::InvalidArgument("shard merge does not support MIN/MAX");
  }
  const uint32_t total = static_cast<uint32_t>(partials.size());
  uint32_t covered = 0;
  uint64_t covered_rows = 0;
  for (uint32_t i = 0; i < total; ++i) {
    if (!partials[i].has_value()) continue;
    const ShardPartial& p = *partials[i];
    if (p.num_shards != total) {
      return Status::InvalidArgument(StrFormat(
          "shard %u reports %u total shards, coordinator expects %u", i,
          p.num_shards, total));
    }
    if (p.shard_index != i) {
      return Status::InvalidArgument(StrFormat(
          "partial in slot %u carries shard index %u", i, p.shard_index));
    }
    if (!HasView(p, options.mode)) {
      return Status::InvalidArgument(StrFormat(
          "shard %u partial lacks the %s view", i, ViewName(options.mode)));
    }
    ++covered;
    covered_rows += p.rows;
  }
  if (covered == 0) return Status::Unavailable("no shard answered");
  if (covered < total && !options.allow_degraded) {
    return Status::Unavailable(StrFormat(
        "%u of %u shards missing and degradation is disabled", total - covered,
        total));
  }
  Missing miss = ComputeMissing(total, covered, covered_rows, options);

  MergedAnswer out;
  out.shards_total = total;
  out.shards_answered = covered;
  out.degraded = miss.count > 0;
  out.ci.level = options.confidence_level;
  const double lambda = NormalCriticalValue(options.confidence_level);
  const double penalty = options.degraded_penalty;

  switch (options.mode) {
    case MergeMode::kExact: {
      // Rebuild the kernel layer's per-block lane accumulators in global
      // block order and reduce them exactly as a single-table scan would
      // (shard-index-order merge, then lane-order reduction): the answer is
      // bit-identical to ScanAggregate over the unsharded table.
      std::vector<kernels::internal::ShardAccum> accums;
      for (uint32_t i = 0; i < total; ++i) {
        if (!partials[i].has_value()) continue;
        for (const BlockMoments& blk : partials[i]->blocks) {
          kernels::internal::ShardAccum a;
          a.count = blk.count;
          for (size_t l = 0; l < kLanes; ++l) {
            a.sum[l] = blk.sum[l];
            a.sum_sq[l] = blk.sum_sq[l];
          }
          accums.push_back(a);
        }
      }
      kernels::ScanStats stats = kernels::internal::Finalize(accums);
      double est = 0;
      switch (query.func) {
        case AggregateFunction::kCount:
          est = static_cast<double>(stats.count);
          break;
        case AggregateFunction::kSum:
          est = stats.sum;
          break;
        case AggregateFunction::kAvg:
          est = stats.mean();
          break;
        case AggregateFunction::kVar:
          est = stats.variance_population();
          break;
        default:
          return Status::InvalidArgument("unsupported exact merge function");
      }
      if (miss.count == 0) {
        out.ci.estimate = est;
        out.ci.half_width = 0.0;
        out.ci.level = 1.0;  // deterministic
        return out;
      }
      // Degraded exact answer: extrapolate by row mass and attach an
      // uncertainty derived from the covered per-row spread (documented
      // heuristic — missing rows treated as draws from the covered per-row
      // distribution, inflated by the penalty; see docs/sharding.md).
      const double ncov = static_cast<double>(covered_rows);
      const double mean_row = stats.sum / ncov;
      const double var_row =
          std::max(0.0, stats.sum_sq / ncov - mean_row * mean_row);
      const double p_match = static_cast<double>(stats.count) / ncov;
      const double var_match = std::max(0.0, p_match * (1.0 - p_match));
      double var = 0;
      switch (query.func) {
        case AggregateFunction::kSum:
          est *= miss.scale;
          var = penalty * static_cast<double>(miss.count) *
                miss.per_shard_rows * miss.per_shard_rows * var_row;
          break;
        case AggregateFunction::kCount:
          est *= miss.scale;
          var = penalty * static_cast<double>(miss.count) *
                miss.per_shard_rows * miss.per_shard_rows * var_match;
          break;
        case AggregateFunction::kAvg:
          var = penalty * miss.fraction * miss.fraction *
                stats.variance_population();
          break;
        case AggregateFunction::kVar:
          var = penalty * miss.fraction * miss.fraction * est * est;
          break;
        default:
          break;
      }
      out.ci.estimate = est;
      out.ci.half_width = lambda * std::sqrt(std::max(0.0, var));
      return out;
    }

    case MergeMode::kSample: {
      if (query.func == AggregateFunction::kSum ||
          query.func == AggregateFunction::kCount) {
        // The stratified fold of SparseSumCI, one stratum per shard, in
        // shard-index order: est += N_h * mean_h, var += N_h^2 * s_h^2 / n_h.
        double est = 0, var = 0, max_unit = 0;
        for (uint32_t i = 0; i < total; ++i) {
          if (!partials[i].has_value()) continue;
          const StratumPartial& st = partials[i]->stratum;
          if (st.sample_rows == 0) continue;
          double num_pop = static_cast<double>(st.population_rows);
          double n_h = static_cast<double>(st.sample_rows);
          double mean = query.func == AggregateFunction::kSum ? st.mean_s
                                                              : st.mean_c;
          double v = query.func == AggregateFunction::kSum ? st.var_s
                                                           : st.var_c;
          est += num_pop * mean;
          var += num_pop * num_pop * v / n_h;
          max_unit = std::max(max_unit, v / n_h);
        }
        if (miss.count > 0) {
          // Impute each missing stratum's variance term at the worst covered
          // per-sample-row variance and inflate by the penalty.
          est *= miss.scale;
          var = penalty *
                (miss.scale * miss.scale * var +
                 static_cast<double>(miss.count) * miss.per_shard_rows *
                     miss.per_shard_rows * max_unit);
        }
        out.ci.estimate = est;
        out.ci.half_width = lambda * std::sqrt(std::max(0.0, var));
        return out;
      }
      // AVG / VAR: merge the three moment series (c, s, q), then the delta
      // method on the merged totals with the stratified covariance terms.
      double chat = 0, shat = 0, qhat = 0;
      double vc = 0, vs = 0, vq = 0, ccs = 0, ccq = 0, csq = 0;
      for (uint32_t i = 0; i < total; ++i) {
        if (!partials[i].has_value()) continue;
        const StratumPartial& st = partials[i]->stratum;
        if (st.sample_rows == 0) continue;
        double num_pop = static_cast<double>(st.population_rows);
        double w = num_pop * num_pop / static_cast<double>(st.sample_rows);
        chat += num_pop * st.mean_c;
        shat += num_pop * st.mean_s;
        qhat += num_pop * st.mean_q;
        vc += w * st.var_c;
        vs += w * st.var_s;
        vq += w * st.var_q;
        ccs += w * st.cov_cs;
        ccq += w * st.cov_cq;
        csq += w * st.cov_sq;
      }
      if (chat <= 0) {
        // No matching rows observed anywhere: estimate 0, zero width
        // (mirrors the single-engine estimator's no-observation answer).
        out.ci.estimate = 0.0;
        out.ci.half_width = 0.0;
        return out;
      }
      double ratio = shat / chat;
      double est = 0, var = 0;
      if (query.func == AggregateFunction::kAvg) {
        est = ratio;
        var = (vs - 2.0 * ratio * ccs + ratio * ratio * vc) / (chat * chat);
      } else {  // kVar
        est = std::max(0.0, qhat / chat - ratio * ratio);
        double gq = 1.0 / chat;
        double gs = -2.0 * shat / (chat * chat);
        double gc = (-qhat + 2.0 * shat * ratio) / (chat * chat);
        var = gq * gq * vq + gs * gs * vs + gc * gc * vc +
              2.0 * gc * gs * ccs + 2.0 * gc * gq * ccq + 2.0 * gs * gq * csq;
      }
      if (miss.count > 0) {
        // Ratio estimates don't rescale with mass; widen for the unobserved
        // strata instead (heuristic, penalty-inflated).
        var = penalty * (var + miss.fraction * miss.fraction * est * est);
      }
      out.ci.estimate = est;
      out.ci.half_width = lambda * std::sqrt(std::max(0.0, var));
      return out;
    }

    case MergeMode::kEngine: {
      if (query.func != AggregateFunction::kSum &&
          query.func != AggregateFunction::kCount) {
        return Status::InvalidArgument(
            "engine merge supports SUM and COUNT only");
      }
      // Shard totals are disjoint, so the difference estimates add and their
      // variances (recovered from half = lambda * sigma) add.
      double est = 0, var = 0, max_unit = 0;
      for (uint32_t i = 0; i < total; ++i) {
        if (!partials[i].has_value()) continue;
        const ShardPartial& p = *partials[i];
        est += p.engine_estimate;
        double sigma = p.engine_half_width / lambda;
        double vh = sigma * sigma;
        var += vh;
        double rows = static_cast<double>(p.rows);
        max_unit = std::max(max_unit, vh / (rows * rows));
        out.used_pre = out.used_pre || p.engine_used_pre;
      }
      if (miss.count > 0) {
        est *= miss.scale;
        var = penalty *
              (miss.scale * miss.scale * var +
               static_cast<double>(miss.count) * miss.per_shard_rows *
                   miss.per_shard_rows * max_unit);
      }
      out.ci.estimate = est;
      out.ci.half_width = lambda * std::sqrt(std::max(0.0, var));
      return out;
    }
  }
  return Status::InvalidArgument("unknown merge mode");
}

}  // namespace shard
}  // namespace aqpp
