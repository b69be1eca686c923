#include "sampling/sample.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aqpp {

const char* SamplingMethodToString(SamplingMethod m) {
  switch (m) {
    case SamplingMethod::kUniform:
      return "uniform";
    case SamplingMethod::kBernoulli:
      return "bernoulli";
    case SamplingMethod::kStratified:
      return "stratified";
    case SamplingMethod::kMeasureBiased:
      return "measure-biased";
    case SamplingMethod::kWorkloadAware:
      return "workload-aware";
  }
  return "?";
}

size_t Sample::MemoryUsage() const {
  size_t bytes = rows == nullptr ? 0 : rows->MemoryUsage();
  bytes += weights.capacity() * sizeof(double);
  bytes += strata.capacity() * sizeof(int32_t);
  return bytes;
}

Status ValidateStrata(const Sample& sample) {
  std::vector<size_t> rows(sample.stratum_info.size(), 0);
  for (int32_t s : sample.strata) {
    if (s < 0 || static_cast<size_t>(s) >= rows.size()) {
      return Status::InvalidArgument("stratum id out of range");
    }
    ++rows[static_cast<size_t>(s)];
  }
  if (!sample.stratified()) return Status::OK();
  if (sample.strata.size() != sample.size()) {
    return Status::InvalidArgument(
        "a stratified sample needs one stratum id per row");
  }
  for (size_t h = 0; h < rows.size(); ++h) {
    if (sample.stratum_info[h].sample_rows != rows[h]) {
      return Status::InvalidArgument(
          "stratum sample_rows differs from the stratum's row count");
    }
  }
  return Status::OK();
}

Result<Sample> Subsample(const Sample& sample, double rate, Rng& rng) {
  if (rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument("subsample rate must be in (0, 1]");
  }
  const size_t n = sample.size();
  if (n == 0) return Status::FailedPrecondition("empty sample");

  std::vector<size_t> picked;
  std::vector<double> weight_scale;  // parallel to picked

  if (sample.stratified()) {
    // Thin each stratum independently to preserve the stratified structure.
    std::vector<std::vector<size_t>> by_stratum(sample.stratum_info.size());
    for (size_t i = 0; i < n; ++i) {
      by_stratum[static_cast<size_t>(sample.strata[i])].push_back(i);
    }
    for (auto& members : by_stratum) {
      if (members.empty()) continue;
      size_t take = std::max<size_t>(
          1, static_cast<size_t>(
                 std::ceil(rate * static_cast<double>(members.size()))));
      take = std::min(take, members.size());
      auto idx = SampleWithoutReplacement(members.size(), take, rng);
      double scale =
          static_cast<double>(members.size()) / static_cast<double>(take);
      for (size_t j : idx) {
        picked.push_back(members[j]);
        weight_scale.push_back(scale);
      }
    }
    std::sort(picked.begin(), picked.end());
    // Re-derive scales after sorting: recompute per row from stratum counts.
    // (scale depends only on the stratum, so a map is enough.)
    std::vector<double> stratum_scale(sample.stratum_info.size(), 1.0);
    std::vector<size_t> taken(sample.stratum_info.size(), 0);
    for (size_t i : picked) ++taken[static_cast<size_t>(sample.strata[i])];
    for (size_t s = 0; s < stratum_scale.size(); ++s) {
      if (taken[s] > 0) {
        stratum_scale[s] = static_cast<double>(by_stratum[s].size()) /
                           static_cast<double>(taken[s]);
      }
    }
    weight_scale.clear();
    for (size_t i : picked) {
      weight_scale.push_back(
          stratum_scale[static_cast<size_t>(sample.strata[i])]);
    }
  } else {
    size_t take = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(rate * static_cast<double>(n))));
    take = std::min(take, n);
    picked = SampleWithoutReplacement(n, take, rng);
    double scale = static_cast<double>(n) / static_cast<double>(take);
    weight_scale.assign(picked.size(), scale);
  }

  AQPP_ASSIGN_OR_RETURN(auto rows, TakeRows(*sample.rows, picked));
  Sample out;
  out.rows = std::move(rows);
  out.weights.reserve(picked.size());
  for (size_t j = 0; j < picked.size(); ++j) {
    out.weights.push_back(sample.weights[picked[j]] * weight_scale[j]);
  }
  if (sample.stratified()) {
    out.strata.reserve(picked.size());
    for (size_t i : picked) out.strata.push_back(sample.strata[i]);
    out.stratum_info = sample.stratum_info;
    // Update per-stratum sample counts.
    std::vector<size_t> taken(sample.stratum_info.size(), 0);
    for (size_t i : picked) ++taken[static_cast<size_t>(sample.strata[i])];
    for (size_t s = 0; s < out.stratum_info.size(); ++s) {
      out.stratum_info[s].sample_rows = taken[s];
    }
  }
  out.population_size = sample.population_size;
  out.sampling_fraction = sample.sampling_fraction * rate;
  out.method = sample.method;
  return out;
}

}  // namespace aqpp
