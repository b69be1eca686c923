#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "common/logging.h"
#include "sampling/sample_io.h"
#include "sampling/workload_sampler.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace aqpp {

std::string QueryTemplate::ToString(const Schema& schema) const {
  std::string out = "[";
  out += AggregateFunctionToString(func);
  out += "(";
  out += schema.column(agg_column).name;
  out += ")";
  for (size_t c : condition_columns) {
    out += ", ";
    out += schema.column(c).name;
  }
  for (size_t g : group_columns) {
    out += ", GROUP ";
    out += schema.column(g).name;
  }
  out += "]";
  return out;
}

Result<std::unique_ptr<AqppEngine>> AqppEngine::Create(
    std::shared_ptr<Table> table, EngineOptions options) {
  if (table == nullptr || table->num_rows() == 0) {
    return Status::InvalidArgument("table must be non-empty");
  }
  if (options.sample_rate <= 0 || options.sample_rate > 1) {
    return Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  if (options.cube_budget == 0) {
    return Status::InvalidArgument("cube_budget must be > 0");
  }
  return std::unique_ptr<AqppEngine>(
      new AqppEngine(std::move(table), std::move(options)));
}

Status AqppEngine::EnsureSample() {
  if (has_sample_) return Status::OK();
  Timer timer;
  Result<Sample> sample = Status::Internal("unset");
  switch (options_.sampling) {
    case SamplingMethod::kUniform:
      sample = CreateUniformSample(*table_, options_.sample_rate, rng_);
      break;
    case SamplingMethod::kBernoulli:
      sample = CreateBernoulliSample(*table_, options_.sample_rate, rng_);
      break;
    case SamplingMethod::kStratified:
      if (options_.stratify_columns.empty()) {
        return Status::InvalidArgument(
            "stratified sampling requires stratify_columns");
      }
      sample = CreateStratifiedSample(*table_, options_.stratify_columns,
                                      options_.sample_rate, rng_);
      break;
    case SamplingMethod::kMeasureBiased:
      if (!template_.has_value()) {
        return Status::FailedPrecondition(
            "measure-biased sampling requires a prepared template (the "
            "measure attribute)");
      }
      sample = CreateMeasureBiasedSample(*table_, template_->agg_column,
                                         options_.sample_rate, rng_);
      break;
    case SamplingMethod::kWorkloadAware:
      sample = CreateWorkloadAwareSample(*table_, options_.workload_history,
                                         options_.sample_rate, rng_);
      break;
  }
  if (!sample.ok()) return sample.status();
  prepare_stats_.sample_seconds = timer.ElapsedSeconds();
  return InstallSample(std::move(sample).value());
}

Status AqppEngine::InstallSample(Sample sample) {
  sample_ = std::move(sample);
  has_sample_ = true;
  prepare_stats_.sample_bytes = sample_.MemoryUsage();
  // An engine-aligned synopsis mirrors the sample row for row, so it must
  // move to the new rows with it; other kinds summarize the table and are
  // rebuilt (or, under ingest, absorbed) on their own.
  std::shared_ptr<synopsis::Synopsis> syn = active_synopsis();
  if (syn != nullptr && !syn->engine_aligned()) return Status::OK();
  return BuildSynopsis(syn != nullptr ? syn->kind() : "");
}

void AqppEngine::InstallCube(std::shared_ptr<PrefixCube> cube) {
  cube_ = std::move(cube);
  if (cube_ == nullptr) {
    identifier_.reset();
    return;
  }
  prepare_stats_.cube_bytes = cube_->MemoryUsage();
  prepare_stats_.cube_cells = cube_->NumCells();
  prepare_stats_.shape.clear();
  for (const auto& dim : cube_->scheme().dims()) {
    prepare_stats_.shape.push_back(dim.num_cuts());
  }
  IdentificationOptions iopts = options_.identification;
  iopts.confidence_level = options_.confidence_level;
  identifier_ =
      std::make_unique<AggregateIdentifier>(cube_.get(), &sample_, iopts, rng_);
}

Status AqppEngine::Prepare(const QueryTemplate& tmpl) {
  if (tmpl.condition_columns.empty() && tmpl.group_columns.empty()) {
    return Status::InvalidArgument("template has no condition attributes");
  }
  template_ = tmpl;
  AQPP_RETURN_NOT_OK(EnsureSample());
  if (!options_.enable_precompute) {
    InstallCube(nullptr);
    return BuildSynopsis(options_.synopsis);
  }

  // Group-by attributes become exhaustive cube dimensions (Appendix C).
  PrecomputeOptions popts = options_.precompute;
  popts.shape.hill_climb.confidence_level = options_.confidence_level;
  std::vector<size_t> all_columns = tmpl.condition_columns;
  for (size_t g : tmpl.group_columns) {
    if (std::find(all_columns.begin(), all_columns.end(), g) ==
        all_columns.end()) {
      all_columns.push_back(g);
    }
    popts.exhaustive_columns.push_back(g);
  }

  Precomputer precomputer(table_.get(), &sample_, tmpl.agg_column, popts);
  AQPP_ASSIGN_OR_RETURN(auto pre,
                        precomputer.Precompute(all_columns,
                                               options_.cube_budget));
  prepare_stats_.stage1_seconds = pre.stage1_seconds;
  prepare_stats_.stage2_seconds = pre.stage2_seconds;
  InstallCube(pre.cube);

  if (options_.enable_extrema) {
    AQPP_ASSIGN_OR_RETURN(
        extrema_, ExtremaGrid::Build(*table_, cube_->scheme(),
                                     tmpl.agg_column));
    prepare_stats_.cube_bytes += extrema_->MemoryUsage();
  } else {
    extrema_.reset();
  }
  return BuildSynopsis(options_.synopsis);
}

Status AqppEngine::SetSynopsis(const std::string& kind) {
  if (!kind.empty() && kind != "off" && !synopsis::IsSynopsisRegistered(kind)) {
    return Status::NotFound("unknown synopsis kind '" + kind + "'");
  }
  AQPP_RETURN_NOT_OK(EnsureSample());
  AQPP_RETURN_NOT_OK(BuildSynopsis(kind));
  options_.synopsis = kind;
  return Status::OK();
}

Status AqppEngine::BuildSynopsis(const std::string& kind) {
  synopsis::SynopsisOptions sopts;
  sopts.confidence_level = options_.confidence_level;
  sopts.bootstrap_resamples = options_.bootstrap_resamples;
  sopts.sample_rate = options_.sample_rate;
  sopts.seed = options_.seed;
  // Key columns: explicit stratification wins, else the template's condition
  // attributes (the columns queries actually constrain).
  if (!options_.stratify_columns.empty()) {
    sopts.key_columns = options_.stratify_columns;
  } else if (template_.has_value()) {
    sopts.key_columns = template_->condition_columns;
  }
  if (template_.has_value()) sopts.measure_column = template_->agg_column;
  AQPP_ASSIGN_OR_RETURN(
      auto syn, synopsis::BuildSynopsisFor(kind, sopts, sample_, *table_));
  AdoptSynopsis(std::move(syn));
  return Status::OK();
}

void AqppEngine::RecordQuery(const RangeQuery& query) {
  constexpr size_t kMaxRecorded = 1024;
  std::lock_guard<std::mutex> lock(workload_mu_);
  if (recorded_workload_.size() >= kMaxRecorded) {
    recorded_workload_.erase(recorded_workload_.begin());
  }
  recorded_workload_.push_back(query);
}

std::vector<RangeQuery> AqppEngine::recorded_workload() const {
  std::lock_guard<std::mutex> lock(workload_mu_);
  return recorded_workload_;
}

Status AqppEngine::AdaptToWorkload() {
  if (!template_.has_value()) {
    return Status::FailedPrecondition("no prepared template to adapt");
  }
  std::vector<RangeQuery> history = recorded_workload();
  if (history.empty()) {
    return Status::FailedPrecondition("no recorded workload to adapt to");
  }
  options_.sampling = SamplingMethod::kWorkloadAware;
  options_.workload_history = std::move(history);
  has_sample_ = false;  // force a redraw with the boosted probabilities
  return Prepare(*template_);
}

Result<ApproximateResult> AqppEngine::Execute(const RangeQuery& query) {
  return Execute(query, ExecuteControl{});
}

Result<ApproximateResult> AqppEngine::Execute(const RangeQuery& query,
                                              const ExecuteControl& control) {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("use ExecuteGroupBy for group-by queries");
  }
  AQPP_RETURN_NOT_OK(EnsureSample());
  if (control.record) RecordQuery(query);
  AQPP_RETURN_IF_STOPPED(control.cancel);
  // A seeded call runs on its own RNG (thread-safe, replayable); an
  // unseeded one consumes the engine's session RNG as before.
  Rng local_rng(control.seed.value_or(0));
  Rng& rng = control.seed.has_value() ? local_rng : rng_;
  ApproximateResult out;

  // MIN/MAX: sampling cannot estimate extrema; the extrema grid returns
  // deterministic bounds instead (Section 8 extension).
  if (query.func == AggregateFunction::kMin ||
      query.func == AggregateFunction::kMax) {
    if (extrema_ == nullptr) {
      return Status::Unimplemented(
          "MIN/MAX require enable_extrema (deterministic block bounds); "
          "sampling cannot estimate extrema");
    }
    Timer timer;
    auto bounds = query.func == AggregateFunction::kMax
                      ? extrema_->MaxBounds(query.predicate)
                      : extrema_->MinBounds(query.predicate);
    if (!bounds.ok()) return bounds.status();
    if (!bounds->has_lower) {
      return Status::FailedPrecondition(
          "query narrower than one block: no two-sided extrema bound "
          "available at this cube granularity");
    }
    out.ci.level = 1.0;  // deterministic interval
    out.ci.estimate = (bounds->lower + bounds->upper) / 2.0;
    out.ci.half_width = (bounds->upper - bounds->lower) / 2.0;
    out.used_pre = true;
    out.pre_description = bounds->exact ? "extrema grid (exact)"
                                        : "extrema grid (bounds)";
    out.estimation_seconds = timer.ElapsedSeconds();
    return out;
  }

  return EstimateScalar(query, control, *active_synopsis(),
                       identifier_.get(), table_->schema(), rng);
}

namespace {

// The estimation half of the scalar path. With a non-empty `pre`, `syn`
// answers the difference estimate (Equation 4); a synopsis without a
// difference path, or an empty `pre`, gets the direct estimate. An
// engine-aligned `syn` reuses the identifier's sample-row masks.
Status EstimateAgainstPre(const RangeQuery& query,
                          const ExecuteControl& control,
                          const synopsis::Synopsis& syn,
                          const AggregateIdentifier* identifier,
                          const PreAggregate& pre, const PreValues& values,
                          const Schema& schema, Rng& rng,
                          ApproximateResult* out) {
  if (!pre.IsEmpty()) {
    const PrefixCube& cube = identifier->cube();
    Result<ConfidenceInterval> ci = Status::Internal("unset");
    if (syn.engine_aligned()) {
      // The synopsis rows are the engine sample's rows, so the query mask
      // and the identifier's cached pre mask apply unchanged.
      std::vector<uint8_t> q_mask_storage;
      if (control.query_mask == nullptr) {
        AQPP_ASSIGN_OR_RETURN(
            q_mask_storage,
            query.predicate.EvaluateMask(*identifier->sample().rows));
      }
      const std::vector<uint8_t>& q_mask = control.query_mask != nullptr
                                               ? *control.query_mask
                                               : q_mask_storage;
      ci = syn.EstimateWithPreMasked(query, q_mask,
                                     identifier->PreMaskOnSample(pre), values,
                                     control, rng);
    } else {
      ci = syn.EstimateWithPre(query, pre.ToPredicate(cube.scheme()), values,
                               control, rng);
    }
    if (ci.ok()) {
      out->ci = std::move(ci).value();
      out->used_pre = true;
      out->pre_description = pre.ToString(cube.scheme(), schema);
      return Status::OK();
    }
    if (ci.status().code() != StatusCode::kUnimplemented) return ci.status();
    // Synopses without a difference path answer directly; the pre is
    // dropped, not mis-applied.
    out->pre_description = "phi (synopsis)";
  }
  AQPP_ASSIGN_OR_RETURN(out->ci, syn.Estimate(query, control, rng));
  return Status::OK();
}

}  // namespace

Result<ApproximateResult> EstimateScalar(const RangeQuery& query,
                                         const ExecuteControl& control,
                                         const synopsis::Synopsis& syn,
                                         const AggregateIdentifier* identifier,
                                         const Schema& schema, Rng& rng) {
  ApproximateResult out;
  IdentifiedAggregate identified;
  if (identifier != nullptr) {
    Timer ident_timer;
    obs::SpanTimer ident_span(obs::Phase::kIdentification, control.trace);
    AQPP_ASSIGN_OR_RETURN(identified,
                          identifier->Identify(query, rng, control.trace));
    ident_span.Stop();
    out.identification_seconds = ident_timer.ElapsedSeconds();
    out.candidates_considered = identified.num_candidates;
    out.pre_description = "phi";
    AQPP_RETURN_IF_STOPPED(control.cancel);
  }

  Timer est_timer;
  obs::SpanTimer est_span(obs::Phase::kSampleEstimation, control.trace);
  AQPP_RETURN_NOT_OK(EstimateAgainstPre(query, control, syn, identifier,
                                        identified.pre, identified.values,
                                        schema, rng, &out));
  est_span.Stop();
  out.estimation_seconds = est_timer.ElapsedSeconds();
  return out;
}

namespace {

constexpr char kStateMagic[8] = {'A', 'Q', 'P', 'P', 'E', 'N', 'G', '1'};

template <typename T>
void WritePod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return in.good();
}

void WriteIndexVector(std::ofstream& out, const std::vector<size_t>& v) {
  WritePod<uint64_t>(out, v.size());
  for (size_t x : v) WritePod<uint64_t>(out, x);
}

bool ReadIndexVector(std::ifstream& in, std::vector<size_t>* v) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  v->resize(size);
  for (auto& x : *v) {
    uint64_t value = 0;
    if (!ReadPod(in, &value)) return false;
    x = value;
  }
  return true;
}

}  // namespace

Status AqppEngine::SaveState(const std::string& dir) const {
  if (!has_sample_ || !template_.has_value()) {
    return Status::FailedPrecondition("nothing prepared to save");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  AQPP_RETURN_NOT_OK(SaveSample(sample_, dir + "/sample"));
  if (cube_ != nullptr) {
    AQPP_RETURN_NOT_OK(cube_->WriteTo(dir + "/cube.bin"));
  }
  std::ofstream out(dir + "/template.bin", std::ios::binary);
  if (!out) return Status::IOError("cannot write template state");
  out.write(kStateMagic, sizeof(kStateMagic));
  WritePod<int32_t>(out, static_cast<int32_t>(template_->func));
  WritePod<uint64_t>(out, template_->agg_column);
  WriteIndexVector(out, template_->condition_columns);
  WriteIndexVector(out, template_->group_columns);
  WritePod<uint8_t>(out, cube_ != nullptr ? 1 : 0);
  if (!out) return Status::IOError("write failed for template state");
  return Status::OK();
}

Status AqppEngine::LoadState(const std::string& dir) {
  std::ifstream in(dir + "/template.bin", std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + dir + "/template.bin'");
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kStateMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an engine state directory");
  }
  QueryTemplate tmpl;
  int32_t func = 0;
  uint64_t agg_column = 0;
  uint8_t has_cube = 0;
  if (!ReadPod(in, &func) || !ReadPod(in, &agg_column) ||
      !ReadIndexVector(in, &tmpl.condition_columns) ||
      !ReadIndexVector(in, &tmpl.group_columns) || !ReadPod(in, &has_cube)) {
    return Status::IOError("truncated template state");
  }
  tmpl.func = static_cast<AggregateFunction>(func);
  tmpl.agg_column = agg_column;

  AQPP_ASSIGN_OR_RETURN(auto sample, LoadSample(dir + "/sample"));
  if (sample.rows->schema().ToString() != table_->schema().ToString()) {
    return Status::InvalidArgument(
        "saved sample schema does not match the engine's table");
  }
  std::shared_ptr<PrefixCube> cube;
  if (has_cube != 0) {
    AQPP_ASSIGN_OR_RETURN(cube, PrefixCube::ReadFrom(dir + "/cube.bin"));
  }
  template_ = tmpl;
  AQPP_RETURN_NOT_OK(InstallSample(std::move(sample)));
  InstallCube(std::move(cube));
  return BuildSynopsis(options_.synopsis);
}

Status AqppEngine::AdoptPrepared(const QueryTemplate& tmpl, Sample sample,
                                 std::shared_ptr<PrefixCube> cube) {
  if (sample.rows == nullptr || sample.size() == 0) {
    return Status::InvalidArgument("cannot adopt an empty sample");
  }
  if (sample.rows->schema().ToString() != table_->schema().ToString()) {
    return Status::InvalidArgument(
        "adopted sample schema does not match the engine's table");
  }
  template_ = tmpl;
  AQPP_RETURN_NOT_OK(InstallSample(std::move(sample)));
  InstallCube(std::move(cube));
  return BuildSynopsis(options_.synopsis);
}

Status AqppEngine::PublishMaintained(Sample sample,
                                     std::shared_ptr<PrefixCube> cube) {
  if (sample.rows == nullptr || sample.size() == 0) {
    return Status::InvalidArgument("cannot publish an empty sample");
  }
  if (sample.rows->schema().ToString() != table_->schema().ToString()) {
    return Status::InvalidArgument(
        "published sample schema does not match the engine's table");
  }
  AQPP_RETURN_NOT_OK(InstallSample(std::move(sample)));
  InstallCube(std::move(cube));
  return Status::OK();
}

Result<std::string> AqppEngine::Explain(const RangeQuery& query) {
  AQPP_RETURN_NOT_OK(EnsureSample());
  std::string out = "query: " + query.ToString(table_->schema()) + "\n";
  out += StrFormat("sample: %zu rows (%s, rate %.4g%%)\n", sample_.size(),
                   SamplingMethodToString(sample_.method),
                   sample_.sampling_fraction * 100);
  if (cube_ == nullptr || identifier_ == nullptr) {
    out += "plan: direct AQP estimate (no BP-Cube prepared)\n";
    return out;
  }
  out += StrFormat("cube: %zu cells, shape", cube_->NumCells());
  for (const auto& dim : cube_->scheme().dims()) {
    out += StrFormat(" %zu", dim.num_cuts());
  }
  out += "\ncandidates (P-, best first):\n";
  AQPP_ASSIGN_OR_RETURN(auto scored, identifier_->ScoreAll(query, rng_));
  for (size_t i = 0; i < scored.size(); ++i) {
    out += StrFormat(
        "  %2zu. %-50s est. error %.6g%s\n", i + 1,
        scored[i].pre.ToString(cube_->scheme(), table_->schema()).c_str(),
        scored[i].scored_error, i == 0 ? "  <- chosen" : "");
  }
  if (!scored.empty()) {
    out += scored.front().pre.IsEmpty()
               ? "plan: direct AQP estimate (phi won)\n"
               : "plan: difference estimate against the chosen pre "
                 "(Equation 4)\n";
  }
  return out;
}

Result<std::vector<GroupApproximateResult>> AqppEngine::ExecuteGroupBy(
    const RangeQuery& query) {
  return ExecuteGroupBy(query, ExecuteControl{});
}

Result<std::vector<GroupApproximateResult>> AqppEngine::ExecuteGroupBy(
    const RangeQuery& query, const ExecuteControl& control) {
  if (query.group_by.empty()) {
    return Status::InvalidArgument("query has no group-by columns");
  }
  for (size_t g : query.group_by) {
    if (g >= table_->num_columns() ||
        table_->column(g).type() == DataType::kDouble) {
      return Status::InvalidArgument("group-by column must be ordinal");
    }
  }
  AQPP_RETURN_NOT_OK(EnsureSample());
  if (control.record) RecordQuery(query);
  AQPP_RETURN_IF_STOPPED(control.cancel);
  Rng local_rng(control.seed.value_or(0));
  Rng& rng = control.seed.has_value() ? local_rng : rng_;

  // Locate each group-by column as a cube dimension (when a cube exists).
  std::vector<size_t> group_dims(query.group_by.size(),
                                 std::numeric_limits<size_t>::max());
  bool cube_covers_groups = cube_ != nullptr;
  if (cube_ != nullptr) {
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      for (size_t i = 0; i < cube_->scheme().num_dims(); ++i) {
        if (cube_->scheme().dim(i).column == query.group_by[g]) {
          group_dims[g] = i;
        }
      }
      if (group_dims[g] == std::numeric_limits<size_t>::max()) {
        cube_covers_groups = false;
      }
    }
  }

  // Enumerate the groups observed in the sample (raw ordinal spans; the
  // group-by columns were validated ordinal above).
  std::vector<const int64_t*> group_data(query.group_by.size());
  for (size_t g = 0; g < query.group_by.size(); ++g) {
    group_data[g] = sample_.rows->column(query.group_by[g]).Int64Data().data();
  }
  std::set<std::vector<int64_t>> group_values;
  std::vector<int64_t> vals(query.group_by.size());
  for (size_t r = 0; r < sample_.rows->num_rows(); ++r) {
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      vals[g] = group_data[g][r];
    }
    group_values.insert(vals);
  }

  // Every group is estimated through the live synopsis, like a scalar
  // query. The caller's query mask covers the whole query, not a group.
  std::shared_ptr<synopsis::Synopsis> syn = active_synopsis();
  ExecuteControl group_control = control;
  group_control.query_mask = nullptr;

  // Identify once on the group-stripped query (Appendix C's heuristic).
  RangeQuery scalar = query;
  scalar.group_by.clear();
  IdentifiedAggregate identified;
  double ident_seconds = 0;
  if (cube_covers_groups && identifier_ != nullptr) {
    Timer t;
    obs::SpanTimer ident_span(obs::Phase::kIdentification, control.trace);
    AQPP_ASSIGN_OR_RETURN(identified,
                          identifier_->Identify(scalar, rng, control.trace));
    ident_span.Stop();
    ident_seconds = t.ElapsedSeconds();
  }

  obs::SpanTimer groups_span(obs::Phase::kSampleEstimation, control.trace);
  std::vector<GroupApproximateResult> results;
  for (const auto& vals : group_values) {
    GroupApproximateResult gr;
    gr.key.values = vals;

    // The per-group query pins every group column to its value.
    RangeQuery group_query = scalar;
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      RangeCondition c;
      c.column = query.group_by[g];
      c.lo = c.hi = vals[g];
      group_query.predicate.Add(c);
    }

    Timer est_timer;
    PreAggregate pre = identified.pre;
    if (options_.per_group_identification && cube_covers_groups &&
        identifier_ != nullptr) {
      // Appendix C's "more effective" variant: identify against the
      // group-pinned query itself. The group dimensions are exhaustive, so
      // the group value's slice is always exactly bracketable.
      auto per_group = identifier_->Identify(group_query, rng);
      if (per_group.ok()) pre = std::move(per_group->pre);
    }
    if (!pre.IsEmpty()) {
      // Pin the pre box to the group's cube slice on each group dimension.
      bool sliceable = true;
      for (size_t g = 0; g < query.group_by.size(); ++g) {
        const auto& dim = cube_->scheme().dim(group_dims[g]);
        // The slice (v-1, v] exists iff v is a cut and its predecessor
        // boundary is the previous cut (exhaustive dims guarantee this).
        size_t upper = dim.UpperBracket(vals[g]);
        if (upper == 0 || upper > dim.num_cuts() ||
            dim.CutValue(upper) != vals[g]) {
          sliceable = false;
          break;
        }
        pre.lo[group_dims[g]] = upper - 1;
        pre.hi[group_dims[g]] = upper;
      }
      if (!sliceable) pre = PreAggregate{};
    }
    PreValues values;
    if (!pre.IsEmpty()) {
      values.sum = cube_->BoxValue(pre, 0);
      values.count = cube_->num_measures() > 1 ? cube_->BoxValue(pre, 1) : 0;
      values.sum_sq = cube_->num_measures() > 2 ? cube_->BoxValue(pre, 2) : 0;
    }
    AQPP_RETURN_NOT_OK(EstimateAgainstPre(group_query, group_control, *syn,
                                          identifier_.get(), pre, values,
                                          table_->schema(), rng, &gr.result));
    gr.result.estimation_seconds = est_timer.ElapsedSeconds();
    gr.result.identification_seconds =
        ident_seconds / static_cast<double>(group_values.size());
    gr.result.candidates_considered = identified.num_candidates;
    results.push_back(std::move(gr));
  }
  groups_span.Stop();
  std::sort(results.begin(), results.end(),
            [](const GroupApproximateResult& a,
               const GroupApproximateResult& b) {
              return a.key.values < b.key.values;
            });
  return results;
}

}  // namespace aqpp
