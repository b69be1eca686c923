#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "common/logging.h"
#include "core/allocation.h"
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
      if (slots_.empty()) {
        return Status::FailedPrecondition(
            "measure-biased sampling requires a prepared template (the "
            "measure attribute)");
      }
      sample = CreateMeasureBiasedSample(*table_, slots_[0].tmpl.agg_column,
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

void AqppEngine::InstallCubes(std::vector<std::shared_ptr<PrefixCube>> cubes) {
  AQPP_CHECK(cubes.size() == slots_.size());
  IdentificationOptions iopts = options_.identification;
  iopts.confidence_level = options_.confidence_level;
  prepare_stats_.cube_bytes = 0;
  prepare_stats_.cube_cells = 0;
  prepare_stats_.shape.clear();
  for (size_t t = 0; t < slots_.size(); ++t) {
    Slot& slot = slots_[t];
    slot.cube = std::move(cubes[t]);
    if (slot.cube == nullptr) {
      slot.identifier.reset();
      continue;
    }
    slot.identifier = std::make_unique<AggregateIdentifier>(
        slot.cube.get(), &sample_, iopts, rng_);
    prepare_stats_.cube_bytes += slot.cube->MemoryUsage();
    if (slot.extrema != nullptr) {
      prepare_stats_.cube_bytes += slot.extrema->MemoryUsage();
    }
    prepare_stats_.cube_cells += slot.cube->NumCells();
    if (t == 0) {
      for (const auto& dim : slot.cube->scheme().dims()) {
        prepare_stats_.shape.push_back(dim.num_cuts());
      }
    }
  }
}

void AqppEngine::ResetSlots(const std::vector<QueryTemplate>& templates) {
  slots_.clear();
  for (const QueryTemplate& tmpl : templates) slots_.emplace_back().tmpl = tmpl;
}

Status AqppEngine::Prepare(const std::vector<QueryTemplate>& templates) {
  if (templates.empty()) return Status::InvalidArgument("no templates given");
  for (const QueryTemplate& tmpl : templates) {
    if (tmpl.condition_columns.empty() && tmpl.group_columns.empty()) {
      return Status::InvalidArgument("template has no condition attributes");
    }
    if (!tmpl.group_columns.empty() && templates.size() > 1) {
      return Status::Unimplemented(
          "a template with group-by attributes must be the only template");
    }
  }
  ResetSlots(templates);
  AQPP_RETURN_NOT_OK(EnsureSample());
  std::vector<std::shared_ptr<PrefixCube>> cubes(slots_.size());
  if (!options_.enable_precompute) {
    InstallCubes(std::move(cubes));
    return BuildSynopsis(options_.synopsis);
  }

  PrecomputeOptions popts = options_.precompute;
  popts.shape.hill_climb.confidence_level = options_.confidence_level;
  // One template takes the whole budget; several split it by equalizing
  // their predicted errors (Appendix C).
  std::vector<size_t> budgets = {options_.cube_budget};
  if (templates.size() > 1) {
    std::vector<TemplateSpec> specs;
    for (const QueryTemplate& tmpl : templates) {
      specs.push_back({tmpl.agg_column, tmpl.condition_columns});
    }
    MultiTemplateAllocator allocator(sample_.rows.get(),
                                     sample_.population_size, popts.shape);
    AQPP_ASSIGN_OR_RETURN(auto allocation,
                          allocator.Allocate(specs, options_.cube_budget));
    budgets = std::move(allocation.budgets);
  }

  prepare_stats_.stage1_seconds = 0;
  prepare_stats_.stage2_seconds = 0;
  for (size_t t = 0; t < slots_.size(); ++t) {
    Slot& slot = slots_[t];
    slot.budget = std::max<size_t>(1, budgets[t]);
    // Group-by attributes become exhaustive cube dimensions (Appendix C).
    PrecomputeOptions slot_opts = popts;
    std::vector<size_t> all_columns = slot.tmpl.condition_columns;
    for (size_t g : slot.tmpl.group_columns) {
      if (std::find(all_columns.begin(), all_columns.end(), g) ==
          all_columns.end()) {
        all_columns.push_back(g);
      }
      slot_opts.exhaustive_columns.push_back(g);
    }
    Precomputer precomputer(table_.get(), &sample_, slot.tmpl.agg_column,
                            slot_opts);
    AQPP_ASSIGN_OR_RETURN(auto pre,
                          precomputer.Precompute(all_columns, slot.budget));
    prepare_stats_.stage1_seconds += pre.stage1_seconds;
    prepare_stats_.stage2_seconds += pre.stage2_seconds;
    cubes[t] = pre.cube;
    if (options_.enable_extrema) {
      AQPP_ASSIGN_OR_RETURN(
          slot.extrema, ExtremaGrid::Build(*table_, cubes[t]->scheme(),
                                           slot.tmpl.agg_column));
    }
  }
  InstallCubes(std::move(cubes));
  return BuildSynopsis(options_.synopsis);
}

int AqppEngine::RouteFor(const RangeQuery& query) const {
  int best = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < slots_.size(); ++t) {
    const Slot& slot = slots_[t];
    if (slot.cube == nullptr) continue;
    if (query.func != AggregateFunction::kCount &&
        slot.tmpl.agg_column != query.agg_column) {
      continue;
    }
    const std::vector<size_t>& cols = slot.tmpl.condition_columns;
    size_t covered = 0;
    for (size_t c : cols) {
      for (const RangeCondition& cond : query.predicate.conditions()) {
        if (cond.column == c) {
          ++covered;
          break;
        }
      }
    }
    double score = static_cast<double>(covered) -
                   0.25 * static_cast<double>(cols.size() - covered);
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(t);
    }
  }
  return best;
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
  // Key columns: explicit stratification wins, else the first template's
  // condition attributes (the columns queries actually constrain).
  if (!options_.stratify_columns.empty()) {
    sopts.key_columns = options_.stratify_columns;
  } else if (!slots_.empty()) {
    sopts.key_columns = slots_[0].tmpl.condition_columns;
  }
  if (!slots_.empty()) sopts.measure_column = slots_[0].tmpl.agg_column;
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
  if (slots_.empty()) {
    return Status::FailedPrecondition("no prepared template to adapt");
  }
  std::vector<RangeQuery> history = recorded_workload();
  if (history.empty()) {
    return Status::FailedPrecondition("no recorded workload to adapt to");
  }
  options_.sampling = SamplingMethod::kWorkloadAware;
  options_.workload_history = std::move(history);
  has_sample_ = false;  // force a redraw with the boosted probabilities
  std::vector<QueryTemplate> templates;
  for (const Slot& slot : slots_) templates.push_back(slot.tmpl);
  return Prepare(templates);
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

// The one scalar estimation path. With an identifier, aggregate
// identification (Section 5) picks pre and `syn` answers the difference
// estimate (Equation 4), or the direct one when phi wins or `syn` has no
// difference path; without one, `syn` answers the direct estimate (plain
// AQP). An engine-aligned `syn` reuses the identifier's sample-row masks.
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

}  // namespace

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
  const int route = RouteFor(query);
  const Slot* slot = route >= 0 ? &slots_[static_cast<size_t>(route)] : nullptr;
  ApproximateResult out;

  // MIN/MAX: sampling cannot estimate extrema; the extrema grid on the
  // query's measure returns deterministic bounds instead (Section 8
  // extension).
  if (query.func == AggregateFunction::kMin ||
      query.func == AggregateFunction::kMax) {
    if (slot == nullptr || slot->extrema == nullptr) {
      return Status::Unimplemented(
          "MIN/MAX require enable_extrema and a template on the query's "
          "measure (deterministic block bounds); sampling cannot estimate "
          "extrema");
    }
    Timer timer;
    const ExtremaGrid& extrema = *slot->extrema;
    auto bounds = query.func == AggregateFunction::kMax
                      ? extrema.MaxBounds(query.predicate)
                      : extrema.MinBounds(query.predicate);
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
                        slot != nullptr ? slot->identifier.get() : nullptr,
                        table_->schema(), rng);
}

namespace {

// Version 2 carries a template count and one cube_<t>.bin per template;
// version 1 held one template and cube.bin.
constexpr char kStateMagic[8] = {'A', 'Q', 'P', 'P', 'E', 'N', 'G', '2'};
constexpr char kStateMagicV1[8] = {'A', 'Q', 'P', 'P', 'E', 'N', 'G', '1'};
constexpr uint64_t kMaxStateTemplates = 1024;

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

// Reads a column-index list written by WriteIndexVector. A list longer than
// the table is wide, or naming a column past its last, is corrupt state.
Status ReadIndexVector(std::ifstream& in, size_t num_columns,
                       std::vector<size_t>* v) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return Status::IOError("truncated template state");
  if (size > num_columns) {
    return Status::InvalidArgument("corrupt column list in engine state");
  }
  v->resize(size);
  for (auto& x : *v) {
    uint64_t value = 0;
    if (!ReadPod(in, &value)) {
      return Status::IOError("truncated template state");
    }
    if (value >= num_columns) {
      return Status::InvalidArgument("corrupt column index in engine state");
    }
    x = value;
  }
  return Status::OK();
}

std::string CubePath(const std::string& dir, size_t t) {
  return dir + "/cube_" + std::to_string(t) + ".bin";
}

}  // namespace

Status AqppEngine::SaveState(const std::string& dir) const {
  if (!has_sample_ || slots_.empty()) {
    return Status::FailedPrecondition("nothing prepared to save");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  AQPP_RETURN_NOT_OK(SaveSample(sample_, dir + "/sample"));
  for (size_t t = 0; t < slots_.size(); ++t) {
    if (slots_[t].cube != nullptr) {
      AQPP_RETURN_NOT_OK(slots_[t].cube->WriteTo(CubePath(dir, t)));
    }
  }
  std::ofstream out(dir + "/template.bin", std::ios::binary);
  if (!out) return Status::IOError("cannot write template state");
  out.write(kStateMagic, sizeof(kStateMagic));
  WritePod<uint64_t>(out, slots_.size());
  for (const Slot& slot : slots_) {
    WritePod<int32_t>(out, static_cast<int32_t>(slot.tmpl.func));
    WritePod<uint64_t>(out, slot.tmpl.agg_column);
    WriteIndexVector(out, slot.tmpl.condition_columns);
    WriteIndexVector(out, slot.tmpl.group_columns);
    WritePod<uint8_t>(out, slot.cube != nullptr ? 1 : 0);
  }
  if (!out) return Status::IOError("write failed for template state");
  return Status::OK();
}

Status AqppEngine::LoadState(const std::string& dir) {
  std::ifstream in(dir + "/template.bin", std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + dir + "/template.bin'");
  char magic[8];
  in.read(magic, sizeof(magic));
  if (in && std::memcmp(magic, kStateMagicV1, sizeof(magic)) == 0) {
    return Status::FailedPrecondition(
        "'" + dir + "' holds single-template engine state from an older "
        "version; prepare it again");
  }
  if (!in || std::memcmp(magic, kStateMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an engine state directory");
  }
  uint64_t num_templates = 0;
  if (!ReadPod(in, &num_templates)) {
    return Status::IOError("truncated template state");
  }
  if (num_templates == 0 || num_templates > kMaxStateTemplates) {
    return Status::InvalidArgument("corrupt template count in engine state");
  }
  std::vector<QueryTemplate> templates(num_templates);
  std::vector<uint8_t> has_cube(num_templates, 0);
  for (size_t t = 0; t < num_templates; ++t) {
    QueryTemplate& tmpl = templates[t];
    int32_t func = 0;
    uint64_t agg_column = 0;
    if (!ReadPod(in, &func) || !ReadPod(in, &agg_column)) {
      return Status::IOError("truncated template state");
    }
    if (agg_column >= table_->num_columns()) {
      return Status::InvalidArgument("corrupt measure column in engine state");
    }
    AQPP_RETURN_NOT_OK(
        ReadIndexVector(in, table_->num_columns(), &tmpl.condition_columns));
    AQPP_RETURN_NOT_OK(
        ReadIndexVector(in, table_->num_columns(), &tmpl.group_columns));
    if (!ReadPod(in, &has_cube[t])) {
      return Status::IOError("truncated template state");
    }
    tmpl.func = static_cast<AggregateFunction>(func);
    tmpl.agg_column = agg_column;
  }

  AQPP_ASSIGN_OR_RETURN(auto sample, LoadSample(dir + "/sample"));
  if (sample.rows->schema().ToString() != table_->schema().ToString()) {
    return Status::InvalidArgument(
        "saved sample schema does not match the engine's table");
  }
  std::vector<std::shared_ptr<PrefixCube>> cubes(num_templates);
  for (size_t t = 0; t < num_templates; ++t) {
    if (has_cube[t] != 0) {
      AQPP_ASSIGN_OR_RETURN(cubes[t], PrefixCube::ReadFrom(CubePath(dir, t)));
    }
  }
  ResetSlots(templates);
  AQPP_RETURN_NOT_OK(InstallSample(std::move(sample)));
  InstallCubes(std::move(cubes));
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
  ResetSlots({tmpl});
  AQPP_RETURN_NOT_OK(InstallSample(std::move(sample)));
  InstallCubes({std::move(cube)});
  return BuildSynopsis(options_.synopsis);
}

Status AqppEngine::PublishMaintained(
    Sample sample, std::vector<std::shared_ptr<PrefixCube>> cubes) {
  if (sample.rows == nullptr || sample.size() == 0) {
    return Status::InvalidArgument("cannot publish an empty sample");
  }
  if (sample.rows->schema().ToString() != table_->schema().ToString()) {
    return Status::InvalidArgument(
        "published sample schema does not match the engine's table");
  }
  if (cubes.size() != slots_.size()) {
    return Status::InvalidArgument(StrFormat(
        "published %zu cubes for %zu templates", cubes.size(), slots_.size()));
  }
  AQPP_RETURN_NOT_OK(InstallSample(std::move(sample)));
  InstallCubes(std::move(cubes));
  return Status::OK();
}

Result<std::string> AqppEngine::Explain(const RangeQuery& query) {
  AQPP_RETURN_NOT_OK(EnsureSample());
  std::string out = "query: " + query.ToString(table_->schema()) + "\n";
  out += StrFormat("sample: %zu rows (%s, rate %.4g%%)\n", sample_.size(),
                   SamplingMethodToString(sample_.method),
                   sample_.sampling_fraction * 100);
  const int route = RouteFor(query);
  if (route < 0) {
    out += has_cube() ? "plan: direct AQP estimate (no BP-Cube on this "
                        "query's measure)\n"
                      : "plan: direct AQP estimate (no BP-Cube prepared)\n";
    return out;
  }
  const Slot& slot = slots_[static_cast<size_t>(route)];
  const PrefixCube& cube = *slot.cube;
  out += StrFormat("template %d: %s\n", route,
                   slot.tmpl.ToString(table_->schema()).c_str());
  out += StrFormat("cube: %zu cells, shape", cube.NumCells());
  for (const auto& dim : cube.scheme().dims()) {
    out += StrFormat(" %zu", dim.num_cuts());
  }
  out += "\ncandidates (P-, best first):\n";
  AQPP_ASSIGN_OR_RETURN(auto scored, slot.identifier->ScoreAll(query, rng_));
  for (size_t i = 0; i < scored.size(); ++i) {
    out += StrFormat(
        "  %2zu. %-50s est. error %.6g%s\n", i + 1,
        scored[i].pre.ToString(cube.scheme(), table_->schema()).c_str(),
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

  // The group-stripped query picks the template (Appendix C's heuristic
  // identifies on it once, below).
  RangeQuery scalar = query;
  scalar.group_by.clear();
  const int route = RouteFor(scalar);
  const PrefixCube* cube =
      route >= 0 ? slots_[static_cast<size_t>(route)].cube.get() : nullptr;
  const AggregateIdentifier* identifier =
      route >= 0 ? slots_[static_cast<size_t>(route)].identifier.get()
                 : nullptr;

  // Locate each group-by column as a cube dimension (when a cube exists).
  std::vector<size_t> group_dims(query.group_by.size(),
                                 std::numeric_limits<size_t>::max());
  bool cube_covers_groups = cube != nullptr;
  if (cube != nullptr) {
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      for (size_t i = 0; i < cube->scheme().num_dims(); ++i) {
        if (cube->scheme().dim(i).column == query.group_by[g]) {
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
  IdentifiedAggregate identified;
  double ident_seconds = 0;
  if (cube_covers_groups) {
    Timer t;
    obs::SpanTimer ident_span(obs::Phase::kIdentification, control.trace);
    AQPP_ASSIGN_OR_RETURN(identified,
                          identifier->Identify(scalar, rng, control.trace));
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
    if (options_.per_group_identification && cube_covers_groups) {
      // Appendix C's "more effective" variant: identify against the
      // group-pinned query itself. The group dimensions are exhaustive, so
      // the group value's slice is always exactly bracketable.
      auto per_group = identifier->Identify(group_query, rng);
      if (per_group.ok()) pre = std::move(per_group->pre);
    }
    if (!pre.IsEmpty()) {
      // Pin the pre box to the group's cube slice on each group dimension.
      bool sliceable = true;
      for (size_t g = 0; g < query.group_by.size(); ++g) {
        const auto& dim = cube->scheme().dim(group_dims[g]);
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
      values.sum = cube->BoxValue(pre, 0);
      values.count = cube->num_measures() > 1 ? cube->BoxValue(pre, 1) : 0;
      values.sum_sq = cube->num_measures() > 2 ? cube->BoxValue(pre, 2) : 0;
    }
    AQPP_RETURN_NOT_OK(EstimateAgainstPre(group_query, group_control, *syn,
                                          identifier, pre, values,
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
