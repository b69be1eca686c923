#include "synopsis/synopsis.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>

#include "common/failpoint.h"
#include "common/logging.h"
#include "synopsis/grouped.h"
#include "synopsis/reservoir.h"
#include "synopsis/serialize_util.h"
#include "synopsis/stratified.h"

namespace aqpp {
namespace synopsis {

// ---- Interface defaults -----------------------------------------------------

Status Synopsis::Build(ColumnSource& source) {
  // Default: one materializing pass over the source, then the table build.
  // Streaming implementations override this; the materialization is bounded
  // by the source size, which is fine for the in-memory paths that use it.
  if (source.num_rows() == 0) {
    return Status::FailedPrecondition("empty source");
  }
  Table table(source.schema());
  table.Reserve(static_cast<size_t>(source.num_rows()));
  const size_t num_cols = source.schema().num_columns();
  for (size_t c = 0; c < num_cols; ++c) {
    Column& dst = table.mutable_column(c);
    if (dst.type() == DataType::kString) {
      dst.SetDictionary(source.dictionary(c));
    }
    for (size_t e = 0; e < source.num_extents(); ++e) {
      AQPP_ASSIGN_OR_RETURN(auto pinned, source.Pin(e, c));
      if (pinned.type == DataType::kDouble) {
        auto& dbls = dst.MutableDoubleData();
        dbls.insert(dbls.end(), pinned.dbls, pinned.dbls + pinned.rows);
      } else {
        auto& ints = dst.MutableInt64Data();
        ints.insert(ints.end(), pinned.ints, pinned.ints + pinned.rows);
      }
    }
    source.ReleaseBefore(source.num_extents());
  }
  table.SetRowCountFromColumns();
  return BuildFromTable(table);
}

Status Synopsis::BuildFromSample(const Sample& sample) {
  (void)sample;
  return Status::Unimplemented(std::string(kind()) +
                               " synopsis cannot adopt an external sample");
}

Status Synopsis::ValidateAbsorb(const Table& batch) const {
  (void)batch;
  return Status::OK();
}

Result<ConfidenceInterval> Synopsis::Estimate(
    const RangeQuery& query, const ExecuteControl& control) const {
  Rng rng(control.seed.value_or(0));
  return Estimate(query, control, rng);
}

Result<ConfidenceInterval> Synopsis::EstimateWithPre(
    const RangeQuery& query, const RangePredicate& pre_predicate,
    const PreValues& pre, const ExecuteControl& control, Rng& rng) const {
  (void)query;
  (void)pre_predicate;
  (void)pre;
  (void)control;
  (void)rng;
  return Status::Unimplemented(std::string(kind()) +
                               " synopsis has no difference path");
}

Result<ConfidenceInterval> Synopsis::EstimateWithPreMasked(
    const RangeQuery& query, const std::vector<uint8_t>& q_mask,
    const std::vector<uint8_t>& pre_mask, const PreValues& pre,
    const ExecuteControl& control, Rng& rng) const {
  (void)query;
  (void)q_mask;
  (void)pre_mask;
  (void)pre;
  (void)control;
  (void)rng;
  return Status::Unimplemented(std::string(kind()) +
                               " synopsis has no mask-reusing difference path");
}

// ---- Registry ---------------------------------------------------------------

namespace {

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

// Ordered map: RegisteredSynopses() enumeration is deterministic, which the
// parameterized coverage battery relies on. Built-ins are registered
// explicitly here (not via static initializers, which a static-lib link can
// strip).
std::map<std::string, SynopsisFactory>& Registry() {
  static std::map<std::string, SynopsisFactory>* registry = [] {
    auto* m = new std::map<std::string, SynopsisFactory>();
    (*m)["reservoir"] = [](const SynopsisOptions& opts) {
      SynopsisOptions o = opts;
      o.ci_method = SynopsisOptions::CiMethod::kBootstrap;
      return std::make_unique<ReservoirSynopsis>("reservoir", o);
    };
    (*m)["reservoir_closed"] = [](const SynopsisOptions& opts) {
      SynopsisOptions o = opts;
      o.ci_method = SynopsisOptions::CiMethod::kClosedForm;
      return std::make_unique<ReservoirSynopsis>("reservoir_closed", o);
    };
    (*m)["stratified"] = [](const SynopsisOptions& opts) {
      return std::make_unique<StratifiedSynopsis>(opts);
    };
    (*m)["grouped"] = [](const SynopsisOptions& opts) {
      return std::make_unique<GroupedSynopsis>(opts);
    };
    return m;
  }();
  return *registry;
}

}  // namespace

Result<std::unique_ptr<Synopsis>> CreateSynopsis(const std::string& kind,
                                                 const SynopsisOptions& opts) {
  if (opts.confidence_level <= 0 || opts.confidence_level >= 1) {
    return Status::InvalidArgument("confidence_level must be in (0, 1)");
  }
  if (opts.sample_rate <= 0 || opts.sample_rate > 1) {
    return Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  SynopsisFactory factory;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto it = Registry().find(kind);
    if (it == Registry().end()) {
      return Status::NotFound("unknown synopsis kind '" + kind + "'");
    }
    factory = it->second;
  }
  return factory(opts);
}

Result<std::shared_ptr<Synopsis>> BuildSynopsisFor(const std::string& kind,
                                                   const SynopsisOptions& opts,
                                                   const Sample& sample,
                                                   const Table& table) {
  const bool by_default = kind.empty() || kind == "off";
  AQPP_ASSIGN_OR_RETURN(
      std::shared_ptr<Synopsis> syn,
      CreateSynopsis(by_default ? kDefaultSynopsis : kind, opts));
  Status adopted = syn->BuildFromSample(sample);
  if (adopted.code() == StatusCode::kUnimplemented) {
    AQPP_RETURN_NOT_OK(syn->BuildFromTable(table));
  } else if (!adopted.ok()) {
    return adopted;
  }
  return syn;
}

void RegisterSynopsis(const std::string& kind, SynopsisFactory factory) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry()[kind] = std::move(factory);
}

std::vector<std::string> RegisteredSynopses() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> kinds;
  kinds.reserve(Registry().size());
  for (const auto& [kind, factory] : Registry()) kinds.push_back(kind);
  return kinds;
}

bool IsSynopsisRegistered(const std::string& kind) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry().count(kind) > 0;
}

// ---- Shared implementation helpers ------------------------------------------

Status CheckSameSchema(const Schema& expected, const Schema& actual) {
  if (expected.num_columns() != actual.num_columns()) {
    return Status::InvalidArgument("batch schema arity mismatch");
  }
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    if (expected.column(c).name != actual.column(c).name ||
        expected.column(c).type != actual.column(c).type) {
      return Status::InvalidArgument("batch schema mismatch at column '" +
                                     expected.column(c).name + "'");
    }
  }
  return Status::OK();
}

Status ValidateBatchDictionaries(const Table& rows, const Table& batch) {
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    if (rows.column(c).type() != DataType::kString) continue;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (!rows.column(c)
               .LookupDictionary(batch.column(c).GetString(r))
               .ok()) {
        return Status::InvalidArgument(
            "appended value '" + batch.column(c).GetString(r) +
            "' is not in the dictionary of column '" +
            rows.schema().column(c).name +
            "'; new categories require a rebuild");
      }
    }
  }
  return Status::OK();
}

Status UnshareRows(Sample* sample) {
  if (sample->rows.use_count() <= 1) return Status::OK();
  std::vector<size_t> all(sample->size());
  std::iota(all.begin(), all.end(), size_t{0});
  AQPP_ASSIGN_OR_RETURN(sample->rows, TakeRows(*sample->rows, all));
  return Status::OK();
}

Status OverwriteSlot(Table* rows, size_t slot, const Table& batch,
                     size_t row) {
  for (size_t c = 0; c < rows->num_columns(); ++c) {
    Column& dst = rows->mutable_column(c);
    const Column& src = batch.column(c);
    if (dst.type() == DataType::kDouble) {
      dst.MutableDoubleData()[slot] = src.GetDouble(row);
    } else if (dst.type() == DataType::kString) {
      AQPP_ASSIGN_OR_RETURN(int64_t code,
                            dst.LookupDictionary(src.GetString(row)));
      dst.MutableInt64Data()[slot] = code;
    } else {
      dst.MutableInt64Data()[slot] = src.GetInt64(row);
    }
  }
  return Status::OK();
}

Status ContinueReservoir(Sample* sample, size_t* rows_seen, const Table& batch,
                         Rng& rng) {
  if (sample->method != SamplingMethod::kUniform) {
    return Status::FailedPrecondition(
        "Algorithm R continues uniform reservoirs only");
  }
  // Stage-validate: an unknown category surfacing from OverwriteSlot would
  // leave a torn row and *rows_seen advanced past unabsorbed rows.
  AQPP_RETURN_NOT_OK(ValidateBatchDictionaries(*sample->rows, batch));
  AQPP_RETURN_NOT_OK(UnshareRows(sample));
  const size_t n = sample->size();
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    ++*rows_seen;
    const size_t j = static_cast<size_t>(rng.NextBounded(*rows_seen));
    if (j < n) {
      AQPP_RETURN_NOT_OK(OverwriteSlot(sample->rows.get(), j, batch, r));
    }
  }
  sample->population_size = *rows_seen;
  const double w = static_cast<double>(*rows_seen) / static_cast<double>(n);
  std::fill(sample->weights.begin(), sample->weights.end(), w);
  sample->sampling_fraction =
      static_cast<double>(n) / static_cast<double>(*rows_seen);
  return Status::OK();
}

// ---- Shared serialization helpers -------------------------------------------

void PutTable(std::string* out, const Table& table) {
  const Schema& schema = table.schema();
  PutU64(out, schema.num_columns());
  PutU64(out, table.num_rows());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    PutString(out, schema.column(c).name);
    PutU64(out, static_cast<uint64_t>(schema.column(c).type));
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const Column& col = table.column(c);
    if (col.type() == DataType::kString) {
      PutU64(out, col.dictionary().size());
      for (const std::string& v : col.dictionary()) PutString(out, v);
    }
    if (col.type() == DataType::kDouble) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        PutF64(out, col.DoubleData()[r]);
      }
    } else {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        PutI64(out, col.Int64Data()[r]);
      }
    }
  }
}

Result<std::shared_ptr<Table>> GetTable(ByteReader* r) {
  uint64_t num_cols = 0, num_rows = 0;
  if (!r->GetU64(&num_cols) || !r->GetU64(&num_rows)) {
    return Status::InvalidArgument("truncated table header");
  }
  // Fail-closed caps against hostile byte strings.
  if (num_cols == 0 || num_cols > (1u << 16) || num_rows > (1ull << 40)) {
    return Status::InvalidArgument("implausible table dimensions");
  }
  std::vector<ColumnSchema> specs;
  for (uint64_t c = 0; c < num_cols; ++c) {
    ColumnSchema spec;
    uint64_t type = 0;
    if (!r->GetString(&spec.name) || !r->GetU64(&type) || type > 2) {
      return Status::InvalidArgument("truncated table schema");
    }
    spec.type = static_cast<DataType>(type);
    specs.push_back(std::move(spec));
  }
  auto table = std::make_shared<Table>(Schema(specs));
  for (uint64_t c = 0; c < num_cols; ++c) {
    Column& col = table->mutable_column(static_cast<size_t>(c));
    if (col.type() == DataType::kString) {
      uint64_t dict_size = 0;
      if (!r->GetU64(&dict_size) || dict_size > (1ull << 32)) {
        return Status::InvalidArgument("truncated dictionary");
      }
      std::vector<std::string> dict;
      dict.reserve(static_cast<size_t>(dict_size));
      for (uint64_t i = 0; i < dict_size; ++i) {
        std::string v;
        if (!r->GetString(&v)) {
          return Status::InvalidArgument("truncated dictionary entry");
        }
        dict.push_back(std::move(v));
      }
      col.SetDictionary(std::move(dict));
    }
    if (col.type() == DataType::kDouble) {
      auto& dbls = col.MutableDoubleData();
      dbls.resize(static_cast<size_t>(num_rows));
      for (auto& v : dbls) {
        if (!r->GetF64(&v)) {
          return Status::InvalidArgument("truncated double column");
        }
      }
    } else {
      auto& ints = col.MutableInt64Data();
      ints.resize(static_cast<size_t>(num_rows));
      for (auto& v : ints) {
        if (!r->GetI64(&v)) {
          return Status::InvalidArgument("truncated int column");
        }
      }
      if (col.type() == DataType::kString) {
        for (int64_t v : ints) {
          if (v < 0 ||
              static_cast<size_t>(v) >= col.dictionary().size()) {
            return Status::InvalidArgument("string code out of dictionary");
          }
        }
      }
    }
  }
  table->SetRowCountFromColumns();
  return table;
}

void PutSample(std::string* out, const Sample& sample) {
  PutTable(out, *sample.rows);
  PutU64(out, sample.weights.size());
  for (double w : sample.weights) PutF64(out, w);
  PutU64(out, sample.strata.size());
  for (int32_t s : sample.strata) PutI64(out, s);
  PutU64(out, sample.stratum_info.size());
  for (const StratumInfo& info : sample.stratum_info) {
    PutU64(out, info.population_rows);
    PutU64(out, info.sample_rows);
  }
  PutU64(out, sample.population_size);
  PutF64(out, sample.sampling_fraction);
  PutU64(out, static_cast<uint64_t>(sample.method));
}

Result<Sample> GetSample(ByteReader* r) {
  Sample sample;
  AQPP_ASSIGN_OR_RETURN(sample.rows, GetTable(r));
  uint64_t n = 0;
  if (!r->GetU64(&n) || n != sample.rows->num_rows()) {
    return Status::InvalidArgument("weight count mismatch");
  }
  sample.weights.resize(static_cast<size_t>(n));
  for (auto& w : sample.weights) {
    if (!r->GetF64(&w)) return Status::InvalidArgument("truncated weights");
  }
  uint64_t num_strata = 0;
  if (!r->GetU64(&num_strata) ||
      (num_strata != 0 && num_strata != sample.rows->num_rows())) {
    return Status::InvalidArgument("strata count mismatch");
  }
  sample.strata.resize(static_cast<size_t>(num_strata));
  for (auto& s : sample.strata) {
    int64_t v = 0;
    if (!r->GetI64(&v) || v < 0 || v > (1 << 30)) {
      return Status::InvalidArgument("bad stratum id");
    }
    s = static_cast<int32_t>(v);
  }
  uint64_t num_info = 0;
  if (!r->GetU64(&num_info) || num_info > (1u << 24)) {
    return Status::InvalidArgument("bad stratum info count");
  }
  sample.stratum_info.resize(static_cast<size_t>(num_info));
  for (auto& info : sample.stratum_info) {
    uint64_t pop = 0, sam = 0;
    if (!r->GetU64(&pop) || !r->GetU64(&sam) || sam > pop) {
      return Status::InvalidArgument("bad stratum info");
    }
    info.population_rows = static_cast<size_t>(pop);
    info.sample_rows = static_cast<size_t>(sam);
  }
  uint64_t pop = 0, method = 0;
  if (!r->GetU64(&pop) || !r->GetF64(&sample.sampling_fraction) ||
      !r->GetU64(&method) || method > 4) {
    return Status::InvalidArgument("truncated sample scalars");
  }
  sample.population_size = static_cast<size_t>(pop);
  sample.method = static_cast<SamplingMethod>(method);
  AQPP_RETURN_NOT_OK(ValidateStrata(sample));
  return sample;
}

}  // namespace synopsis
}  // namespace aqpp
