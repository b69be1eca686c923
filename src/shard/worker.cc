#include "shard/worker.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/string_util.h"
#include "common/timer.h"
#include "stats/descriptive.h"
#include "core/stream_build.h"
#include "shard/partition.h"
#include "cube/partition.h"
#include "kernels/multi_scan.h"
#include "kernels/scan_internal.h"
#include "storage/column_source.h"
#include "storage/extent_file.h"

namespace aqpp {
namespace shard {
namespace {

// Cuts per dimension so the cube stays within `budget` cells: the paper's
// uniform split of the partition budget across condition attributes.
size_t CutsPerDimension(size_t budget, size_t dims) {
  double per = std::floor(std::pow(static_cast<double>(budget),
                                   1.0 / static_cast<double>(dims)));
  return std::max<size_t>(2, static_cast<size_t>(per));
}

Status ValidateQuery(const RangeQuery& query, const Table& table) {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument("shard partials are scalar-only");
  }
  if (query.func == AggregateFunction::kMin ||
      query.func == AggregateFunction::kMax) {
    return Status::InvalidArgument("shard partials do not support MIN/MAX");
  }
  if (query.func != AggregateFunction::kCount &&
      query.agg_column >= table.num_columns()) {
    return Status::InvalidArgument("aggregate column out of range");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ShardWorker>> ShardWorker::Build(
    std::shared_ptr<Table> table, const QueryTemplate& tmpl,
    uint32_t shard_index, uint32_t num_shards, uint64_t row_begin,
    const ShardWorkerOptions& options) {
  if (table == nullptr || table->num_rows() == 0) {
    return Status::InvalidArgument("shard table is empty");
  }
  if (num_shards == 0 || shard_index >= num_shards) {
    return Status::InvalidArgument("bad shard index");
  }
  if (row_begin % kernels::kShardRows != 0) {
    return Status::InvalidArgument(StrFormat(
        "shard row_begin %llu is not aligned to the %zu-row kernel grid",
        static_cast<unsigned long long>(row_begin), kernels::kShardRows));
  }
  if (tmpl.condition_columns.empty()) {
    return Status::InvalidArgument(
        "shard worker needs at least one condition column in the template");
  }
  if (options.cube_budget == 0 || options.sample_size == 0) {
    return Status::InvalidArgument(
        "shard worker needs a cube budget and a sample size");
  }

  // Equal-depth partition scheme over the template's condition columns.
  size_t cuts =
      CutsPerDimension(options.cube_budget, tmpl.condition_columns.size());
  std::vector<DimensionPartition> dims;
  for (size_t col : tmpl.condition_columns) {
    AQPP_ASSIGN_OR_RETURN(
        DimensionPartition dim,
        PartitionScheme::EqualDepthPartition(*table, col, cuts));
    dims.push_back(std::move(dim));
  }
  PartitionScheme scheme(std::move(dims));

  // One-pass cube + reservoir build, seeded per shard so every replica of
  // this shard draws the same reservoir.
  std::vector<MeasureSpec> measures = {MeasureSpec::Sum(tmpl.agg_column),
                                       MeasureSpec::Count(),
                                       MeasureSpec::SumSquares(tmpl.agg_column)};
  TableColumnSource source(table.get());
  Rng rng(ShardSeed(options.base_seed, shard_index));
  StreamBuildOptions build_opts;
  build_opts.sample_size = options.sample_size;
  build_opts.release_consumed_extents = false;
  AQPP_ASSIGN_OR_RETURN(
      StreamBuildResult built,
      BuildCubeAndSampleFromSource(source, std::move(scheme), measures, rng,
                                   build_opts));

  EngineOptions eopts;
  eopts.confidence_level = options.confidence_level;
  eopts.seed = ShardSeed(options.base_seed, shard_index);
  // AdoptPrepared builds the selected synopsis over the adopted state.
  eopts.synopsis = options.synopsis;
  AQPP_ASSIGN_OR_RETURN(std::unique_ptr<AqppEngine> engine,
                        AqppEngine::Create(table, eopts));
  AQPP_RETURN_NOT_OK(
      engine->AdoptPrepared(tmpl, std::move(built.sample), built.cube));

  auto worker = std::unique_ptr<ShardWorker>(new ShardWorker());
  worker->table_ = std::move(table);
  worker->engine_ = std::move(engine);
  worker->template_ = tmpl;
  worker->shard_index_ = shard_index;
  worker->num_shards_ = num_shards;
  worker->row_begin_ = row_begin;
  for (size_t col : tmpl.condition_columns) {
    const auto& data = worker->table_->column(col).Int64Data();
    ColumnDomain d;
    d.column = col;
    d.min = data[0];
    d.max = data[0];
    for (int64_t v : data) {
      d.min = std::min(d.min, v);
      d.max = std::max(d.max, v);
    }
    worker->domains_.push_back(d);
  }
  return worker;
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::BuildFromSlab(
    const std::string& slab_path, const QueryTemplate& tmpl,
    uint32_t shard_index, uint32_t num_shards, uint64_t row_begin,
    const ShardWorkerOptions& options) {
  AQPP_ASSIGN_OR_RETURN(std::shared_ptr<ExtentFileReader> reader,
                        ExtentFileReader::Open(slab_path));
  // Materialize the slab: the worker serves exact partials from raw column
  // pointers, and the one-pass builder over the materialized table is
  // bit-identical to streaming the extent file (PR 6 contract).
  AQPP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, reader->ReadTable());
  return Build(std::move(table), tmpl, shard_index, num_shards, row_begin,
               options);
}

Status ShardWorker::EnableIngest(IngestOptions options) {
  if (ingest_ != nullptr) {
    return Status::FailedPrecondition("ingest already enabled");
  }
  // Delta-only mode (see the header comment): the absorber would swap the
  // reservoir out from under the sample view's population_rows == rows wire
  // invariant, so shard workers never run it.
  options.background = false;
  ingest_ = std::make_unique<IngestManager>(engine_.get(), std::move(options));
  return Status::OK();
}

uint64_t ShardWorker::ingest_generation() const {
  return ingest_ != nullptr ? ingest_->generation() : 0;
}

Result<ShardPartial> ShardWorker::Partial(
    const RangeQuery& query, const PartialWants& wants, uint64_t seed,
    const CancellationToken* cancel) const {
  return std::move(PartialBatch({{query, wants, seed}}, cancel).front());
}

std::vector<Result<ShardPartial>> ShardWorker::PartialBatch(
    const std::vector<PartialRequest>& requests,
    const CancellationToken* cancel) const {
  const size_t q = requests.size();
  Timer timer;
  struct Member {
    ShardPartial out;
    Status status = Status::OK();
    bool failed = false;
  };
  std::vector<Member> members(q);
  auto fail = [&members](size_t i, Status st) {
    members[i].status = std::move(st);
    members[i].failed = true;
  };
  auto stopped = [cancel] { return cancel != nullptr && cancel->ShouldStop(); };

  for (size_t i = 0; i < q; ++i) {
    const PartialRequest& r = requests[i];
    if (Status st = ValidateQuery(r.query, *table_); !st.ok()) {
      fail(i, std::move(st));
      continue;
    }
    if (!r.wants.exact && !r.wants.sample && !r.wants.engine) {
      fail(i, Status::InvalidArgument("partial request wants no views"));
      continue;
    }
    members[i].out.shard_index = shard_index_;
    members[i].out.num_shards = num_shards_;
    members[i].out.rows = table_->num_rows();
  }

  // ---- Exact view: one fused pass over the shard's block grid. Per block,
  // every member gets a fresh accumulator and fresh adaptive-scan state, so
  // its per-block moments are bit-identical to a solo per-block scan.
  if (stopped()) {
    for (size_t i = 0; i < q; ++i) {
      if (!members[i].failed) fail(i, cancel->StopStatus());
    }
  }
  std::vector<kernels::BoundPredicate> preds(q);
  std::vector<kernels::MultiScanMember> scan_members;
  std::vector<size_t> scan_idx;
  scan_members.reserve(q);
  scan_idx.reserve(q);
  for (size_t i = 0; i < q; ++i) {
    if (members[i].failed || !requests[i].wants.exact) continue;
    auto bound = kernels::BindConditions(
        *table_, requests[i].query.predicate.conditions());
    if (!bound.ok()) {
      fail(i, bound.status());
      continue;
    }
    preds[i] = std::move(*bound);
    kernels::MultiScanMember m;
    m.pred = &preds[i];
    m.profile = kernels::ProfileFor(requests[i].query.func);
    if (requests[i].query.func != AggregateFunction::kCount) {
      m.values = kernels::ValueRef::FromColumn(
          table_->column(requests[i].query.agg_column));
    }
    scan_members.push_back(m);
    scan_idx.push_back(i);
  }
  if (!scan_members.empty()) {
    const size_t n = table_->num_rows();
    const size_t nblocks = (n + kernels::kShardRows - 1) / kernels::kShardRows;
    for (size_t idx : scan_idx) {
      members[idx].out.blocks.assign(nblocks, BlockMoments{});
    }
    std::vector<kernels::internal::ShardAccum> accs(scan_members.size());
    for (size_t b = 0; b < nblocks; ++b) {
      const size_t begin = b * kernels::kShardRows;
      const size_t end = std::min(n, begin + kernels::kShardRows);
      std::fill(accs.begin(), accs.end(), kernels::internal::ShardAccum{});
      kernels::MultiScanBlock(scan_members, begin, end,
                              kernels::ScanStrategy::kAdaptive, accs.data());
      for (size_t j = 0; j < scan_members.size(); ++j) {
        BlockMoments& blk = members[scan_idx[j]].out.blocks[b];
        blk.count = accs[j].count;
        for (size_t l = 0; l < kernels::kAccumulatorLanes; ++l) {
          blk.sum[l] = accs[j].sum[l];
          blk.sum_sq[l] = accs[j].sum_sq[l];
        }
      }
    }
    for (size_t idx : scan_idx) members[idx].out.has_exact = true;
  }

  // ---- Sample masks: one fused pass over the reservoir evaluates every
  // remaining member's predicate; the mask feeds both the sample view and
  // the engine view (ExecuteControl::query_mask).
  std::vector<size_t> mask_idx;
  std::vector<std::vector<RangeCondition>> conds;
  for (size_t i = 0; i < q; ++i) {
    if (members[i].failed) continue;
    if (!requests[i].wants.sample && !requests[i].wants.engine) continue;
    mask_idx.push_back(i);
    conds.push_back(requests[i].query.predicate.conditions());
  }
  std::vector<std::optional<std::vector<uint8_t>>> masks(q);
  std::vector<std::optional<Status>> mask_err(q);
  if (!conds.empty() && !stopped()) {
    auto fused = kernels::MultiEvaluateMask(*engine_->sample().rows, conds);
    for (size_t j = 0; j < mask_idx.size(); ++j) {
      if (fused[j].ok()) {
        masks[mask_idx[j]] = std::move(*fused[j]);
      } else {
        mask_err[mask_idx[j]] = fused[j].status();
      }
    }
  }

  for (size_t i = 0; i < q; ++i) {
    if (members[i].failed || !requests[i].wants.sample) continue;
    if (stopped()) {
      fail(i, cancel->StopStatus());
      continue;
    }
    if (mask_err[i].has_value()) {
      fail(i, *mask_err[i]);
      continue;
    }
    if (Status st = ComputeSampleWithMask(requests[i].query, *masks[i],
                                          &members[i].out);
        !st.ok()) {
      fail(i, std::move(st));
    }
  }

  for (size_t i = 0; i < q; ++i) {
    if (members[i].failed || !requests[i].wants.engine) continue;
    if (stopped()) {
      fail(i, cancel->StopStatus());
      continue;
    }
    // A member whose mask failed to bind runs without one: the engine's own
    // mask pass reproduces the identical error for this member alone.
    const std::vector<uint8_t>* qm =
        masks[i].has_value() ? &*masks[i] : nullptr;
    if (Status st = ComputeEngine(requests[i].query, requests[i].seed, cancel,
                                  qm, &members[i].out);
        !st.ok()) {
      fail(i, std::move(st));
    }
  }

  std::vector<Result<ShardPartial>> results;
  results.reserve(q);
  const double elapsed = timer.ElapsedSeconds();
  for (size_t i = 0; i < q; ++i) {
    if (members[i].failed) {
      results.push_back(members[i].status);
    } else {
      members[i].out.exec_seconds = elapsed;
      results.push_back(std::move(members[i].out));
    }
  }
  return results;
}

Status ShardWorker::ComputeSampleWithMask(const RangeQuery& query,
                                          const std::vector<uint8_t>& mask,
                                          ShardPartial* out) const {
  const Sample& sample = engine_->sample();
  const size_t n = sample.size();
  // Measure doubles materialized exactly like the estimator's MeasureCache
  // (static_cast for ordinal columns), so the stratified witness in the
  // tests reproduces these bits.
  const bool need_measure = query.func != AggregateFunction::kCount;
  const double* dbl = nullptr;
  const int64_t* i64 = nullptr;
  if (need_measure) {
    const Column& col = sample.rows->column(query.agg_column);
    if (col.type() == DataType::kDouble) {
      dbl = col.DoubleData().data();
    } else {
      i64 = col.Int64Data().data();
    }
  }
  RunningMoments mc, ms, mq;
  RunningCovariance ccs, ccq, csq;
  for (size_t i = 0; i < n; ++i) {
    const bool hit = mask[i] != 0;
    const double a =
        !need_measure ? 0.0
                      : (dbl != nullptr ? dbl[i]
                                        : static_cast<double>(i64[i]));
    const double c = hit ? 1.0 : 0.0;
    const double s = hit ? a : 0.0;
    const double q = hit ? a * a : 0.0;
    mc.Add(c);
    ms.Add(s);
    mq.Add(q);
    ccs.Add(c, s);
    ccq.Add(c, q);
    csq.Add(s, q);
  }
  StratumPartial& st = out->stratum;
  st.sample_rows = n;
  st.population_rows = table_->num_rows();
  st.mean_c = mc.mean();
  st.mean_s = ms.mean();
  st.mean_q = mq.mean();
  st.var_c = mc.variance_sample();
  st.var_s = ms.variance_sample();
  st.var_q = mq.variance_sample();
  st.cov_cs = ccs.covariance_sample();
  st.cov_cq = ccq.covariance_sample();
  st.cov_sq = csq.covariance_sample();
  out->has_sample = true;
  return Status::OK();
}

Status ShardWorker::ComputeEngine(const RangeQuery& query, uint64_t seed,
                                  const CancellationToken* cancel,
                                  const std::vector<uint8_t>* query_mask,
                                  ShardPartial* out) const {
  ExecuteControl control;
  control.cancel = cancel;
  control.seed = seed;
  control.record = false;
  control.query_mask = query_mask;
  AQPP_ASSIGN_OR_RETURN(ApproximateResult r, engine_->Execute(query, control));
  out->engine_estimate = r.ci.estimate;
  out->engine_half_width = r.ci.half_width;
  out->engine_used_pre = r.used_pre;
  // Delta-only ingest: committed-but-unabsorbed rows are folded exactly into
  // the engine view (SUM/COUNT), so the coordinator's engine merge reflects
  // every acked batch. The half-width is unchanged — the fold is exact.
  if (ingest_ != nullptr && IngestManager::FoldSupported(query.func)) {
    std::shared_ptr<const Table> delta = ingest_->delta();
    if (delta != nullptr && delta->num_rows() > 0) {
      AQPP_ASSIGN_OR_RETURN(double fold,
                            IngestManager::FoldValue(*delta, query));
      out->engine_estimate += fold;
    }
  }
  out->has_engine = true;
  return Status::OK();
}

}  // namespace shard
}  // namespace aqpp
