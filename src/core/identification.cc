#include "core/identification.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace aqpp {

namespace {

constexpr size_t kNoJob = std::numeric_limits<size_t>::max();

// Canonical phi: an all-empty box.
PreAggregate MakePhi(size_t d) {
  PreAggregate p;
  p.lo.assign(d, 0);
  p.hi.assign(d, 0);
  return p;
}

bool LessPre(const PreAggregate& a, const PreAggregate& b) {
  if (a.lo != b.lo) return a.lo < b.lo;
  return a.hi < b.hi;
}

std::vector<size_t> MemoKey(const PreAggregate& pre) {
  std::vector<size_t> key = pre.lo;
  key.insert(key.end(), pre.hi.begin(), pre.hi.end());
  return key;
}

}  // namespace

uint64_t CandidateSeed(uint64_t base_seed, const PreAggregate& pre) {
  uint64_t h = base_seed;
  auto mix = [&h](uint64_t v) {
    h += 0x9e3779b97f4a7c15ULL + v;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  };
  for (size_t v : pre.lo) mix(static_cast<uint64_t>(v));
  for (size_t v : pre.hi) mix(static_cast<uint64_t>(v));
  return h;
}

AggregateIdentifier::AggregateIdentifier(const PrefixCube* cube,
                                         const Sample* sample,
                                         IdentificationOptions options,
                                         Rng& rng)
    : cube_(cube), sample_(sample), options_(options) {
  AQPP_CHECK(cube != nullptr);
  AQPP_CHECK(sample != nullptr);
  const size_t d = cube_->scheme().num_dims();
  double rate = options_.subsample_rate;
  if (rate <= 0) {
    // Section 5.2: keep the total scoring work (|P-| * subsample rows) below
    // one pass over the full sample: rate <= 1/4^d. Keep at least ~512 rows
    // so the variance estimates stay usable.
    rate = 1.0 / std::pow(4.0, static_cast<double>(d));
    double min_rows = 512.0;
    rate = std::max(rate, min_rows / static_cast<double>(sample_->size()));
    rate = std::min(rate, 1.0);
  }
  if (options_.score_on_full_sample || rate >= 1.0) {
    scoring_sample_ = *sample_;
  } else {
    auto sub = Subsample(*sample_, rate, rng);
    AQPP_CHECK(sub.ok()) << sub.status().ToString();
    scoring_sample_ = std::move(sub).value();
  }
  scorer_ = std::make_unique<BatchCandidateScorer>(
      &scoring_sample_, &cube_->scheme(), options_.confidence_level,
      /*bootstrap_resamples=*/40);
}

std::vector<uint8_t> AggregateIdentifier::PreMaskOnSample(
    const PreAggregate& pre) const {
  // The box's columns are cube dimensions, validated against the sample's
  // schema when the cube was built: evaluation cannot fail.
  Result<std::vector<uint8_t>> mask =
      pre.ToPredicate(cube_->scheme()).EvaluateMask(*sample_->rows);
  AQPP_CHECK(mask.ok()) << mask.status().ToString();
  return std::move(mask).value();
}

void AggregateIdentifier::BracketQuery(
    const RangeQuery& query, std::vector<std::vector<size_t>>* u_cands,
    std::vector<std::vector<size_t>>* v_cands) const {
  const PartitionScheme& scheme = cube_->scheme();
  const size_t d = scheme.num_dims();
  u_cands->resize(d);
  v_cands->resize(d);
  for (size_t i = 0; i < d; ++i) {
    const DimensionPartition& dim = scheme.dim(i);
    // Intersect all query conditions on this column.
    int64_t lo = std::numeric_limits<int64_t>::min();
    int64_t hi = std::numeric_limits<int64_t>::max();
    for (const auto& c : query.predicate.conditions()) {
      if (c.column == dim.column) {
        lo = std::max(lo, c.lo);
        hi = std::min(hi, c.hi);
      }
    }
    if (lo == std::numeric_limits<int64_t>::min()) {
      (*u_cands)[i] = {0};
    } else {
      int64_t b_lo = lo - 1;  // exclusive lower boundary of the query box
      size_t l = dim.LowerBracket(b_lo);
      size_t h = dim.UpperBracket(b_lo);
      (*u_cands)[i] =
          l == h ? std::vector<size_t>{l} : std::vector<size_t>{l, h};
    }
    if (hi == std::numeric_limits<int64_t>::max()) {
      (*v_cands)[i] = {dim.num_cuts()};
    } else {
      size_t l = dim.LowerBracket(hi);
      size_t h = dim.UpperBracket(hi);
      (*v_cands)[i] =
          l == h ? std::vector<size_t>{l} : std::vector<size_t>{l, h};
    }
  }
}

std::vector<PreAggregate> AggregateIdentifier::EnumerateCandidates(
    const RangeQuery& query) const {
  const PartitionScheme& scheme = cube_->scheme();
  const size_t d = scheme.num_dims();
  std::vector<std::vector<size_t>> u_cands, v_cands;
  BracketQuery(query, &u_cands, &v_cands);

  // Cartesian product across dimensions (Equation 7).
  std::vector<size_t> arity(d);
  size_t total = 1;
  for (size_t i = 0; i < d; ++i) {
    arity[i] = u_cands[i].size() * v_cands[i].size();
    total *= arity[i];
  }

  // Dedup on the packed (lo || hi) key: every coordinate is at most
  // num_cuts + 1, so for realistic dimensionalities all 2d coordinates pack
  // into one uint64 and dedup is a sort + std::unique over flat integers
  // instead of a node-per-key red-black tree of vectors.
  size_t max_coord = 1;
  for (size_t i = 0; i < d; ++i) {
    max_coord = std::max(max_coord, scheme.dim(i).num_cuts());
  }
  unsigned width = 1;
  while ((uint64_t{1} << width) <= max_coord) ++width;
  const bool packable = 2 * d * width <= 64;
  const uint64_t coord_mask = (uint64_t{1} << width) - 1;

  std::vector<uint64_t> keys;
  std::vector<PreAggregate> raw;  // fallback when keys do not fit in 64 bits
  if (packable) {
    keys.reserve(total);
  } else {
    raw.reserve(total);
  }
  for (size_t combo = 0; combo < total; ++combo) {
    size_t rem = combo;
    PreAggregate pre;
    pre.lo.resize(d);
    pre.hi.resize(d);
    bool empty = false;
    for (size_t i = 0; i < d; ++i) {
      size_t c = rem % arity[i];
      rem /= arity[i];
      size_t u = u_cands[i][c % u_cands[i].size()];
      size_t v = v_cands[i][c / u_cands[i].size()];
      if (u >= v) empty = true;
      pre.lo[i] = u;
      pre.hi[i] = v;
    }
    if (empty) continue;  // normalized into the single phi below
    if (packable) {
      uint64_t key = 0;
      for (size_t i = 0; i < d; ++i) key = (key << width) | pre.lo[i];
      for (size_t i = 0; i < d; ++i) key = (key << width) | pre.hi[i];
      keys.push_back(key);
    } else {
      raw.push_back(std::move(pre));
    }
  }

  std::vector<PreAggregate> out;
  if (packable) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    out.reserve(keys.size() + 1);
    for (uint64_t key : keys) {
      PreAggregate pre;
      pre.lo.resize(d);
      pre.hi.resize(d);
      for (size_t i = d; i-- > 0;) {
        pre.hi[i] = static_cast<size_t>(key & coord_mask);
        key >>= width;
      }
      for (size_t i = d; i-- > 0;) {
        pre.lo[i] = static_cast<size_t>(key & coord_mask);
        key >>= width;
      }
      out.push_back(std::move(pre));
    }
  } else {
    std::sort(raw.begin(), raw.end(), LessPre);
    raw.erase(std::unique(raw.begin(), raw.end(),
                          [](const PreAggregate& a, const PreAggregate& b) {
                            return a.lo == b.lo && a.hi == b.hi;
                          }),
              raw.end());
    out = std::move(raw);
  }
  out.push_back(MakePhi(d));
  return out;
}

PreValues AggregateIdentifier::ReadPreValues(const PreAggregate& pre) const {
  PreValues v;
  // Cube planes are laid out per the engine convention:
  // plane 0 = SUM(A), plane 1 = COUNT, plane 2 = SUM(A^2) (if present).
  if (cube_->num_measures() > 0) v.sum = cube_->BoxValue(pre, 0);
  if (cube_->num_measures() > 1) v.count = cube_->BoxValue(pre, 1);
  if (cube_->num_measures() > 2) v.sum_sq = cube_->BoxValue(pre, 2);
  return v;
}

Result<std::vector<double>> AggregateIdentifier::ScoreBatch(
    const BatchCandidateScorer::QueryContext& ctx,
    const std::vector<PreAggregate>& cands, uint64_t base_seed,
    ScoreMemo* memo) const {
  std::vector<double> scores(cands.size(), 0.0);

  // Collapse memo hits and intra-batch duplicates down to one scoring job
  // per distinct box. With memo == nullptr (caller guarantees the batch is
  // already deduplicated, e.g. EnumerateCandidates output) the key/map
  // machinery is skipped entirely and every candidate is one job.
  struct Job {
    size_t cand;
    uint64_t seed;
  };
  std::vector<Job> jobs;
  std::vector<size_t> job_of(cands.size(), kNoJob);
  std::map<std::vector<size_t>, size_t> pending;
  if (memo == nullptr) {
    jobs.reserve(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
      job_of[i] = jobs.size();
      jobs.push_back({i, CandidateSeed(base_seed, cands[i])});
    }
  } else {
    for (size_t i = 0; i < cands.size(); ++i) {
      std::vector<size_t> key = MemoKey(cands[i]);
      auto hit = memo->find(key);
      if (hit != memo->end()) {
        scores[i] = hit->second;
        continue;
      }
      auto [it, fresh] = pending.emplace(std::move(key), jobs.size());
      job_of[i] = it->second;
      if (fresh) jobs.push_back({i, CandidateSeed(base_seed, cands[i])});
    }
  }

  std::vector<double> job_scores(jobs.size(), 0.0);
  // Hull of the batch's non-empty boxes: a row outside both the query and
  // the hull has an exactly-zero difference for every job, so one sweep
  // here lets each Score call walk only the rows that can matter.
  PreAggregate hull;
  bool have_hull = false;
  for (const Job& job : jobs) {
    const PreAggregate& pre = cands[job.cand];
    bool box_empty = false;
    for (size_t i = 0; i < pre.lo.size(); ++i) {
      if (pre.lo[i] >= pre.hi[i]) {
        box_empty = true;
        break;
      }
    }
    if (box_empty) continue;
    if (!have_hull) {
      hull = pre;
      have_hull = true;
    } else {
      for (size_t i = 0; i < pre.lo.size(); ++i) {
        hull.lo[i] = std::min(hull.lo[i], pre.lo[i]);
        hull.hi[i] = std::max(hull.hi[i], pre.hi[i]);
      }
    }
  }
  // Cell grouping costs one sort of the active rows; it only pays for
  // itself once enough candidates reuse the groups.
  constexpr size_t kGroupMinJobs = 12;
  const BatchCandidateScorer::ActiveSet active =
      jobs.empty()
          ? BatchCandidateScorer::ActiveSet{}
          : scorer_->ActiveRows(ctx, have_hull ? &hull : nullptr,
                                /*group=*/jobs.size() >= kGroupMinJobs);

  // Each job derives its candidate mask from the cell-id matrix and
  // accumulates moments in one fused sweep over the active rows, in parallel
  // on the pool. Seeding is per-job, so the schedule cannot change any
  // score.
  std::mutex err_mu;
  Status status = Status::OK();
  ParallelForEach(
      jobs.size(),
      [&](size_t j) {
        const PreAggregate& pre = cands[jobs[j].cand];
        Rng job_rng(jobs[j].seed);
        PreValues values = ReadPreValues(pre);
        auto score = scorer_->Score(ctx, pre, values, job_rng, &active);
        if (score.ok()) {
          job_scores[j] = *score;
        } else {
          std::lock_guard<std::mutex> lock(err_mu);
          if (status.ok()) status = score.status();
        }
      },
      options_.scoring_pool);
  AQPP_RETURN_NOT_OK(status);

  if (memo != nullptr) {
    for (const auto& [key, j] : pending) memo->emplace(key, job_scores[j]);
  }
  for (size_t i = 0; i < cands.size(); ++i) {
    if (job_of[i] != kNoJob) scores[i] = job_scores[job_of[i]];
  }
  return scores;
}

bool AggregateIdentifier::UsesGreedy(const RangeQuery& query) const {
  // Candidate-count guard: 4^d blows up around d ~ 6; use the greedy
  // per-dimension refinement there instead.
  std::vector<std::vector<size_t>> u_cands, v_cands;
  BracketQuery(query, &u_cands, &v_cands);
  const size_t limit = options_.max_enumerated_candidates;
  size_t total = 1;
  for (size_t i = 0; i < u_cands.size(); ++i) {
    // BracketQuery gives every dimension at least one bracket per side, so
    // arity >= 1; the division guards the product against overflow.
    const size_t arity = u_cands[i].size() * v_cands[i].size();
    if (total > limit / arity) return true;
    total *= arity;
  }
  return total > limit;
}

Result<IdentifiedAggregate> AggregateIdentifier::IdentifyGreedy(
    const RangeQuery& query, const BatchCandidateScorer::QueryContext& ctx,
    Rng& rng, obs::QueryTrace* trace) const {
  const size_t d = cube_->scheme().num_dims();
  std::vector<std::vector<size_t>> u_cands, v_cands;
  BracketQuery(query, &u_cands, &v_cands);

  const uint64_t base_seed = rng.Next();
  ScoreMemo memo;

  // Start from the loosest box (every dimension at its outer brackets) and
  // refine one dimension at a time, keeping the subsample-scored best.
  PreAggregate current;
  current.lo.resize(d);
  current.hi.resize(d);
  for (size_t i = 0; i < d; ++i) {
    current.lo[i] = u_cands[i].front();
    current.hi[i] = v_cands[i].back();
    if (current.lo[i] >= current.hi[i]) {
      current.lo[i] = 0;
      current.hi[i] = cube_->scheme().dim(i).num_cuts();
    }
  }
  for (size_t i = 0; i < d; ++i) {
    std::vector<PreAggregate> trials;
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t u : u_cands[i]) {
      for (size_t v : v_cands[i]) {
        if (u >= v) continue;
        PreAggregate trial = current;
        trial.lo[i] = u;
        trial.hi[i] = v;
        trials.push_back(std::move(trial));
        pairs.emplace_back(u, v);
      }
    }
    if (trials.empty()) continue;
    obs::SpanTimer score_span(obs::Phase::kScoring, trace);
    AQPP_ASSIGN_OR_RETURN(std::vector<double> errs,
                          ScoreBatch(ctx, trials, base_seed, &memo));
    score_span.Stop();
    double best_err = std::numeric_limits<double>::infinity();
    std::pair<size_t, size_t> best_pair{current.lo[i], current.hi[i]};
    for (size_t t = 0; t < trials.size(); ++t) {
      if (errs[t] < best_err) {
        best_err = errs[t];
        best_pair = pairs[t];
      }
    }
    current.lo[i] = best_pair.first;
    current.hi[i] = best_pair.second;
  }
  // Final sanity comparison against phi (both usually memo hits by now).
  obs::SpanTimer final_span(obs::Phase::kScoring, trace);
  AQPP_ASSIGN_OR_RETURN(
      std::vector<double> finals,
      ScoreBatch(ctx, {current, MakePhi(d)}, base_seed, &memo));
  final_span.Stop();

  IdentifiedAggregate best;
  best.pre = finals[1] < finals[0] ? MakePhi(d) : current;
  best.scored_error = std::min(finals[0], finals[1]);
  {
    obs::SpanTimer probe_span(obs::Phase::kCubeProbe, trace);
    best.values = ReadPreValues(best.pre);
  }
  best.num_candidates = memo.size();
  return best;
}

Result<IdentifiedAggregate> AggregateIdentifier::Identify(
    const RangeQuery& query, Rng& rng, obs::QueryTrace* trace) const {
  AQPP_ASSIGN_OR_RETURN(BatchCandidateScorer::QueryContext ctx,
                        scorer_->Prepare(query));
  if (UsesGreedy(query)) return IdentifyGreedy(query, ctx, rng, trace);
  std::vector<PreAggregate> candidates = EnumerateCandidates(query);
  AQPP_CHECK(!candidates.empty());

  const uint64_t base_seed = rng.Next();
  // EnumerateCandidates output is already deduplicated; no memo needed.
  obs::SpanTimer score_span(obs::Phase::kScoring, trace);
  AQPP_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      ScoreBatch(ctx, candidates, base_seed, /*memo=*/nullptr));
  score_span.Stop();

  // Sequential argmin with first-wins ties: deterministic regardless of how
  // the scoring jobs were scheduled.
  IdentifiedAggregate best;
  double best_error = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] < best_error) {
      best_error = scores[i];
      best.pre = candidates[i];
    }
  }
  {
    obs::SpanTimer probe_span(obs::Phase::kCubeProbe, trace);
    best.values = ReadPreValues(best.pre);
  }
  best.scored_error = best_error;
  best.num_candidates = candidates.size();
  return best;
}

Result<std::vector<ScoredCandidate>> AggregateIdentifier::ScoreAll(
    const RangeQuery& query, Rng& rng) const {
  AQPP_ASSIGN_OR_RETURN(BatchCandidateScorer::QueryContext ctx,
                        scorer_->Prepare(query));
  std::vector<ScoredCandidate> scored;
  if (UsesGreedy(query)) {
    // High d: report only the greedy winner and phi.
    AQPP_ASSIGN_OR_RETURN(auto greedy,
                          IdentifyGreedy(query, ctx, rng, /*trace=*/nullptr));
    scored.push_back({greedy.pre, greedy.scored_error});
    if (!greedy.pre.IsEmpty()) {
      const uint64_t base_seed = rng.Next();
      PreAggregate phi = MakePhi(cube_->scheme().num_dims());
      AQPP_ASSIGN_OR_RETURN(
          std::vector<double> phi_err,
          ScoreBatch(ctx, {phi}, base_seed, /*memo=*/nullptr));
      scored.push_back({phi, phi_err[0]});
    }
  } else {
    std::vector<PreAggregate> candidates = EnumerateCandidates(query);
    const uint64_t base_seed = rng.Next();
    AQPP_ASSIGN_OR_RETURN(
        std::vector<double> errs,
        ScoreBatch(ctx, candidates, base_seed, /*memo=*/nullptr));
    for (size_t i = 0; i < candidates.size(); ++i) {
      scored.push_back({candidates[i], errs[i]});
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.scored_error < b.scored_error;
            });
  return scored;
}

Result<IdentifiedAggregate> AggregateIdentifier::IdentifyBruteForce(
    const RangeQuery& query, Rng& rng) const {
  const PartitionScheme& scheme = cube_->scheme();
  const size_t d = scheme.num_dims();
  // All index pairs (u <= v) per dimension, i.e. the whole of P+.
  std::vector<std::vector<std::pair<size_t, size_t>>> per_dim(d);
  for (size_t i = 0; i < d; ++i) {
    size_t k = scheme.dim(i).num_cuts();
    for (size_t u = 0; u <= k; ++u) {
      for (size_t v = u + 1; v <= k; ++v) {
        per_dim[i].push_back({u, v});
      }
    }
    AQPP_CHECK(!per_dim[i].empty());
  }
  // Score candidates on the *full* sample for an exact comparison.
  SampleEstimator estimator(sample_,
                            {.confidence_level = options_.confidence_level,
                             .bootstrap_resamples = 40});
  auto score = [&](const PreAggregate& pre) -> Result<double> {
    RangePredicate pre_pred = pre.ToPredicate(scheme);
    PreValues values = ReadPreValues(pre);
    AQPP_ASSIGN_OR_RETURN(
        auto ci, estimator.EstimateWithPre(query, pre_pred, values, rng));
    return ci.half_width;
  };

  IdentifiedAggregate best;
  best.pre = MakePhi(d);
  AQPP_ASSIGN_OR_RETURN(double phi_err, score(best.pre));
  double best_error = phi_err;
  size_t count = 1;

  std::vector<size_t> idx(d, 0);
  while (true) {
    PreAggregate pre;
    pre.lo.resize(d);
    pre.hi.resize(d);
    for (size_t i = 0; i < d; ++i) {
      pre.lo[i] = per_dim[i][idx[i]].first;
      pre.hi[i] = per_dim[i][idx[i]].second;
    }
    AQPP_ASSIGN_OR_RETURN(double err, score(pre));
    ++count;
    if (err < best_error) {
      best_error = err;
      best.pre = pre;
    }
    // Advance the mixed-radix counter.
    size_t i = 0;
    while (i < d && ++idx[i] == per_dim[i].size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == d) break;
  }
  best.values = ReadPreValues(best.pre);
  best.scored_error = best_error;
  best.num_candidates = count;
  return best;
}

}  // namespace aqpp
