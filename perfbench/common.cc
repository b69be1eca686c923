#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_set>

#include "exec/executor.h"
#include "service/result_cache.h"
#include "shard/partition.h"
#include "sql/formatter.h"
#include "workload/query_gen.h"
#include "workload/tpcd_skew.h"

namespace aqpp {
namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    // %.17g keeps every digit; non-finite values are not JSON and would be
    // a harness bug, so they print as null and fail any JSON parser loudly.
    const double v = metrics_[i].second.first;
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Fatal(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::fflush(stderr);
  // Server and pool threads may still be running; skip static destructors.
  std::_Exit(1);
}

std::shared_ptr<Table> MakeTable(uint64_t seed) {
  TpcdSkewOptions opt;
  opt.rows = kTableRows;
  opt.skew = kSkew;
  opt.seed = seed;
  return Must(GenerateTpcdSkew(opt), "generating the TPCD-Skew table");
}

QueryTemplate DashboardTemplate() {
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = kPriceCol;
  tmpl.condition_columns = {kShipCol, kDiscCol};
  return tmpl;
}

std::unique_ptr<AqppEngine> PrepareEngine(std::shared_ptr<Table> table) {
  EngineOptions opt;
  opt.sample_rate =
      static_cast<double>(kSampleRows) / static_cast<double>(table->num_rows());
  auto engine = Must(AqppEngine::Create(std::move(table), opt),
                     "creating the engine");
  Must(engine->Prepare(DashboardTemplate()), "preparing the engine");
  return engine;
}

std::vector<RangeQuery> MakeQueries(const Table& table,
                                    const QueryTemplate& tmpl, uint64_t seed,
                                    size_t count) {
  // Table rows are i.i.d., so a leading slice is a uniform sample: ranges
  // drawn from its marginals have the paper's selectivities on the whole
  // table, and the generators' per-column sorts stay small.
  std::shared_ptr<Table> head = Must(
      shard::SliceShard(table, {0, std::min<uint64_t>(table.num_rows(),
                                                       kGeneratorRows)}),
      "slicing the generator table");
  // Generation calibrates every draw, so it runs on one thread per core;
  // each thread's generator has its own seed and the lists merge in a fixed
  // order, so the result depends only on `seed`.
  constexpr size_t kThreads = 4;
  std::vector<std::vector<RangeQuery>> drawn(kThreads);
  auto draw = [&](size_t t, size_t n, uint64_t stream) {
    QueryGenerator gen(head.get(), tmpl, QueryGenOptions(),
                       seed * kThreads + stream);
    drawn[t] = Must(gen.GenerateMany(n), "generating queries");
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(draw, t, count / kThreads + 8, t);
  }
  for (auto& th : threads) th.join();

  QueryCanonicalizer canon(&table);
  std::unordered_set<std::string> seen;
  std::vector<RangeQuery> out;
  out.reserve(count);
  uint64_t refills = 0;
  for (size_t k = 0; out.size() < count; ++k) {
    if (k == drawn[0].size()) {
      // Duplicates ran the lists dry: draw more from a fresh stream.
      draw(0, count - out.size() + 8, kThreads + refills++);
      k = 0;
    }
    for (size_t t = 0; t < kThreads && out.size() < count; ++t) {
      if (k >= drawn[t].size()) continue;
      RangeQuery q = drawn[t][k];
      q.func = kFuncCycle[out.size() % 4];
      q.agg_column = tmpl.agg_column;
      if (!seen.insert(canon.Canonicalize(q).key).second) continue;
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::string ToSql(const RangeQuery& query, const Table& table) {
  return Must(FormatQuery(query, table, "t"), "formatting SQL");
}

std::vector<double> GroundTruth(const Table& table,
                                const std::vector<RangeQuery>& queries) {
  ExactExecutor exact(&table);
  std::vector<double> truth;
  truth.reserve(queries.size());
  for (const RangeQuery& q : queries) {
    truth.push_back(Must(exact.Execute(q), "exact ground truth"));
  }
  return truth;
}

namespace {
const Clock::time_point g_start = Clock::now();
}  // namespace

void Note(const Args& args, const char* what) {
  std::fprintf(stderr, "[%s] %s: %.3f s\n", args.workload.c_str(), what,
               SecondsSince(g_start));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t k = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  double mb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

void Window::Merge(const Window& o) {
  sumcount.insert(sumcount.end(), o.sumcount.begin(), o.sumcount.end());
  avgvar.insert(avgvar.end(), o.avgvar.begin(), o.avgvar.end());
  done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
}

namespace {

constexpr size_t kSlices = 5;

size_t SliceOf(double at_s, double seconds) {
  const double k = at_s / seconds * static_cast<double>(kSlices);
  return std::min(kSlices - 1, static_cast<size_t>(std::max(0.0, k)));
}

// Median over the window's slices of the `p` percentile of each slice's
// samples (slices without samples are skipped).
double SlicedPercentile(const std::vector<Window::Sample>& samples,
                        double seconds, double p) {
  std::vector<std::vector<double>> slices(kSlices);
  for (const Window::Sample& s : samples) {
    slices[SliceOf(s.at_s, seconds)].push_back(s.ms);
  }
  std::vector<double> per_slice;
  for (const auto& v : slices) {
    if (!v.empty()) per_slice.push_back(Percentile(v, p));
  }
  return Median(per_slice);
}

}  // namespace

void AddEndToEnd(Report* report, double setup_s, const Window& window,
                 uint64_t attempted, uint64_t failed) {
  report->CountOps(attempted, failed);
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> done(kSlices, 0);
  for (double t : window.done_s) done[SliceOf(t, window.seconds)] += 1;
  for (double& d : done) d /= window.seconds / static_cast<double>(kSlices);
  report->Add("ops_per_s", Median(done), "1/s");
  report->Add("sumcount_p50_ms",
              SlicedPercentile(window.sumcount, window.seconds, 0.50), "ms");
  report->Add("sumcount_p90_ms",
              SlicedPercentile(window.sumcount, window.seconds, 0.90), "ms");
  report->Add("avgvar_p50_ms",
              SlicedPercentile(window.avgvar, window.seconds, 0.50), "ms");
  report->Add("avgvar_p90_ms",
              SlicedPercentile(window.avgvar, window.seconds, 0.90), "ms");
  report->Add("success_frac",
              attempted == 0 ? 0.0
                             : static_cast<double>(attempted - failed) /
                                   static_cast<double>(attempted),
              "share");
  std::fprintf(stderr,
               "samples: sumcount=%zu avgvar=%zu ops=%zu, window %.2fs, "
               "attempted=%" PRIu64 " failed=%" PRIu64 "\n",
               window.sumcount.size(), window.avgvar.size(),
               window.done_s.size(), window.seconds, attempted, failed);
}

void Accuracy::Score(double estimate, double half_width, double truth) {
  ++scored;
  if (std::fabs(estimate - truth) <= half_width) ++covered;
  if (truth != 0) {
    rel_error.push_back(std::fabs(estimate - truth) / std::fabs(truth));
    halfwidth_rel.push_back(half_width / std::fabs(truth));
  }
}

void Accuracy::AddTo(Report* report, const std::string& workload) const {
  const std::string p = "accuracy." + workload + ".";
  report->Add(p + "rel_error_p50", Median(rel_error), "ratio");
  report->Add(p + "ci_halfwidth_rel_p50", Median(halfwidth_rel), "ratio");
  report->Add(p + "ci_coverage",
              scored == 0 ? 0.0
                          : static_cast<double>(covered) /
                                static_cast<double>(scored),
              "share");
  report->Add(p + "scored", static_cast<double>(scored), "count");
}

uint32_t Tracer::Begin(uint64_t query_id, const char* name, uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.query_id = query_id;
  s.name = name;
  s.parent = parent;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t span) {
  if (span == 0) return;
  spans_[span - 1].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - epoch_)
                                .count();
}

double Tracer::MedianSelfUs(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    self.push_back(
        1e-3 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                   child_ns[i + 1]));
  }
  return Median(self);
}

void Tracer::WriteTo(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"query\": " << s.query_id
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << "}\n";
  }
}

}  // namespace perfbench
}  // namespace aqpp
