// Shared pieces of the end-to-end benchmark program: the data and query
// generators every workload draws from, latency bookkeeping, the in-memory
// span recorder used by traced runs, and the one-line JSON report.
//
// Every input is generated here from the run's seed; the library only ever
// sees the generated table, queries and ingest batches.

#ifndef AQPP_PERFBENCH_COMMON_H_
#define AQPP_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "expr/query.h"
#include "storage/table.h"

namespace aqpp {
namespace perfbench {

// ---- Run arguments and report ----------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory inside the checkout for extent files and span dumps.
  std::string work_dir = ".bench_build/perfbench-work";
};

// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // A failed correctness check: the run reports correct=false and says why
  // on stderr.
  void Fail(const std::string& why);
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Print() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// Setup or harness errors are not measurements: the run stops with a nonzero
// exit code and prints no result line.
[[noreturn]] void Fatal(const std::string& what, const Status& st);

inline void Must(const Status& st, const char* what) {
  if (!st.ok()) Fatal(what, st);
}
template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Fatal(what, r.status());
  return std::move(r).value();
}

// ---- Data and queries ------------------------------------------------------

// TPCD-Skew column indices (workload/tpcd_skew.h column order).
constexpr size_t kQtyCol = 4;
constexpr size_t kDiscCol = 5;
constexpr size_t kShipCol = 7;
constexpr size_t kPriceCol = 10;

constexpr size_t kTableRows = 4'000'000;
constexpr double kSkew = 1.0;
constexpr size_t kSampleRows = 25'000;
// Rows the query generator draws its ranges from.
constexpr size_t kGeneratorRows = 200'000;

// The one TPCD-Skew table every workload runs on (z = 1, 4M rows).
std::shared_ptr<Table> MakeTable(uint64_t seed);

// SUM(l_extendedprice) over (l_shipdate, l_discount): d = 2.
QueryTemplate DashboardTemplate();

// The engine of the workloads that run one, prepared for the dashboard
// template: library defaults except the sample size, which defines the
// workload.
std::unique_ptr<AqppEngine> PrepareEngine(std::shared_ptr<Table> table);

constexpr AggregateFunction kFuncCycle[] = {
    AggregateFunction::kSum, AggregateFunction::kCount,
    AggregateFunction::kAvg, AggregateFunction::kVar};

inline bool IsSumCount(AggregateFunction f) {
  return f == AggregateFunction::kSum || f == AggregateFunction::kCount;
}

// `count` distinct paper-style queries (0.5-5% selectivity, QueryGenerator)
// over the template's condition columns; query i computes kFuncCycle[i % 4].
// Distinct after canonicalization, so no query of a run is a cache hit.
std::vector<RangeQuery> MakeQueries(const Table& table,
                                    const QueryTemplate& tmpl, uint64_t seed,
                                    size_t count);

// SQL text of `query` against table name "t".
std::string ToSql(const RangeQuery& query, const Table& table);

// Exact answers, computed outside any timed window.
std::vector<double> GroundTruth(const Table& table,
                                const std::vector<RangeQuery>& queries);

// ---- Measurement helpers ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline Clock::time_point After(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

bool SameBits(double a, double b);

// Progress line on stderr: "[workload] what: 1.234 s since the run began".
void Note(const Args& args, const char* what);

// Nearest-rank percentile (p in [0, 1]); 0 for an empty vector.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

double PeakRssMb();

// Times `build` `reps` times and returns the median seconds; the last
// repetition's state is what the workload then serves from.
template <typename Fn>
double MedianSetupSeconds(int reps, Fn&& build) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    build();
    s.push_back(SecondsSince(t0));
  }
  return Median(s);
}

constexpr int kSetupReps = 3;

// What one measured window completed: per-class client latencies and the
// completion time of every operation, in seconds since the window began.
struct Window {
  struct Sample {
    double at_s = 0;
    double ms = 0;
  };
  std::vector<Sample> sumcount;
  std::vector<Sample> avgvar;
  // Completed operations: answered queries and acked ingest batches.
  std::vector<double> done_s;
  double seconds = 0;

  void AddQuery(AggregateFunction f, double at_s, double ms) {
    (IsSumCount(f) ? sumcount : avgvar).push_back({at_s, ms});
    done_s.push_back(at_s);
  }
  void Merge(const Window& o);
};

// Adds the end-to-end metrics every workload reports. Each is computed on
// each fifth of the window and the median of the five is reported, so a
// burst of load from outside the program that spans less than half the
// window does not move it. Latency tails are p90: a rarer percentile swings
// between runs with a handful of stalled queries.
void AddEndToEnd(Report* report, double setup_s, const Window& window,
                 uint64_t attempted, uint64_t failed);

// Accuracy of approximate answers against exact ground truth.
struct Accuracy {
  std::vector<double> rel_error;
  std::vector<double> halfwidth_rel;
  uint64_t covered = 0;
  uint64_t scored = 0;
  void Score(double estimate, double half_width, double truth);
  // Reports accuracy.<workload>.{rel_error_p50, ci_halfwidth_rel_p50,
  // ci_coverage, scored}; `scored` is the base of the other three.
  void AddTo(Report* report, const std::string& workload) const;
};

// ---- Traced runs -----------------------------------------------------------

// In-memory span recorder. A span is (query id, name, start, end, parent);
// spans are written out only when the run ends. A layer's self time is its
// duration minus the part covered by its child spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (0 when disabled).
  uint32_t Begin(uint64_t query_id, const char* name, uint32_t parent = 0);
  void End(uint32_t span);

  // Median self time of every span named `name`, in microseconds.
  double MedianSelfUs(const std::string& name) const;

  // One JSON object per line.
  void WriteTo(const std::string& path) const;

 private:
  struct Span {
    uint64_t query_id = 0;
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t parent = 0;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;  // span id = index + 1
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, uint64_t query_id, const char* name,
             uint32_t parent = 0)
      : tracer_(t), id_(t->Begin(query_id, name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// Runs `item(tracer, i)` for every input i twice, once with recording off
// and once with it on (alternating which goes first, so warm caches favour
// neither), and reports the per-item cost of recording under `metric`:
// traced minus untraced wall time per item.
template <typename Item>
void TimeTracingOverhead(Report* report, Tracer* tracer,
                         const std::string& metric, size_t items,
                         Item&& item) {
  // A replayed call that fails stops the run (Fatal), so none is counted
  // as failed here.
  report->CountOps(2 * items, 0);
  Tracer off(false);
  double traced = 0, untraced = 0;
  for (size_t i = 0; i < items; ++i) {
    for (size_t k = 0; k < 2; ++k) {
      const bool on = k == i % 2;
      const auto t0 = Clock::now();
      item(on ? tracer : &off, i);
      (on ? traced : untraced) += SecondsSince(t0);
    }
  }
  report->Add(metric, 1e6 * (traced - untraced) / static_cast<double>(items),
              "us");
}

// Workload entry points (one file each).
void RunDashboard(const Args& args, Report* report);
void RunIngestMix(const Args& args, Report* report);
void RunExactOoc(const Args& args, Report* report);
void RunShardFanout(const Args& args, Report* report);

}  // namespace perfbench
}  // namespace aqpp

#endif  // AQPP_PERFBENCH_COMMON_H_
