// Deterministic chaos harness for the service stack.
//
// A ChaosRunner stands up the full production path — synthetic table, a
// prepared AqppEngine, QueryService, ServiceServer on an ephemeral TCP port —
// and drives concurrent clients against it while flipping failpoints
// according to a *schedule* that is a pure function of the seed:
//
//   seed ──BuildSchedule()──▶ query pool + per-phase fault plans
//                                   │
//          phase 0..n-2: enable plan's failpoints, run all clients,
//                        classify every reply          (faulty phases)
//          phase n-1:    all failpoints off, run all clients,
//                        every reply must be OK        (recovery phase)
//
// Invariants checked per reply (violations collected in the report):
//   * exactly one terminal outcome — OK, partial-with-wider-CI, or a typed
//     error from the allowed set; a hang trips the test timeout instead
//   * a non-partial OK answer is bit-identical to the fault-free baseline
//     (seeded canonical execution makes the baseline exact), so a fault can
//     never silently corrupt an answer that claims full precision
//   * a partial answer's CI is no tighter than the baseline's and finite
//   * a dropped connection surfaces as IOError and a reconnect succeeds
//
// Because the schedule (and every client's query sequence and retry jitter)
// derives from the seed, two runs with the same seed — at ANY worker count —
// produce the same schedule fingerprint and bit-identical surviving answers.
// Thread interleaving only moves faults between requests; it cannot change
// what a surviving answer looks like.

#ifndef AQPP_TESTING_CHAOS_H_
#define AQPP_TESTING_CHAOS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"

namespace aqpp {
namespace testing {

// One failpoint activation in a phase plan.
struct FaultSpec {
  std::string point;
  fail::Trigger trigger;
  fail::Action action;

  // Canonical one-line rendering; the schedule fingerprint hashes these.
  std::string Describe() const;
};

// What one chaos phase does: which faults are live and the session deadline
// clients request (0 = no deadline).
struct PhasePlan {
  std::string description;
  std::vector<FaultSpec> faults;
  int timeout_ms = 0;
};

// The full deterministic plan for a run.
struct ChaosSchedule {
  std::vector<std::string> queries;  // SQL pool, shared by all phases
  std::vector<PhasePlan> phases;     // last phase is always fault-free
};

struct ChaosOptions {
  uint64_t seed = 1;
  // Phases including the final fault-free recovery phase (>= 2).
  size_t num_phases = 4;
  size_t clients = 4;
  // Queries each client issues per phase.
  size_t queries_per_client = 6;
  // Distinct SQL statements in the pool.
  size_t num_queries = 4;
  // Synthetic table rows.
  size_t rows = 20000;
  // Admission worker threads — the determinism axis: reports from different
  // worker counts must agree on fingerprint and surviving answers.
  size_t admission_workers = 4;
};

struct ChaosReport {
  uint64_t schedule_fingerprint = 0;
  // Reply classification across all phases.
  uint64_t total = 0;
  uint64_t ok = 0;         // full-precision answers (baseline-checked)
  uint64_t cache_hits = 0;
  uint64_t partial = 0;    // deadline-degraded answers (CI-width-checked)
  uint64_t rejected = 0;   // kResourceExhausted that out-lasted the retry loop
  uint64_t unavailable = 0;
  uint64_t deadline = 0;
  uint64_t io_errors = 0;  // dropped connections (each followed by reconnect)
  uint64_t reconnects = 0;
  // Invariant breaches; empty == the run passed.
  std::vector<std::string> violations;
  // Final-phase answers per query index, "%.17g"-exact: the cross-run /
  // cross-worker-count bit-identity witness.
  std::vector<std::string> final_answers;
  // Failpoint evaluation/fire counts of every faulty phase, phase by phase.
  std::string trip_log;
};

class ChaosRunner {
 public:
  explicit ChaosRunner(ChaosOptions options) : options_(options) {}

  // Pure function of options_.seed (and the shape options); no side effects.
  ChaosSchedule BuildSchedule() const;

  // Stable hash of a schedule; equal seeds must yield equal fingerprints.
  static uint64_t Fingerprint(const ChaosSchedule& schedule);

  // Executes the schedule against a freshly built service stack. Requires
  // failpoints compiled in (fail::kCompiledIn) for the faulty phases to do
  // anything; without them the run degenerates to a clean soak.
  ChaosReport Run();

 private:
  ChaosOptions options_;
};

}  // namespace testing
}  // namespace aqpp

#endif  // AQPP_TESTING_CHAOS_H_
