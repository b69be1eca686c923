// Streaming ingest (Appendix C, "Data updates"): an in-memory delta of
// appended rows kept exactly, plus a background absorber that folds the delta
// into the engine's prepared state (cube + reservoir + active synopsis).
// `Append` is the only way appended rows reach that state.
//
// The consistency model has two layers:
//
//  * The delta. `Append` stage-validates a batch (schema, dictionary
//    membership, cube-domain last-cut guard, finite doubles, and a
//    non-aligned synopsis's ValidateAbsorb) and then commits
//    it by publishing a new immutable delta table — copy-on-write, so a
//    reader that snapshotted the previous delta keeps scanning a stable
//    table. Every commit bumps `committed_generation` and fires the commit
//    observer (the service registers cache invalidation there). Queries scan
//    the delta exactly and fold it into their answers (SUM/COUNT), so a
//    committed batch is visible to the very next query.
//
//  * The absorber. A background thread (or AbsorbNow in manual mode) takes a
//    delta snapshot, prepares *candidate* state outside any lock — a cloned
//    cube plus a delta cube built over the snapshot (a linear prefix-cube
//    merge), a copy of the sample continued by synopsis::ContinueReservoir
//    (Vitter's algorithm R), and, when the active synopsis is not
//    engine-aligned, a serialized clone of it absorbed via
//    Synopsis::Absorb — and then publishes all of them under one exclusive
//    acquisition of `state_mutex()` (an engine-aligned synopsis is re-adopted
//    over the published sample there), truncating
//    the absorbed delta prefix in the same critical section. Query execution
//    holds `state_mutex()` shared for its whole engine pass + delta fold, so
//    readers never observe a half-swapped engine, and a row is counted in
//    exactly one of {delta, published state}. Any failure before the publish
//    (including the injected ones below) discards the candidates and leaves
//    the prior generation readable bit-identically.
//
// Failpoints (compiled in with AQPP_ENABLE_FAILPOINTS):
//   ingest/append         batch rejected at the enqueue seam (nothing commits)
//   ingest/delta_fold     exact delta fold fails (query-side read seam)
//   ingest/absorb_commit  absorb cycle aborts while preparing candidates
//   ingest/swap           absorb cycle aborts at the publish point
//
// Known limitation: MIN/MAX extrema grids are not maintained — engines with
// `enable_extrema` answer MIN/MAX from base data only (docs/ingest.md).

#ifndef AQPP_CORE_INGEST_H_
#define AQPP_CORE_INGEST_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/engine.h"
#include "expr/query.h"
#include "storage/table.h"

namespace aqpp {

struct IngestOptions {
  // Delta rows beyond which the background absorber folds the delta into the
  // prepared state.
  size_t absorb_threshold_rows = 4096;
  // Periodic absorber wakeup (it also wakes on every threshold crossing).
  double absorb_interval_seconds = 0.25;
  // Appends are rejected (ResourceExhausted) while the delta holds this many
  // rows — backpressure when the absorber cannot keep up.
  size_t max_delta_rows = 1 << 20;
  // Largest accepted batch (protocol-level bound; oversized batches are
  // rejected before validation).
  size_t max_batch_rows = 1 << 16;
  // When false, no background thread runs and absorbs happen only through
  // AbsorbNow() — the deterministic-replay mode the soak fingerprint test
  // uses.
  bool background = true;
  // Seed for the reservoir continuation and synopsis absorb determinism.
  // Cycle seeds are derived from (seed, rows absorbed so far), so a failed
  // cycle retries with the same draw and equal schedules reproduce equal
  // state.
  uint64_t seed = 0x1234;
};

struct IngestSnapshot {
  // Bumped on every committed batch and every absorb publish; the freshness
  // token the wire reports as `generation=`.
  uint64_t committed_generation = 0;
  // Bumped once per successful absorb publish.
  uint64_t absorbed_generation = 0;
  uint64_t batches_committed = 0;
  uint64_t rows_committed = 0;
  uint64_t rows_absorbed = 0;
  uint64_t absorb_failures = 0;
  size_t delta_rows = 0;
  // Base-table rows + every committed row (what COUNT(*) should report).
  uint64_t total_rows = 0;
};

class IngestManager {
 public:
  // `engine` is borrowed and must outlive the manager; it must be prepared
  // (sample drawn) before ingest traffic. Call Start() to begin absorbing.
  IngestManager(AqppEngine* engine, IngestOptions options = {});
  ~IngestManager();

  IngestManager(const IngestManager&) = delete;
  IngestManager& operator=(const IngestManager&) = delete;

  // Spawns the background absorber (no-op when options.background is false).
  Status Start();
  // Stops the absorber thread; committed-but-unabsorbed delta rows stay
  // readable. Idempotent; the destructor calls it.
  void Stop();

  // Stage-validates `batch` and commits it to the delta. All-or-nothing: a
  // batch that fails any check (non-uniform engine sample, schema, unknown
  // dictionary value, value past a cube dimension's last cut, non-finite
  // double, a batch a non-aligned synopsis would refuse to absorb,
  // size/backpressure bound) leaves no trace. Thread-safe.
  Status Append(const Table& batch);

  // Runs one absorb cycle synchronously (waits out a concurrent background
  // cycle). OK when the delta was empty.
  Status AbsorbNow();

  // Readers (query execution) hold this shared for engine pass + delta fold;
  // the absorber takes it exclusively only for the publish swap.
  std::shared_mutex& state_mutex() const { return state_mu_; }

  // Immutable snapshot of the current delta (never mutated after publish).
  std::shared_ptr<const Table> delta() const;

  IngestSnapshot snapshot() const;
  uint64_t generation() const;

  // Invoked after every delta commit and every absorb publish (outside the
  // locks). The service registers result-cache invalidation here.
  void set_commit_observer(std::function<void()> observer);

  // Exact aggregate of `query` over `delta` (row-at-a-time scan; the delta
  // is small by construction). SUM and COUNT only — the fold contract other
  // aggregates opt out of (they answer from published state until the
  // absorber catches up).
  static Result<double> FoldValue(const Table& delta, const RangeQuery& query);
  static bool FoldSupported(AggregateFunction func) {
    return func == AggregateFunction::kSum || func == AggregateFunction::kCount;
  }

 private:
  Status ValidateBatch(const Table& batch) const;
  // One absorb cycle: snapshot -> candidates -> exclusive publish.
  Status AbsorbCycle();
  void AbsorberLoop();
  void NotifyObserver();

  AqppEngine* engine_;
  IngestOptions options_;

  // Reader/absorber state lock (see header comment).
  mutable std::shared_mutex state_mu_;

  // Guards the delta pointer and the counters.
  mutable std::mutex delta_mu_;
  std::shared_ptr<const Table> delta_;
  uint64_t committed_generation_ = 0;
  uint64_t absorbed_generation_ = 0;
  uint64_t batches_committed_ = 0;
  uint64_t rows_committed_ = 0;
  uint64_t rows_absorbed_ = 0;
  uint64_t absorb_failures_ = 0;

  // Serializes absorb cycles (background thread vs AbsorbNow).
  std::mutex absorb_mu_;

  std::mutex observer_mu_;
  std::function<void()> observer_;

  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool wake_ = false;
  std::thread absorber_;
};

}  // namespace aqpp

#endif  // AQPP_CORE_INGEST_H_
