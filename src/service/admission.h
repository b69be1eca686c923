// Admission control: a bounded, session-fair queue in front of the engine.
//
// The engine's scans already fan out across cores (the global ThreadPool),
// so the service must not oversubscribe the machine by running every request
// at once — and it must not queue without bound either, or a burst turns
// into unbounded latency. AdmissionController therefore:
//
//  * runs a fixed pool of dedicated worker threads (the fork-join ThreadPool
//    in common/ is the wrong shape here: its Run() blocks the caller, while
//    admission needs fire-and-signal tasks with its own queue discipline);
//  * bounds the queue globally and per session, rejecting overflow with
//    ResourceExhausted plus a retry-after hint derived from an EWMA of
//    observed service times — explicit backpressure instead of a hang;
//  * drains sessions round-robin, so one chatty client cannot starve the
//    others (per-session FIFO, cross-session fairness);
//  * hands every job to one runner as part of a batch: a worker pops the
//    whole queue in round-robin order, and that pop order is the batch
//    order. A lone request is a batch of one; there are no batch keys and
//    no solo path;
//  * on Stop(), cancels whatever is still queued and runs it anyway through
//    the same runner — every job's promise is fulfilled (with Cancelled),
//    so no waiter is left hanging.
//
// Deadlines are not enforced here: the job's CancellationToken carries them
// into the engine, which checks cooperatively (core/cancellation.h). The
// controller only hands the token to Stop()'s drain path.

#ifndef AQPP_SERVICE_ADMISSION_H_
#define AQPP_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/cancellation.h"

namespace aqpp {

struct AdmissionOptions {
  size_t num_workers = 2;
  // Total queued (not yet running) requests across all sessions.
  size_t max_queue_depth = 64;
  // Queued requests per session; the fairness bound.
  size_t max_per_session = 16;
  // Lower bound on the retry-after hint.
  double retry_floor_seconds = 0.01;
  // Batch formation. A worker takes every queued job (across sessions) as
  // one batch. If it finds only one, it waits up to batch_window_seconds
  // for company — any arrival (or Stop()) ends the wait early. 0 disables
  // the wait; batches then form only from the existing backlog.
  double batch_window_seconds = 0.001;
  // Test seam: invoked by a worker right before it runs a batch.
  std::function<void()> worker_hook;
};

struct AdmissionStats {
  size_t queue_depth = 0;
  size_t peak_queue_depth = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  // Jobs cancelled-and-run by Stop()'s drain.
  uint64_t drained = 0;
  // Multi-member batches the workers formed, and the total member jobs
  // those batches held. Batches of one are not counted.
  uint64_t batches_formed = 0;
  uint64_t batch_members = 0;
  double ewma_service_seconds = 0;
};

class AdmissionController {
 public:
  struct Job {
    // Cancelled by Stop() before the drain runs the job; may be null.
    std::shared_ptr<CancellationToken> token;
    // Opaque per-job context for the runner (the service parks its
    // canonical query and promise here); never touched by the controller.
    std::shared_ptr<void> payload;
  };
  // Runs one batch (round-robin pop order) and must fulfill every member's
  // promise, isolating per-member failures. Must not throw.
  using Runner = std::function<void(std::vector<Job>& batch)>;

  AdmissionController(AdmissionOptions options, Runner runner);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Enqueues `job` for `session_id`. On overflow returns ResourceExhausted
  // and, when `retry_after_seconds` is non-null, a backoff hint; the job is
  // NOT run in that case. FailedPrecondition after Stop().
  Status Submit(uint64_t session_id, Job job,
                double* retry_after_seconds = nullptr);

  // Stops the workers, then cancels every still-queued job and runs each as
  // a batch of one on the calling thread. Idempotent.
  void Stop();

  AdmissionStats stats() const;

 private:
  void WorkerLoop();
  double RetryAfterLocked() const;
  // Pops every queued job into *batch in round-robin order. Caller holds
  // mu_.
  void PopAllLocked(std::vector<Job>* batch);

  AdmissionOptions options_;
  Runner runner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  size_t total_queued_ = 0;
  std::unordered_map<uint64_t, std::deque<Job>> queues_;
  // Sessions with pending work, in service order (rotated on each pop).
  std::deque<uint64_t> round_robin_;
  AdmissionStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace aqpp

#endif  // AQPP_SERVICE_ADMISSION_H_
