#include "service/admission.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/failpoint.h"
#include "obs/metrics.h"

namespace aqpp {

namespace {

struct AdmissionMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Histogram* batch_window_wait;
  static const AdmissionMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static const AdmissionMetrics m = {
        reg.GetGauge("aqpp_admission_queue_depth", "",
                     "Requests currently waiting in the admission queue."),
        reg.GetCounter("aqpp_admission_admitted_total", "",
                       "Requests admitted to the worker queue."),
        reg.GetCounter("aqpp_admission_rejected_total", "",
                       "Requests rejected with retry-after backpressure."),
        reg.GetCounter("aqpp_admission_completed_total", "",
                       "Requests completed by admission workers."),
        reg.GetHistogram(
            "aqpp_batch_window_wait_seconds", "",
            {0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01},
            "Seconds a worker holding a lone job waited for company."),
    };
    return m;
  }
};

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options,
                                         Runner runner)
    : options_(std::move(options)), runner_(std::move(runner)) {
  size_t n = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AdmissionController::~AdmissionController() { Stop(); }

double AdmissionController::RetryAfterLocked() const {
  // Rough drain time of the current backlog: one EWMA service time per
  // queued request, divided across the workers, plus one for the retrier.
  double per_job = stats_.ewma_service_seconds;
  double backlog = static_cast<double>(total_queued_ + 1) /
                   static_cast<double>(workers_.size());
  return std::max(options_.retry_floor_seconds, per_job * backlog);
}

Status AdmissionController::Submit(uint64_t session_id, Job job,
                                   double* retry_after_seconds) {
  // Injected admission failure: rejected requests still carry a retry-after
  // hint when the injected code is the backpressure one, so clients exercise
  // their real retry loop.
  if (auto fired = AQPP_FAILPOINT_EVAL("service/admission/enqueue");
      fired.has_value() && fired->kind == fail::ActionKind::kReturnError) {
    if (retry_after_seconds != nullptr &&
        fired->error.code() == StatusCode::kResourceExhausted) {
      std::lock_guard<std::mutex> lock(mu_);
      *retry_after_seconds = RetryAfterLocked();
      ++stats_.rejected;
    }
    return fired->error;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("admission controller stopped");
    }
    std::deque<Job>& queue = queues_[session_id];
    if (total_queued_ >= options_.max_queue_depth ||
        queue.size() >= options_.max_per_session) {
      if (retry_after_seconds != nullptr) {
        *retry_after_seconds = RetryAfterLocked();
      }
      ++stats_.rejected;
      AdmissionMetrics::Get().rejected->Increment();
      if (queue.empty()) queues_.erase(session_id);
      return Status::ResourceExhausted(
          total_queued_ >= options_.max_queue_depth
              ? "request queue full"
              : "per-session queue full");
    }
    if (queue.empty()) round_robin_.push_back(session_id);
    queue.push_back(std::move(job));
    ++total_queued_;
    ++stats_.admitted;
    stats_.queue_depth = total_queued_;
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, total_queued_);
    AdmissionMetrics::Get().admitted->Increment();
    AdmissionMetrics::Get().queue_depth->Set(
        static_cast<int64_t>(total_queued_));
  }
  // A window-waiting worker may be the batch this job should join;
  // notify_one could wake a different worker and strand it.
  cv_.notify_all();
  return Status::OK();
}

void AdmissionController::PopAllLocked(std::vector<Job>* batch) {
  while (!round_robin_.empty()) {
    uint64_t sid = round_robin_.front();
    round_robin_.pop_front();
    auto it = queues_.find(sid);
    batch->push_back(std::move(it->second.front()));
    it->second.pop_front();
    if (it->second.empty()) {
      queues_.erase(it);
    } else {
      round_robin_.push_back(sid);  // fairness: back of the rotation
    }
  }
  total_queued_ = 0;
  stats_.queue_depth = 0;
  AdmissionMetrics::Get().queue_depth->Set(0);
}

void AdmissionController::WorkerLoop() {
  for (;;) {
    std::vector<Job> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || total_queued_ > 0; });
      if (stopping_) return;  // leftovers are drained by Stop()
      PopAllLocked(&batch);
      if (batch.size() == 1 && options_.batch_window_seconds > 0) {
        // Lone job: hold the collection window open for company. Any
        // Submit (or Stop) ends it early.
        SteadyTime wait_start = SteadyNow();
        cv_.wait_for(
            lock, std::chrono::duration<double>(options_.batch_window_seconds),
            [this] { return stopping_ || total_queued_ > 0; });
        AdmissionMetrics::Get().batch_window_wait->Observe(
            SecondsBetween(wait_start, SteadyNow()));
        if (!stopping_) PopAllLocked(&batch);
      }
      if (batch.size() > 1) {
        ++stats_.batches_formed;
        stats_.batch_members += batch.size();
      }
    }
    if (options_.worker_hook) options_.worker_hook();
    // Latency injection here stalls the worker between dequeue and execute —
    // the window where a slow engine pushes queued requests past deadline.
    AQPP_FAILPOINT("service/admission/worker");
    SteadyTime start = SteadyNow();
    const size_t jobs_run = batch.size();
    runner_(batch);
    double seconds = SecondsBetween(start, SteadyNow());
    {
      std::lock_guard<std::mutex> lock(mu_);
      // EWMA tracks per-job service time; a batch amortizes its shared pass
      // across its members.
      double per_job = seconds / static_cast<double>(jobs_run);
      stats_.ewma_service_seconds =
          stats_.ewma_service_seconds == 0
              ? per_job
              : 0.8 * stats_.ewma_service_seconds + 0.2 * per_job;
      stats_.completed += jobs_run;
    }
    AdmissionMetrics::Get().completed->Increment(jobs_run);
  }
}

void AdmissionController::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Fulfill every queued job with its cancellation path so no submitter
  // waits forever on a promise that nobody will set.
  std::vector<Job> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PopAllLocked(&leftovers);
  }
  for (Job& j : leftovers) {
    if (j.token != nullptr) j.token->Cancel();
    std::vector<Job> one;
    one.push_back(std::move(j));
    runner_(one);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.drained;
  }
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace aqpp
