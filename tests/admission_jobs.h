// Admission jobs for controller-level tests: each job's payload is a
// closure, and RunClosures is the runner that calls them in batch order.

#ifndef AQPP_TESTS_ADMISSION_JOBS_H_
#define AQPP_TESTS_ADMISSION_JOBS_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/cancellation.h"
#include "service/admission.h"

namespace aqpp {
namespace testutil {

inline AdmissionController::Job ClosureJob(
    std::function<void()> fn,
    std::shared_ptr<CancellationToken> token = nullptr) {
  AdmissionController::Job job;
  job.token = std::move(token);
  job.payload = std::make_shared<std::function<void()>>(std::move(fn));
  return job;
}

inline void RunClosures(std::vector<AdmissionController::Job>& batch) {
  for (AdmissionController::Job& job : batch) {
    (*std::static_pointer_cast<std::function<void()>>(job.payload))();
  }
}

}  // namespace testutil
}  // namespace aqpp

#endif  // AQPP_TESTS_ADMISSION_JOBS_H_
