#include "testing/chaos.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "service/client.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/service.h"
#include "sql/binder.h"

namespace aqpp {
namespace testing {

namespace {

// splitmix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* TriggerModeName(fail::Trigger::Mode mode) {
  switch (mode) {
    case fail::Trigger::Mode::kAlways:
      return "always";
    case fail::Trigger::Mode::kProbability:
      return "prob";
    case fail::Trigger::Mode::kEveryNth:
      return "every";
    case fail::Trigger::Mode::kOneShot:
      return "oneshot";
  }
  return "?";
}

const char* ActionKindName(fail::ActionKind kind) {
  switch (kind) {
    case fail::ActionKind::kReturnError:
      return "error";
    case fail::ActionKind::kInjectLatency:
      return "latency";
    case fail::ActionKind::kPartialIo:
      return "partial_io";
    case fail::ActionKind::kAbort:
      return "abort";
  }
  return "?";
}

// The synthetic workload table: two ordinal condition columns and one
// double measure (the shape the engine's template preparation expects).
std::shared_ptr<Table> MakeChaosTable(size_t rows, uint64_t seed) {
  Schema schema({{"c1", DataType::kInt64},
                 {"c2", DataType::kInt64},
                 {"a", DataType::kDouble}});
  auto table = std::make_shared<Table>(schema);
  table->Reserve(rows);
  Rng rng(seed);
  auto& c1 = table->mutable_column(0).MutableInt64Data();
  auto& c2 = table->mutable_column(1).MutableInt64Data();
  auto& a = table->mutable_column(2).MutableDoubleData();
  for (size_t i = 0; i < rows; ++i) {
    c1.push_back(rng.NextInt(1, 100));
    c2.push_back(rng.NextInt(1, 50));
    a.push_back(100.0 + 10.0 * rng.NextGaussian());
  }
  table->SetRowCountFromColumns();
  return table;
}

// Terminal reply classification shared by the phase driver.
struct Outcome {
  size_t query_index = 0;
  bool ok = false;
  bool partial = false;
  bool cache_hit = false;
  double estimate = 0;
  double half_width = 0;
  StatusCode error = StatusCode::kOk;
  std::string detail;
};

}  // namespace

std::string FaultSpec::Describe() const {
  return StrFormat(
      "%s trigger=%s p=%.6f n=%llu action=%s code=%s latency=%.6f frac=%.4f",
      point.c_str(), TriggerModeName(trigger.mode), trigger.probability,
      static_cast<unsigned long long>(trigger.n), ActionKindName(action.kind),
      StatusCodeToString(action.code), action.latency_seconds,
      action.io_fraction);
}

ChaosSchedule ChaosRunner::BuildSchedule() const {
  ChaosSchedule schedule;
  Rng rng(Mix(options_.seed ^ 0xC4A05ULL));

  // Query pool: scalar SUM/COUNT ranges over the two condition columns.
  for (size_t q = 0; q < std::max<size_t>(1, options_.num_queries); ++q) {
    int64_t lo = rng.NextInt(1, 40);
    int64_t hi = lo + rng.NextInt(20, 55);
    if (q % 3 == 2) {
      schedule.queries.push_back(
          StrFormat("SELECT COUNT(*) FROM t WHERE c1 >= %lld AND c1 <= %lld",
                    static_cast<long long>(lo), static_cast<long long>(hi)));
    } else {
      const char* col = (q % 2 == 0) ? "c1" : "c2";
      schedule.queries.push_back(
          StrFormat("SELECT SUM(a) FROM t WHERE %s >= %lld AND %s <= %lld",
                    col, static_cast<long long>(lo), col,
                    static_cast<long long>(hi)));
    }
  }

  // Candidate faults: each makes the service fail in a distinct, recoverable
  // way. Probabilities are low enough that most requests in a phase still
  // survive to be baseline-checked. The I/O drops end the request they hit;
  // the admission reject is retried away, and the latency faults end a
  // request only under a tight session deadline.
  std::vector<FaultSpec> catalog;
  {
    FaultSpec f;
    f.point = "service/admission/enqueue";
    f.trigger = fail::Trigger::Probability(0.25);
    f.action.kind = fail::ActionKind::kReturnError;
    f.action.code = StatusCode::kResourceExhausted;
    f.action.message = "injected admission reject";
    catalog.push_back(f);
  }
  {
    FaultSpec f;
    f.point = "service/server/send";
    f.trigger = fail::Trigger::Probability(0.06);
    f.action.kind = fail::ActionKind::kReturnError;
    f.action.message = "injected send drop";
    catalog.push_back(f);
  }
  {
    FaultSpec f;
    f.point = "service/server/send";
    f.trigger = fail::Trigger::Probability(0.06);
    f.action.kind = fail::ActionKind::kPartialIo;
    f.action.io_fraction = 0.4;
    catalog.push_back(f);
  }
  {
    FaultSpec f;
    f.point = "service/server/recv";
    f.trigger = fail::Trigger::Probability(0.05);
    f.action.kind = fail::ActionKind::kReturnError;
    f.action.message = "injected recv drop";
    catalog.push_back(f);
  }
  {
    FaultSpec f;
    f.point = "service/admission/worker";
    f.trigger = fail::Trigger::Probability(0.3);
    f.action.kind = fail::ActionKind::kInjectLatency;
    f.action.latency_seconds = 0.002;
    catalog.push_back(f);
  }
  {
    FaultSpec f;
    f.point = "service/cache/insert";
    f.trigger = fail::Trigger::Probability(0.2);
    f.action.kind = fail::ActionKind::kInjectLatency;
    f.action.latency_seconds = 0.001;
    catalog.push_back(f);
  }

  size_t num_phases = std::max<size_t>(2, options_.num_phases);
  for (size_t p = 0; p + 1 < num_phases; ++p) {
    PhasePlan plan;
    size_t picks = 1 + rng.NextBounded(3);  // 1..3 faults per phase
    std::vector<size_t> chosen;
    for (size_t k = 0; k < picks; ++k) {
      size_t idx = rng.NextBounded(catalog.size());
      if (std::find(chosen.begin(), chosen.end(), idx) != chosen.end()) {
        continue;
      }
      chosen.push_back(idx);
      plan.faults.push_back(catalog[idx]);
    }
    // Roughly every third phase also runs under a tight session deadline so
    // the worker-latency fault pushes queries into the progressive fallback.
    if (rng.NextBernoulli(0.35)) plan.timeout_ms = 40;
    schedule.phases.push_back(std::move(plan));
  }
  // Every run must hurt some request: if the draw armed no request-ending
  // fault anywhere, the first phase also drops every 8th received line.
  auto ends_request = [](const PhasePlan& plan) {
    for (const FaultSpec& f : plan.faults) {
      if (f.point == "service/server/send" ||
          f.point == "service/server/recv" ||
          (f.point == "service/admission/worker" && plan.timeout_ms > 0)) {
        return true;
      }
    }
    return false;
  };
  if (std::none_of(schedule.phases.begin(), schedule.phases.end(),
                   ends_request)) {
    FaultSpec f;
    f.point = "service/server/recv";
    f.trigger = fail::Trigger::EveryNth(8);
    f.action.kind = fail::ActionKind::kReturnError;
    f.action.message = "injected recv drop";
    schedule.phases.front().faults.push_back(f);
  }
  for (size_t p = 0; p < schedule.phases.size(); ++p) {
    PhasePlan& plan = schedule.phases[p];
    plan.description = StrFormat("phase %zu: %zu faults, timeout_ms=%d", p,
                                 plan.faults.size(), plan.timeout_ms);
  }
  PhasePlan recovery;
  recovery.description = "recovery: no faults";
  schedule.phases.push_back(std::move(recovery));
  return schedule;
}

uint64_t ChaosRunner::Fingerprint(const ChaosSchedule& schedule) {
  std::string text;
  for (const std::string& q : schedule.queries) {
    text += q;
    text += '\n';
  }
  for (const PhasePlan& plan : schedule.phases) {
    text += StrFormat("timeout_ms=%d\n", plan.timeout_ms);
    for (const FaultSpec& f : plan.faults) {
      text += f.Describe();
      text += '\n';
    }
  }
  return Fnv1a64(text);
}

ChaosReport ChaosRunner::Run() {
  ChaosSchedule schedule = BuildSchedule();
  ChaosReport report;
  report.schedule_fingerprint = Fingerprint(schedule);

  // Production stack, built exactly the way examples/service does it.
  auto table = MakeChaosTable(options_.rows, Mix(options_.seed ^ 0x7AB1EULL));
  EngineOptions eopts;
  eopts.sample_rate = 0.05;
  eopts.cube_budget = 400;
  auto created = AqppEngine::Create(table, eopts);
  AQPP_CHECK_OK(created.status());
  std::shared_ptr<AqppEngine> engine(std::move(*created));
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  AQPP_CHECK_OK(engine->Prepare(tmpl));
  Catalog catalog;
  AQPP_CHECK_OK(catalog.Register("t", table));

  ServiceOptions sopts;
  sopts.admission.num_workers = options_.admission_workers;
  QueryService service{engine.get(), sopts};
  ServiceServer server(&service, &catalog);
  AQPP_CHECK_OK(server.Start());

  // Fault-free baseline per query: canonical seeded execution straight
  // through the engine (no service cache involved), the same pure function
  // the service's workers compute on a miss.
  QueryCanonicalizer canonicalizer(table.get());
  std::vector<ApproximateResult> baseline;
  for (const std::string& sql : schedule.queries) {
    auto bound = ParseAndBind(sql, catalog);
    AQPP_CHECK_OK(bound.status());
    CanonicalQuery canon = canonicalizer.Canonicalize(bound->query);
    ExecuteControl control;
    control.seed = canon.seed;
    control.record = false;
    auto result = engine->Execute(canon.query, control);
    AQPP_CHECK_OK(result.status());
    baseline.push_back(*result);
  }

  const int port = server.port();
  report.final_answers.assign(schedule.queries.size(), "");

  for (size_t phase = 0; phase < schedule.phases.size(); ++phase) {
    const PhasePlan& plan = schedule.phases[phase];
    const bool is_recovery = phase + 1 == schedule.phases.size();
    // Each phase starts cold: answers cached by an earlier phase would let
    // every request skip admission, and the armed faults with it.
    service.InvalidateCache();
    fail::Registry::Global().DisableAll();
    fail::Registry::Global().SetSeed(Mix(options_.seed ^ (phase + 1)));
    for (const FaultSpec& f : plan.faults) {
      fail::Registry::Global().Enable(f.point, f.trigger, f.action);
    }

    std::vector<std::vector<Outcome>> per_client(options_.clients);
    std::vector<uint64_t> client_reconnects(options_.clients, 0);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < options_.clients; ++c) {
      threads.emplace_back([&, c, phase] {
        std::vector<Outcome>& outcomes = per_client[c];
        ServiceClient client;
        // (Re)establishes the connection and the phase's session deadline.
        auto connect = [&]() -> Status {
          auto conn = ServiceClient::Connect("127.0.0.1", port);
          if (!conn.ok()) return conn.status();
          client = std::move(*conn);
          if (plan.timeout_ms > 0) {
            // SET can itself be eaten by a send fault; that still counts as
            // a failed connect attempt, not a protocol violation.
            Status st = client.SetTimeoutMs(plan.timeout_ms);
            if (!st.ok()) return st;
          }
          return Status::OK();
        };
        // The accept/send faults can kill several connections in a row;
        // bound the reconnect storm but make exhaustion loud.
        auto ensure_connected = [&]() -> bool {
          for (int tries = 0; tries < 50; ++tries) {
            if (client.connected()) return true;
            if (connect().ok()) return true;
            ++client_reconnects[c];
          }
          return false;
        };
        if (!ensure_connected()) {
          Outcome o;
          o.error = StatusCode::kUnavailable;
          o.detail = "could not establish initial connection";
          outcomes.push_back(o);
          return;
        }
        RetryPolicy policy;
        policy.max_attempts = 12;
        policy.initial_backoff_seconds = 0.001;
        policy.max_backoff_seconds = 0.02;
        policy.total_deadline_seconds = 5.0;
        policy.seed = Mix(options_.seed ^ (phase * 1000 + c + 7));
        for (size_t j = 0; j < options_.queries_per_client; ++j) {
          size_t which = (c + j) % schedule.queries.size();
          Outcome o;
          o.query_index = which;
          if (!ensure_connected()) {
            o.error = StatusCode::kUnavailable;
            o.detail = "reconnect budget exhausted";
            outcomes.push_back(o);
            break;
          }
          auto reply = client.QueryWithRetry(schedule.queries[which], policy);
          if (reply.ok()) {
            o.ok = true;
            o.partial = reply->partial;
            o.cache_hit = reply->cache_hit;
            o.estimate = reply->estimate;
            o.half_width = reply->half_width;
          } else {
            o.error = reply.status().code();
            o.detail = reply.status().message();
            if (o.error == StatusCode::kIOError) {
              // Connection died mid-call: drop it so the next iteration
              // reconnects instead of reusing a dead socket.
              client.Close();
            }
          }
          outcomes.push_back(o);
        }
        client.Close();
      });
    }
    for (std::thread& t : threads) t.join();

    // All client threads are joined: classification is single-threaded.
    for (size_t c = 0; c < options_.clients; ++c) {
      report.reconnects += client_reconnects[c];
      for (const Outcome& o : per_client[c]) {
        ++report.total;
        const ApproximateResult& base = baseline[o.query_index];
        if (o.ok && !o.partial) {
          ++report.ok;
          if (o.cache_hit) ++report.cache_hits;
          if (o.estimate != base.ci.estimate ||
              o.half_width != base.ci.half_width) {
            report.violations.push_back(StrFormat(
                "phase %zu query %zu: full-precision answer %.17g±%.17g "
                "differs from baseline %.17g±%.17g",
                phase, o.query_index, o.estimate, o.half_width,
                base.ci.estimate, base.ci.half_width));
          }
        } else if (o.ok && o.partial) {
          ++report.partial;
          if (!std::isfinite(o.estimate) || !std::isfinite(o.half_width) ||
              o.half_width < base.ci.half_width * 0.999) {
            report.violations.push_back(StrFormat(
                "phase %zu query %zu: partial answer %.17g±%.17g tighter "
                "than baseline ±%.17g (or non-finite)",
                phase, o.query_index, o.estimate, o.half_width,
                base.ci.half_width));
          }
        } else {
          switch (o.error) {
            case StatusCode::kResourceExhausted:
              ++report.rejected;
              break;
            case StatusCode::kUnavailable:
              ++report.unavailable;
              break;
            case StatusCode::kDeadlineExceeded:
            case StatusCode::kCancelled:
              ++report.deadline;
              break;
            case StatusCode::kIOError:
              ++report.io_errors;
              break;
            default:
              report.violations.push_back(StrFormat(
                  "phase %zu query %zu: unexpected terminal error %s: %s",
                  phase, o.query_index, StatusCodeToString(o.error),
                  o.detail.c_str()));
          }
        }
        if (is_recovery) {
          if (!o.ok || o.partial) {
            report.violations.push_back(StrFormat(
                "recovery phase: query %zu did not return a full answer "
                "(error=%s %s)",
                o.query_index, StatusCodeToString(o.error), o.detail.c_str()));
          } else {
            report.final_answers[o.query_index] =
                StrFormat("%.17g|%.17g", o.estimate, o.half_width);
          }
        }
      }
    }
    if (!is_recovery) {
      report.trip_log += StrFormat("phase %zu\n", phase);
      for (const std::string& point : fail::Registry::Global().active()) {
        fail::PointStats st = fail::Registry::Global().stats(point);
        report.trip_log += StrFormat(
            "  %s evaluations=%llu fires=%llu\n", point.c_str(),
            static_cast<unsigned long long>(st.evaluations),
            static_cast<unsigned long long>(st.fires));
      }
    }
  }

  fail::Registry::Global().DisableAll();
  server.Stop();
  service.Stop();
  for (size_t q = 0; q < report.final_answers.size(); ++q) {
    if (report.final_answers[q].empty()) {
      report.violations.push_back(
          StrFormat("recovery phase never answered query %zu", q));
    }
  }
  return report;
}

}  // namespace testing
}  // namespace aqpp
