#include "tcp_load.h"

#include <mutex>
#include <thread>

#include "service/client.h"

namespace aqpp {
namespace perfbench {

TcpLoadResult RunTcpReaders(int port, const std::vector<std::string>& sql,
                            const std::vector<RangeQuery>& queries,
                            size_t clients, Clock::time_point start,
                            Clock::time_point deadline,
                            const std::atomic<bool>* stop) {
  TcpLoadResult out;
  out.answers.resize(sql.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> connect_failures{0};
  std::atomic<bool> regressed{false};
  std::mutex mu;  // guards out.window

  auto client_loop = [&](size_t c) {
    auto client = ServiceClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      connect_failures.fetch_add(1);
      return;
    }
    (void)client->Hello("perfbench-" + std::to_string(c));
    Window window;
    uint64_t last_generation = 0;
    while (Clock::now() < deadline &&
           (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
      const size_t i = next.fetch_add(1);
      if (i >= sql.size()) break;
      const auto t0 = Clock::now();
      auto reply = client->Query(sql[i]);
      const double ms = 1e3 * SecondsSince(t0);
      if (!reply.ok() || reply->partial || reply->degraded) {
        failed.fetch_add(1);
        continue;
      }
      if (reply->generation < last_generation) regressed.store(true);
      last_generation = reply->generation;
      TcpAnswer& a = out.answers[i];
      a.ok = true;
      a.estimate = reply->estimate;
      a.half_width = reply->half_width;
      a.rtt_ms = ms;
      a.queue_ms = reply->queue_ms;
      a.exec_ms = reply->exec_ms;
      window.AddQuery(queries[i].func, SecondsSince(start), ms);
    }
    client->Close();
    std::lock_guard<std::mutex> lock(mu);
    out.window.Merge(window);
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  for (auto& t : threads) t.join();
  out.window.seconds = SecondsSince(start);
  out.sent = std::min(next.load(), sql.size());
  out.attempted = out.sent + connect_failures.load();
  out.failed = failed.load() + connect_failures.load();
  out.generation_regressed = regressed.load();
  return out;
}

}  // namespace perfbench
}  // namespace aqpp
