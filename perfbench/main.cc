// aqpp_perfbench: the end-to-end benchmark program. perfbench/run.py builds
// it and runs it; see perfbench/README.md for the workloads and metrics.
//
//   aqpp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// --trace 0 measures one workload end to end and prints its end-to-end
// metrics. --trace 1 replays, in process and with spans around each layer
// call, the generated inputs of every workload, and prints every per-layer
// metric; the workload named is the one whose timed path is exercised first.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

using aqpp::perfbench::Args;
using aqpp::perfbench::Report;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dashboard|ingest_mix|exact_ooc|"
               "shard_fanout --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               argv0);
  std::exit(2);
}

using RunFn = void (*)(const Args&, Report*);

RunFn Lookup(const std::string& name) {
  using namespace aqpp::perfbench;
  if (name == "dashboard") return RunDashboard;
  if (name == "ingest_mix") return RunIngestMix;
  if (name == "exact_ooc") return RunExactOoc;
  if (name == "shard_fanout") return RunShardFanout;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else {
      Usage(argv[0]);
    }
  }
  RunFn run = Lookup(args.workload);
  if (run == nullptr || args.seconds <= 0) Usage(argv[0]);
  std::filesystem::create_directories(args.work_dir);

  Report report;
  run(args, &report);
  // Every traced run reports every per-layer metric, so it replays all four
  // workloads; the named one went first.
  for (const char* other :
       {"dashboard", "ingest_mix", "exact_ooc", "shard_fanout"}) {
    if (!args.trace || args.workload == other) continue;
    Args a = args;
    a.workload = other;
    Lookup(other)(a, &report);
  }
  report.Print();
  return 0;
}
