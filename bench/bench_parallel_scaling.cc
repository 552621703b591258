// M2 — thread-pool scaling of the metrics hot paths: wall-clock time at
// 1/2/4/8 threads for all-pairs MS-BFS (ExactServerPathStats), sampled path
// stats, max-flow pair sampling, Monte Carlo fault trials, and the sharded
// packet simulator, on an ABCCC instance with >= 2000 servers. A kernel's
// `speedup` is its own 1-thread time over its time at N threads: the thread
// scaling of the current engine and nothing else. The table reports speed
// but does not gate it; perfbench/compare.py gates speed against the
// BENCHMARK.json bounds.
//
// What the binary does gate is the determinism contract: every row's
// results must be bit-identical to the kernel's 1-thread run, including the
// merged obs counters (MS-BFS level direction counts), and any
// `identical: NO` row fails the run (exit 1). The timing columns vary run to
// run; the `identical` column and the metric values are deterministic.
// Flags: --n/--k/--c (topology), --pairs, --trials, --repeats, --threads-max.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/parallel.h"
#include "common/table.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "obs/obs.h"
#include "routing/route.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace {

using Clock = std::chrono::steady_clock;

double BestOf(int repeats, const std::function<void()>& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(Clock::now() - start)
                        .count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  const bench::ExperimentEnv env{argc, argv};
  const CliArgs& args = env.Args();
  const topo::AbcccParams params{
      static_cast<int>(args.GetInt("n", 5)),
      static_cast<int>(args.GetInt("k", 3)),
      static_cast<int>(args.GetInt("c", 2))};  // default: 2500 servers
  const auto pairs = static_cast<std::size_t>(args.GetInt("pairs", 64));
  const auto trials = static_cast<std::size_t>(args.GetInt("trials", 24));
  const int repeats = static_cast<int>(args.GetInt("repeats", 3));
  const int threads_max = static_cast<int>(args.GetInt("threads-max", 8));

  const topo::Abccc net{params};
  bench::PrintHeader("M2", "deterministic thread-pool scaling of metric kernels");
  std::cout << net.Describe() << ": " << net.ServerCount() << " servers, "
            << net.SwitchCount() << " switches, " << net.LinkCount()
            << " links\n\n";

  // Shared packet-sim workload: permutation traffic over the same ABCCC
  // instance, hot enough that the event loop dominates.
  Rng traffic_rng{bench::kDefaultSeed};
  const std::vector<routing::Route> psim_routes =
      sim::NativeRoutes(net, sim::PermutationTraffic(net, traffic_rng));
  sim::PacketSimConfig psim_config;
  psim_config.offered_load = 0.7;
  psim_config.duration = 60.0;
  psim_config.warmup = 10.0;
  const auto psim_digest = [](const sim::PacketSimResult& r) {
    // Percentile sorts the sample storage, so the Mean() that follows sums in
    // sorted order — bit-stable however the engine interleaved its Add calls.
    const double p99 = r.latency.Percentile(0.99);
    return p99 + r.latency.Mean() +
           static_cast<double>(r.delivered + r.dropped + 2 * r.generated) +
           r.max_queue_depth + r.max_link_utilization;
  };

  // Each kernel returns a digest of its results; digests must not depend on
  // the thread count.
  struct Kernel {
    std::string name;
    std::function<double()> run;
  };
  const std::vector<Kernel> kernels = {
      {"exact-paths (all-pairs MS-BFS)",
       [&] {
         const metrics::ExactPathStats stats = metrics::ExactServerPathStats(net);
         return stats.average + stats.diameter;
       }},
      {"sampled-paths (BFS + routes)",
       [&] {
         Rng rng{bench::kDefaultSeed};
         const metrics::SampledPathStats stats =
             metrics::SamplePathStats(net, trials, 32, rng);
         return stats.mean_stretch + stats.shortest.Mean();
       }},
      {"pair-cuts (max-flow sampling)",
       [&] {
         Rng rng{bench::kDefaultSeed};
         const metrics::PairCutStats stats =
             metrics::SampledPairCuts(net, pairs, rng);
         return stats.mean_cut + static_cast<double>(stats.min_cut);
       }},
      {"fault-trials (Monte Carlo)",
       [&] {
         Rng rng{bench::kDefaultSeed};
         return metrics::WorstSingleSwitchDisconnection(net, 128, trials, rng) +
                1.0;
       }},
      {"packetsim (sharded event loop)",
       [&] {
         return psim_digest(
             sim::RunPacketSim(net.Network(), psim_routes, psim_config));
       }},
  };

  Table table{{"kernel", "threads", "time-ms", "speedup", "identical"}};
  bool all_identical = true;
  for (const Kernel& kernel : kernels) {
    double serial_ms = 0.0;
    double serial_digest = 0.0;
    std::uint64_t serial_bu = 0;
    std::uint64_t serial_td = 0;
    for (int threads = 1; threads <= threads_max; threads *= 2) {
      SetThreadCount(threads);
      double digest = 0.0;
      // Merged MS-BFS level counts of the timed runs (0 when the kernel never
      // enters MS-BFS). Exact integers, so their cross-thread-count equality
      // is part of the `identical` verdict: the observability layer obeys the
      // same determinism contract as the results it describes. Counter
      // deltas rather than obs::Reset(): a --trace-out run keeps its span
      // buffer intact across the whole sweep.
      const std::uint64_t bu0 = obs::CounterValue("msbfs/levels_bottom_up");
      const std::uint64_t td0 = obs::CounterValue("msbfs/levels_top_down");
      const double ms = BestOf(repeats, [&] { digest = kernel.run(); });
      const std::uint64_t bu =
          (obs::CounterValue("msbfs/levels_bottom_up") - bu0) /
          static_cast<std::uint64_t>(repeats);
      const std::uint64_t td =
          (obs::CounterValue("msbfs/levels_top_down") - td0) /
          static_cast<std::uint64_t>(repeats);
      if (threads == 1) {
        serial_ms = ms;
        serial_digest = digest;
        serial_bu = bu;
        serial_td = td;
      }
      const bool identical =
          digest == serial_digest && bu == serial_bu && td == serial_td;
      all_identical = all_identical && identical;
      table.AddRow({kernel.name, Table::Cell(threads), Table::Cell(ms, 1),
                    Table::Cell(serial_ms / ms, 2), identical ? "yes" : "NO"});
    }
  }
  SetThreadCount(0);

  table.Print(std::cout, "M2: scaling at 1.." + std::to_string(threads_max) +
                             " threads");
  std::cout << "\nExpected shape: each kernel's speedup is its own 1-thread "
               "time over its time at N threads, so it grows with threads up "
               "to the physical core count and flattens beyond it; a kernel "
               "with fewer parallel work items than threads (sampled-paths' "
               "samples fill one 64-source block) stays near 1x; the "
               "`identical` column is always `yes` — the determinism contract "
               "of common/parallel.h.\n";
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a kernel's results depend on the thread count — the "
                 "determinism contract of common/parallel.h is broken\n");
    return 1;
  }
  return 0;
}
