// S1 — million-server scale tables from the implicit address-arithmetic
// topologies (topology/implicit.h): exact diameter / radius / ASPL via the
// symmetry-reduced sweep (m representative sources instead of all S), a
// sampled cross-check (64 random sources through the same bit-parallel BFS),
// routing stretch, and the closed-form cost model — on ABCCC / BCCC / BCube
// instances with 1-5 million servers, in O(frontier) memory. The materialized
// builders would need tens of gigabytes for the same tables; here the only
// O(V) state is the traversal workspaces (a few words per node).
//
// Determinism: every value except the timing columns is bit-identical for any
// DCN_THREADS (the sweeps and samplers inherit the msbfs.h contract), so the
// table diffs clean across runs and machines.
//
// Flags:
//   --smoke          one ABCCC(16,4,3) instance (3.1M servers), exact sweep
//                    only; asserts connectivity and diameter <= the routing
//                    bound. CI runs this under `ulimit -v` (see ci.yml) that
//                    the materialized path could not survive.
//   --max-rss-mb N   fail (exit 1) if peak RSS exceeds N MB (0 = off).
//   --sources/--pairs  sampled cross-check shape (default 64 x 32).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "metrics/path_metrics.h"
#include "topology/cost_model.h"
#include "topology/implicit.h"

namespace {

using Clock = std::chrono::steady_clock;

// Linux reports ru_maxrss in kilobytes. This is a process-lifetime high-water
// mark, so instances are benched smallest to largest below — each row's
// reading is (approximately) its own footprint, not a predecessor's.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct ScaleRow {
  std::string name;
  std::uint64_t servers = 0;
  std::uint64_t switches = 0;
  std::uint64_t links = 0;
  int ports = 0;
  int diameter = 0;
  int radius = 0;
  double aspl = 0.0;
  double sampled_aspl = 0.0;
  double stretch = 0.0;
  double net_usd_per_server = 0.0;
  double exact_ms = 0.0;
  double peak_rss_mb = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  const bench::ExperimentEnv env{argc, argv};
  const CliArgs& args = env.Args();
  const bool smoke = args.Has("smoke");
  const auto sources = static_cast<std::size_t>(args.GetInt("sources", 64));
  const auto pairs = static_cast<std::size_t>(args.GetInt("pairs", 32));
  const double max_rss_mb = args.GetDouble("max-rss-mb", 0.0);

  // Ascending node count, so the RSS high-water mark tracks each instance.
  std::vector<topo::ImplicitCube> cubes;
  if (smoke) {
    cubes.push_back(topo::ImplicitCube::MakeAbccc(16, 4, 3));
  } else {
    cubes.push_back(topo::ImplicitCube::MakeBcube(16, 4));    // 1.0M servers
    cubes.push_back(topo::ImplicitCube::MakeAbccc(16, 4, 4));  // 2.1M
    cubes.push_back(topo::ImplicitCube::MakeAbccc(16, 4, 3));  // 3.1M
    cubes.push_back(topo::ImplicitCube::MakeBccc(16, 4));      // 5.2M
  }

  bench::PrintHeader("S1", smoke ? "implicit-cube scale smoke (memory-bounded)"
                                 : "million-server tables without materialized "
                                   "edge lists");

  std::vector<ScaleRow> rows;
  bool ok = true;
  for (const topo::ImplicitCube& cube : cubes) {
    ScaleRow row;
    row.name = cube.Describe();
    row.servers = cube.ServerCount();
    row.switches = cube.SwitchCount();
    row.links = cube.LinkCount();
    row.ports = cube.ServerPorts();

    const auto exact_start = Clock::now();
    const metrics::ExactPathStats exact =
        metrics::SymmetryReducedPathStats(cube);
    row.exact_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - exact_start)
            .count();
    row.diameter = exact.diameter;
    row.radius = exact.radius;
    row.aspl = exact.average;

    if (!exact.connected) {
      std::fprintf(stderr, "FAIL: %s is not connected\n", row.name.c_str());
      ok = false;
    }
    if (exact.diameter > cube.RouteLengthBound()) {
      std::fprintf(stderr, "FAIL: %s diameter %d exceeds routing bound %d\n",
                   row.name.c_str(), exact.diameter, cube.RouteLengthBound());
      ok = false;
    }

    if (!smoke) {
      Rng rng{bench::kDefaultSeed};
      const metrics::SampledPathStats sampled =
          metrics::SamplePathStats(cube, sources, pairs, rng);
      row.sampled_aspl = sampled.shortest.Mean();
      row.stretch = sampled.mean_stretch;
      // The sampled pass must agree with the exact one it cross-checks.
      if (sampled.diameter_lower_bound > exact.diameter) {
        std::fprintf(stderr,
                     "FAIL: %s sampled diameter bound %d exceeds the exact "
                     "diameter %d\n",
                     row.name.c_str(), sampled.diameter_lower_bound,
                     exact.diameter);
        ok = false;
      }
    }

    row.net_usd_per_server = topo::EvaluateCost(cube).network_per_server_usd;
    row.peak_rss_mb = PeakRssMb();
    rows.push_back(row);
  }

  const double peak = PeakRssMb();
  if (max_rss_mb > 0.0 && peak > max_rss_mb) {
    std::fprintf(stderr, "FAIL: peak RSS %.0f MB exceeds --max-rss-mb %.0f\n",
                 peak, max_rss_mb);
    ok = false;
  }

  Table table{{"topology", "servers", "switches", "links", "ports/srv",
               "diameter", "radius", "ASPL", "sampled", "stretch", "net-$/srv",
               "exact-ms", "rss-MB"}};
  for (const ScaleRow& r : rows) {
    table.AddRow({r.name, Table::Cell(r.servers), Table::Cell(r.switches),
                  Table::Cell(r.links), Table::Cell(r.ports),
                  Table::Cell(r.diameter), Table::Cell(r.radius),
                  Table::Cell(r.aspl, 3), Table::Cell(r.sampled_aspl, 2),
                  Table::Cell(r.stretch, 2),
                  Table::Cell(r.net_usd_per_server, 0),
                  Table::Cell(r.exact_ms, 0), Table::Cell(r.peak_rss_mb, 0)});
  }
  table.Print(std::cout, smoke ? "S1: scale smoke" : "S1: million-server scale");
  std::cout << "\nExpected shape: the exact sweep visits only m = "
               "ceil((k+1)/(c-1)) representative sources, so million-server "
               "exact diameters cost seconds; sampled ASPL tracks the exact "
               "column to ~1%; BCCC pays the smallest NIC count, BCube the "
               "largest; peak RSS stays within a few words per node — the "
               "materialized builders would need tens of GB for the same "
               "table.\n";
  return ok ? 0 : 1;
}
