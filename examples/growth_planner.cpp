// Growth planner: "I have demand for S servers next quarter — what do I buy,
// and what do I have to touch?"
//
//   ./growth_planner [--n=4] [--c=2] [--target=150]
//
// Produces a slice-by-slice ABCCC growth schedule (mixed-radix partial
// deployments) that tracks the target with zero disruption, and contrasts it
// with BCube's only option: order jumps that overshoot and open every
// deployed server.
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/parallel.h"
#include "common/table.h"
#include "topology/abccc.h"
#include "topology/cost_model.h"
#include "topology/expansion.h"

int main(int argc, char** argv) {
  using namespace dcn;
  const CliArgs args{argc, argv};
  ConfigureThreads(args);
  const int n = static_cast<int>(args.GetInt("n", 4));
  const int c = static_cast<int>(args.GetInt("c", 2));
  const auto target = static_cast<std::uint64_t>(args.GetInt("target", 150));
  const topo::CostModel model;

  std::cout << "Target: " << target << " servers (n=" << n << ", c=" << c
            << ")\n";

  // Start from the smallest complete order and add slices (raising the most
  // significant radix, appending a new level at radix 2 when it tops out)
  // until the target is met.
  std::vector<int> radices{n};  // little-endian

  Table plan{{"step", "servers", "step-$", "cumulative-$", "disruption"}};
  double cumulative = 0.0;
  double previous_total = 0.0;
  bool first = true;
  int steps = 0;
  while (true) {
    const topo::GeneralAbcccParams params{radices, c};
    const topo::Abccc net{params};
    const topo::CapexReport cost = topo::EvaluateCost(net, model);
    const double step_usd = first ? cost.total_usd : cost.total_usd - previous_total;
    cumulative += step_usd;
    plan.AddRow({net.Describe(), Table::Cell(net.ServerCount()),
                 Table::Cell(step_usd, 0), Table::Cell(cumulative, 0),
                 first ? "-" : "0"});
    previous_total = cost.total_usd;
    first = false;
    if (net.ServerCount() >= target) break;
    if (++steps > 24) break;  // guard against unreachable targets

    // Next slice: grow the top level, or open a new level at radix 2.
    if (radices.back() < n) {
      ++radices.back();
    } else {
      radices.push_back(2);
    }
  }
  plan.Print(std::cout, "ABCCC slice-growth schedule (zero disruption)");

  // BCube's alternative: order jumps.
  Table bcube{{"step", "servers", "overshoot", "servers-opened"}};
  for (int k = 0;; ++k) {
    const topo::BcubeParams params{n, k};
    const std::uint64_t size = params.ServerTotal();
    const std::uint64_t opened =
        k == 0 ? 0 : topo::BcubeParams{n, k - 1}.ServerTotal();
    bcube.AddRow({"BCube(n=" + std::to_string(n) + ",k=" + std::to_string(k) + ")",
                  Table::Cell(size),
                  size >= target ? Table::Cell(size - target) : "-",
                  Table::Cell(opened)});
    if (size >= target) break;
  }
  bcube.Print(std::cout, "BCube alternative (order jumps)");
  std::cout << "\nEvery ABCCC step is a complete, routable network; the final "
               "configuration lands within one slice of the target. BCube "
               "must overshoot to the next power and open every deployed "
               "server on the way.\n";
  return 0;
}
