// F21 (extension) — streaming one-to-all: how fast can the broadcast tree
// actually stream? Completion latency (until the LAST server holds the
// message) and completeness vs injection rate, ABCCC vs BCube trees.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "routing/broadcast.h"
#include "sim/broadcast_sim.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

int main(int argc, char** argv) {
  using namespace dcn;
  const bench::ExperimentEnv env{argc, argv};
  bench::PrintHeader("F21", "broadcast-tree streaming: completion latency vs rate");

  Table table{{"topology", "servers", "tree-depth", "rate", "complete",
               "p50-complete", "p99-complete", "max-util"}};

  auto run = [&](const topo::Topology& net, const routing::SpanningTree& tree) {
    for (double rate : {0.02, 0.1, 0.2, 0.4}) {
      sim::BroadcastSimConfig config;
      config.message_rate = rate;
      config.duration = 2500;
      config.warmup = 500;
      const sim::BroadcastSimResult result =
          sim::RunBroadcastSim(net.Network(), tree, config);
      const bool any = result.complete > 0;
      table.AddRow({net.Describe(), Table::Cell(net.ServerCount()),
                    Table::Cell(tree.MaxDepth()), Table::Cell(rate, 2),
                    Table::Percent(result.CompleteFraction(), 1),
                    any ? Table::Cell(result.completion_latency.Percentile(0.5), 1)
                        : std::string{"-"},
                    any ? Table::Cell(result.completion_latency.Percentile(0.99), 1)
                        : std::string{"-"},
                    Table::Cell(result.max_link_utilization, 2)});
    }
  };

  {
    const topo::Abccc net{topo::AbcccParams{4, 2, 2}};
    run(net, routing::AbcccBroadcastTree(net, 0));
  }
  {
    const topo::Abccc net{topo::AbcccParams{4, 2, 3}};
    run(net, routing::AbcccBroadcastTree(net, 0));
  }
  {
    const topo::Bcube net{4, 2};
    run(net, routing::AbcccBroadcastTree(net, 0));
  }

  table.Print(std::cout, "F21: streaming broadcast");
  std::cout << "\nExpected shape: at low rates completion sits at the tree "
               "depth; as the rate approaches the busiest replication link's "
               "capacity (the root's first fan-out, which carries one copy "
               "per child of that switch), latency climbs and completeness "
               "collapses — the crossbar fan-out stage gives ABCCC a deeper "
               "tree than BCube but the same per-link replication ceiling.\n";
  return 0;
}
