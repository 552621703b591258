#include "metrics/resilience.h"

#include <algorithm>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/components.h"
#include "obs/obs.h"

namespace dcn::metrics {
namespace {

// Samples pair reachability against a precomputed component labeling. The
// draw structure — one base.Fork(s) stream per source trial, src then
// pairs_per_source dst draws — is the historical one, so the sample set is
// byte-identical to the BFS-per-source implementation this replaced; only
// the reachability oracle changed (same component iff a live path exists,
// exactly what the per-source BFS probed). The counts are plain integer
// sums over a fixed draw set, so the fraction is a pure function of the
// graph, the failure set, and the rng state.
double SampleDisconnection(const graph::CsrView& g,
                           const graph::ComponentSet& comp,
                           const graph::FailureSet& failures,
                           std::size_t sample_pairs, Rng& rng) {
  DCN_REQUIRE(sample_pairs > 0, "need at least one sampled pair");
  std::vector<graph::NodeId> alive;
  for (const graph::NodeId server : g.Servers()) {
    if (!failures.NodeDead(server)) alive.push_back(server);
  }
  if (alive.size() < 2) return 0.0;

  const std::size_t sources = std::min<std::size_t>(
      alive.size(), std::max<std::size_t>(1, sample_pairs / 16));
  const std::size_t pairs_per_source = (sample_pairs + sources - 1) / sources;
  const Rng base = rng.Fork();

  std::size_t disconnected = 0;
  std::size_t measured = 0;
  for (std::size_t s = 0; s < sources; ++s) {
    Rng trial_rng = base.Fork(s);
    const graph::NodeId src = alive[trial_rng.NextUint64(alive.size())];
    for (std::size_t p = 0; p < pairs_per_source; ++p) {
      graph::NodeId dst = src;
      while (dst == src) dst = alive[trial_rng.NextUint64(alive.size())];
      ++measured;
      if (!comp.SameComponent(src, dst)) ++disconnected;
    }
  }
  return static_cast<double>(disconnected) / static_cast<double>(measured);
}

}  // namespace

// One component sweep answers every sampled pair, replacing the per-source
// BFS (and the 64-lane MS-BFS batches) this metric used to run.
double PairDisconnectionFraction(const topo::Topology& net,
                                 const graph::FailureSet& failures,
                                 std::size_t sample_pairs, Rng& rng) {
  const graph::CsrView& csr = net.Network().Csr();
  graph::ComponentSet comp;
  graph::LabelComponents(csr, &failures, comp);
  static obs::Counter& c_sweeps = obs::GetCounter("resilience/component_sweeps");
  c_sweeps.Add(1);
  return SampleDisconnection(csr, comp, failures, sample_pairs, rng);
}

double ServerLossFraction(const topo::Topology& net,
                          const graph::FailureSet& failures) {
  std::size_t dead = 0;
  for (const graph::NodeId server : net.Servers()) {
    dead += failures.NodeDead(server) ? 1 : 0;
  }
  return static_cast<double>(dead) / static_cast<double>(net.ServerCount());
}

graph::FailureSet KillRack(const topo::Topology& net, std::size_t rack,
                           const topo::CablingOptions& options) {
  const std::vector<std::size_t> assignment = topo::AssignRacks(net, options);
  graph::FailureSet failures{net.Network()};
  bool any = false;
  for (graph::NodeId node = 0;
       static_cast<std::size_t>(node) < assignment.size(); ++node) {
    if (assignment[node] == rack) {
      failures.KillNode(node);
      any = true;
    }
  }
  DCN_REQUIRE(any, "rack index holds no equipment");
  return failures;
}

double WorstSingleSwitchDisconnection(const topo::Topology& net,
                                      std::size_t sample_pairs,
                                      std::size_t sample_switches, Rng& rng) {
  const graph::Graph& g = net.Network();
  std::vector<graph::NodeId> switches;
  for (graph::NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
       ++node) {
    if (g.IsSwitch(node)) switches.push_back(node);
  }
  if (sample_switches > 0 && sample_switches < switches.size()) {
    rng.Shuffle(switches);
    switches.resize(sample_switches);
  }

  // Every trial kills one switch in the same intact graph, so the intact
  // BFS forest is built once and each trial re-levels only the killed
  // switch's cone (graph/components.h) instead of re-traversing the graph.
  // One kill-trial per switch, each with its own base.Fork(index) stream;
  // the max over trials is order-insensitive, so any thread count gives the
  // same worst case.
  const graph::CsrView& csr = g.Csr();
  const graph::ComponentForest forest{csr};
  static obs::Counter& c_trials = obs::GetCounter("resilience/repair_trials");
  static obs::Counter& c_cone = obs::GetCounter("resilience/repair_cone_nodes");
  static obs::Counter& c_total =
      obs::GetCounter("resilience/repair_total_nodes");
  const Rng base = rng.Fork();
  return ParallelMapReduce(
      switches.size(), /*chunk=*/1, 0.0,
      [&](std::size_t begin, std::size_t end) {
        double worst = 0.0;
        graph::ComponentRepairScratch scratch;
        graph::ComponentSet comp;
        for (std::size_t i = begin; i < end; ++i) {
          graph::FailureSet failures{g};
          failures.KillNode(switches[i]);
          const graph::NodeId dead_node = switches[i];
          const std::size_t cone =
              forest.Repair({&dead_node, 1}, {}, failures, scratch, comp);
          c_trials.Add(1);
          c_cone.Add(cone);
          c_total.Add(csr.NodeCount());
          Rng pair_rng = base.Fork(i);
          worst = std::max(worst, SampleDisconnection(csr, comp, failures,
                                                      sample_pairs, pair_rng));
        }
        return worst;
      },
      [](double acc, double partial) { return std::max(acc, partial); });
}

}  // namespace dcn::metrics
