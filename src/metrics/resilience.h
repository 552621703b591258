// Resilience / blast-radius analysis.
//
// Beyond "does routing survive" (F7), operators ask: when a specific
// component dies — one level switch, one crossbar, one whole rack — how much
// of the network's pairwise connectivity goes with it? These helpers measure
// that directly on the graph, independent of any routing algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "topology/cabling.h"
#include "topology/topology.h"

namespace dcn::metrics {

// Fraction of sampled ordered server pairs (both endpoints alive) that are
// disconnected under the failure set. 0.0 = fully connected fabric.
double PairDisconnectionFraction(const topo::Topology& net,
                                 const graph::FailureSet& failures,
                                 std::size_t sample_pairs, Rng& rng);

// Fraction of servers killed outright by the failure set (dead endpoints).
double ServerLossFraction(const topo::Topology& net,
                          const graph::FailureSet& failures);

// Failure set killing one entire rack (servers and switches) under the
// cabling placement policy.
graph::FailureSet KillRack(const topo::Topology& net, std::size_t rack,
                           const topo::CablingOptions& options = {});

// Worst-case single-switch blast radius: kills each switch in turn and
// returns the largest pair-disconnection fraction observed (sampled).
// `sample_switches` bounds the sweep for big networks (0 = all switches).
double WorstSingleSwitchDisconnection(const topo::Topology& net,
                                      std::size_t sample_pairs,
                                      std::size_t sample_switches, Rng& rng);

}  // namespace dcn::metrics
