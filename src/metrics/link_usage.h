// Link-class utilization: where inside an ABCCC do the bits actually flow?
//
// ABCCC links come in classes — row crossbar links and one class per level
// plane. Classifying a routed workload's link loads by class shows which
// plane saturates first (the effective bottleneck the c knob moves), a view
// aggregate throughput numbers hide. Works for every cube family.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "routing/route.h"
#include "topology/abccc.h"

namespace dcn::metrics {

struct LinkClassUsage {
  std::string name;           // "crossbar" or "level-<l>"
  std::size_t links = 0;      // links in this class (undirected)
  std::uint64_t traversals = 0;  // directed crossings by the workload
  double mean_load = 0.0;     // traversals per directed link in the class
  double max_load = 0.0;      // hottest directed link of the class
};

// One entry for the crossbar class (if present) and one per level, in level
// order. Routes must be valid for the network.
std::vector<LinkClassUsage> ClassifyLinkUsage(
    const topo::Abccc& net, const std::vector<routing::Route>& routes);

}  // namespace dcn::metrics
