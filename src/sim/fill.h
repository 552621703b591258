// Progressive filling (max-min water-filling) over a fixed set of routed
// flows — the one kernel behind MaxMinFairRates* (flowsim.h) and every rate
// recomputation of FluidCompletionTimes (fluid.h). Internal to sim/.
//
// Construction resolves each included route's directed links once and builds
// link -> flow incidence; each Fill() then solves max-min over any subset of
// those flows without touching the routes again. The floating-point
// operation sequence is the textbook loop's, so rates are bit-identical to
// it: per-link subtractions in freeze order, the bottleneck the smallest
// capacity/active share with ties to the lowest directed-link id, and
// demand-limited rounds freezing in ascending flow index (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "routing/route.h"

namespace dcn::sim {

// The demand of a flow with no rate cap (MaxMinFairRates, fluid): finite, so
// the demand test never compares infinities, and far above any fair share.
inline constexpr double kUnboundedDemand = std::numeric_limits<double>::max() / 4;

class ProgressiveFill {
 public:
  // Resolves and validates (RouteDirectedLinksInto; throws on an unwalkable
  // route) the directed links of every flow f with include[f] != 0. Empty
  // routes and self-flows ({src}) carry no links. `demands` (one per route,
  // positive) must outlive the kernel. Requires link_capacity > 0.
  ProgressiveFill(const graph::Graph& graph,
                  const std::vector<routing::Route>& routes,
                  const std::vector<double>& demands, double link_capacity,
                  const std::vector<char>& include);

  // Max-min fair rates of the flows with live[f] != 0 (a subset of the
  // included ones), written to rates (resized to one per route; every other
  // flow reads 0). Self-flows get min(link_capacity, demand). Each call
  // starts from fresh capacities and counts one flowsim/calls.
  void Fill(const std::vector<char>& live, std::vector<double>& rates);

 private:
  void Freeze(std::uint32_t flow, double rate, std::vector<double>& rates);

  const std::vector<double>& demands_;
  double link_capacity_;
  enum class Kind : std::uint8_t { kNone, kSelf, kLinked };
  std::vector<Kind> kind_;  // per flow
  // Flow f's links are links_[link_begin_[f] .. link_begin_[f + 1]): dense
  // local ids, numbered in ascending directed-link id order.
  std::vector<std::uint32_t> link_begin_;
  std::vector<std::uint32_t> links_;
  // Link l's flows are flows_[flow_begin_[l] .. flow_begin_[l + 1]),
  // ascending flow index.
  std::vector<std::uint32_t> flow_begin_;
  std::vector<std::uint32_t> flows_;
  std::vector<std::uint32_t> by_demand_;  // linked flows, (demand, index) order

  // Fill scratch, reused across fills of this kernel only.
  std::vector<double> capacity_;
  std::vector<std::int32_t> active_;
  std::vector<char> fixed_;
  // Links with active flows at fill start, ascending, with their cached
  // capacity/active shares side by side; a link whose flows are all frozen
  // reads +inf until the next compaction.
  std::vector<std::uint32_t> live_links_;
  std::vector<double> live_share_;
  std::vector<std::uint32_t> slot_;  // link -> index in live_links_
  std::size_t dead_links_ = 0;
  std::size_t unfixed_ = 0;
  std::vector<std::uint32_t> batch_;
};

}  // namespace dcn::sim
