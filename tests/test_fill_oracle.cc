// Oracles for the progressive-filling kernel behind MaxMinFairRates* and
// FluidCompletionTimes, sharing no code with it:
//   * the max-min definition itself, checked with link loads summed here
//     from the route hops: every flow is at its demand or crosses a
//     saturated link on which no flow gets more;
//   * exact metamorphic relations, compared bit for bit: scaling bytes or
//     link capacity by a power of two scales every finish time and rate by
//     the same power, because such scalings are exact in floating point;
//   * FNV-1a digests of finish times and rates, pinned from the textbook
//     loop that scanned every directed link of the fabric each round. They
//     hold only if the kernel keeps its operation order: per-link
//     subtractions in freeze order, ties to the lowest directed-link id,
//     ascending-index freezes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "routing/load_balance.h"
#include "routing/multipath.h"
#include "routing/route.h"
#include "sim/failures.h"
#include "sim/flowsim.h"
#include "sim/fluid.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

namespace dcn {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::NodeKind;
using routing::Route;

constexpr double kUncapped = 1e9;

std::uint64_t Digest(const std::vector<double>& values) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  for (const double value : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::uint64_t BottleneckRounds() {
  return obs::GetCounter("flowsim/bottleneck_rounds").Value();
}

// The max-min definition, from the hops alone. Loads are keyed by the
// ordered node pair, which is the directed link on graphs without parallel
// edges (all graphs here).
void ExpectMaxMinFair(const std::vector<Route>& routes,
                      const std::vector<double>& demands, double capacity,
                      const std::vector<double>& rates) {
  ASSERT_EQ(rates.size(), routes.size());
  const double tolerance = 1e-9 * capacity;
  std::map<std::pair<NodeId, NodeId>, std::vector<std::size_t>> users;
  for (std::size_t f = 0; f < routes.size(); ++f) {
    const std::vector<NodeId>& hops = routes[f].hops;
    for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
      users[{hops[h], hops[h + 1]}].push_back(f);
    }
  }
  std::map<std::pair<NodeId, NodeId>, double> load;
  std::map<std::pair<NodeId, NodeId>, double> fastest;
  for (const auto& [link, flows] : users) {
    double sum = 0.0;
    double top = 0.0;
    for (const std::size_t f : flows) {
      sum += rates[f];
      top = std::max(top, rates[f]);
    }
    EXPECT_LE(sum, capacity + tolerance) << "link over capacity";
    load[link] = sum;
    fastest[link] = top;
  }
  for (std::size_t f = 0; f < routes.size(); ++f) {
    const std::vector<NodeId>& hops = routes[f].hops;
    if (hops.empty()) {
      EXPECT_EQ(rates[f], 0.0) << "unroutable flow " << f;
      continue;
    }
    if (hops.size() == 1) {
      EXPECT_EQ(rates[f], std::min(capacity, demands[f])) << "self-flow " << f;
      continue;
    }
    EXPECT_GT(rates[f], 0.0) << "flow " << f;
    EXPECT_LE(rates[f], demands[f] + tolerance) << "flow " << f;
    if (rates[f] >= demands[f] - tolerance) continue;  // demand-limited
    bool bottlenecked = false;
    for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
      const std::pair<NodeId, NodeId> link{hops[h], hops[h + 1]};
      if (load[link] >= capacity - tolerance &&
          fastest[link] <= rates[f] + tolerance) {
        bottlenecked = true;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " at " << rates[f]
                              << " could still grow";
  }
}

// Shortest path by BFS over every node (servers relay), for graphs whose
// topology class has no router.
Route BfsRoute(const Graph& g, NodeId src, NodeId dst) {
  std::vector<NodeId> parent(g.NodeCount(), graph::kInvalidNode);
  std::queue<NodeId> frontier;
  parent[static_cast<std::size_t>(src)] = src;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const graph::HalfEdge& half : g.Neighbors(u)) {
      const NodeId v = half.to;
      if (parent[static_cast<std::size_t>(v)] != graph::kInvalidNode) continue;
      parent[static_cast<std::size_t>(v)] = u;
      frontier.push(v);
    }
  }
  if (parent[static_cast<std::size_t>(dst)] == graph::kInvalidNode) return Route{};
  std::vector<NodeId> hops{dst};
  while (hops.back() != src) hops.push_back(parent[static_cast<std::size_t>(hops.back())]);
  std::reverse(hops.begin(), hops.end());
  return Route{hops};
}

// Six switches in a ring with two chords, two servers per switch and every
// third server dual-homed to the next switch.
Graph MakeCustomFabric(std::vector<NodeId>& servers) {
  Graph g;
  std::vector<NodeId> switches;
  for (int s = 0; s < 6; ++s) switches.push_back(g.AddNode(NodeKind::kSwitch));
  for (int s = 0; s < 6; ++s) g.AddEdge(switches[s], switches[(s + 1) % 6]);
  g.AddEdge(switches[0], switches[3]);
  g.AddEdge(switches[1], switches[4]);
  for (int s = 0; s < 6; ++s) {
    for (int k = 0; k < 2; ++k) {
      const NodeId server = g.AddNode(NodeKind::kServer);
      g.AddEdge(server, switches[s]);
      if (servers.size() % 3 == 0) g.AddEdge(server, switches[(s + 1) % 6]);
      servers.push_back(server);
    }
  }
  return g;
}

struct Instance {
  std::vector<Route> routes;
  std::vector<double> demands;
};

// `flows` random server pairs plus one self-flow and one unroutable flow per
// ten; a quarter of the flows are demand-capped below a fair share.
Instance RandomInstance(const std::vector<NodeId>& servers,
                        const std::function<Route(NodeId, NodeId)>& route,
                        std::size_t flows, Rng& rng) {
  Instance out;
  for (std::size_t f = 0; f < flows; ++f) {
    const NodeId src = servers[rng.NextUint64(servers.size())];
    const NodeId dst = servers[rng.NextUint64(servers.size())];
    if (f % 10 == 3) {
      out.routes.push_back(Route{{src}});
    } else if (f % 10 == 7) {
      out.routes.push_back(Route{});
    } else if (src == dst) {
      out.routes.push_back(Route{{src}});
    } else {
      out.routes.push_back(route(src, dst));
    }
    out.demands.push_back(rng.NextBernoulli(0.25) ? 0.01 + 0.2 * rng.NextDouble()
                                                  : kUncapped);
  }
  return out;
}

void CheckRandomInstances(const Graph& g, const std::vector<NodeId>& servers,
                          const std::function<Route(NodeId, NodeId)>& route,
                          std::uint64_t seed) {
  Rng rng{seed};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t flows = 20 + rng.NextUint64(3 * servers.size());
    const Instance inst = RandomInstance(servers, route, flows, rng);
    for (const double capacity : {1.0, 2.5}) {
      const sim::FlowSimResult capped =
          sim::MaxMinFairRatesWithDemands(g, inst.routes, inst.demands, capacity);
      ExpectMaxMinFair(inst.routes, inst.demands, capacity, capped.rates);
      const std::vector<double> uncapped_demands(inst.routes.size(),
                                                 std::numeric_limits<double>::max());
      const sim::FlowSimResult uncapped = sim::MaxMinFairRates(g, inst.routes, capacity);
      ExpectMaxMinFair(inst.routes, uncapped_demands, capacity, uncapped.rates);
    }
  }
}

TEST(FillOracleTest, BottleneckPropertyOnAbccc) {
  const topo::Abccc net{topo::AbcccParams{4, 2, 2}};
  const std::vector<NodeId> servers(net.Servers().begin(), net.Servers().end());
  CheckRandomInstances(net.Network(), servers,
                       [&](NodeId s, NodeId d) { return Route{net.Route(s, d)}; }, 11);
}

TEST(FillOracleTest, BottleneckPropertyOnBcube) {
  const topo::Bcube net{topo::BcubeParams{3, 2}};
  const std::vector<NodeId> servers(net.Servers().begin(), net.Servers().end());
  CheckRandomInstances(net.Network(), servers,
                       [&](NodeId s, NodeId d) { return Route{net.Route(s, d)}; }, 12);
}

TEST(FillOracleTest, BottleneckPropertyOnCustomGraph) {
  std::vector<NodeId> servers;
  const Graph g = MakeCustomFabric(servers);
  CheckRandomInstances(g, servers,
                       [&](NodeId s, NodeId d) { return BfsRoute(g, s, d); }, 13);
}

// All-to-all among `workers` random servers, F23-shaped: one unit per pair.
std::vector<std::pair<NodeId, NodeId>> Coflow(const topo::Topology& net,
                                              std::size_t workers,
                                              std::uint64_t seed) {
  std::vector<NodeId> pool(net.Servers().begin(), net.Servers().end());
  Rng rng{seed};
  rng.Shuffle(pool);
  pool.resize(workers);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId src : pool) {
    for (const NodeId dst : pool) {
      if (src != dst) pairs.emplace_back(src, dst);
    }
  }
  return pairs;
}

std::vector<Route> CoflowRoutes(const topo::Abccc& net, std::size_t workers,
                                bool balanced, std::uint64_t seed) {
  std::vector<Route> routes;
  std::vector<std::vector<Route>> candidates;
  for (const auto& [src, dst] : Coflow(net, workers, seed)) {
    if (balanced) {
      candidates.push_back(routing::RotatedLevelOrderRoutes(net, src, dst));
    } else {
      routes.push_back(Route{net.Route(src, dst)});
    }
  }
  if (balanced) routes = routing::AssignRoutes(net.Network(), candidates).routes;
  return routes;
}

TEST(FillOracleTest, DoublingBytesDoublesEveryFinishTime) {
  const topo::Abccc net{topo::AbcccParams{4, 2, 2}};
  std::vector<Route> routes = CoflowRoutes(net, 12, false, 3);
  routes.push_back(Route{{net.Servers().front()}});  // self-flow
  routes.push_back(Route{});                          // unroutable
  Rng rng{4};
  std::vector<double> bytes;
  for (std::size_t f = 0; f < routes.size(); ++f) bytes.push_back(1.0 + 9.0 * rng.NextDouble());
  for (const double scale : {2.0, 0.25}) {
    std::vector<double> scaled = bytes;
    for (double& b : scaled) b *= scale;
    const sim::FluidResult base = sim::FluidCompletionTimes(net.Network(), routes, bytes);
    const sim::FluidResult more = sim::FluidCompletionTimes(net.Network(), routes, scaled);
    ASSERT_EQ(more.rate_recomputations, base.rate_recomputations);
    for (std::size_t f = 0; f < routes.size(); ++f) {
      EXPECT_EQ(more.finish_time[f], scale * base.finish_time[f]) << "flow " << f;
    }
    EXPECT_EQ(more.makespan, scale * base.makespan);
  }
}

TEST(FillOracleTest, DoublingCapacityHalvesFinishTimesAndDoublesRates) {
  const topo::Abccc net{topo::AbcccParams{4, 2, 2}};
  std::vector<Route> routes = CoflowRoutes(net, 12, true, 5);
  routes.push_back(Route{{net.Servers().back()}});
  routes.push_back(Route{});
  Rng rng{6};
  std::vector<double> bytes;
  std::vector<double> demands;
  for (std::size_t f = 0; f < routes.size(); ++f) {
    bytes.push_back(1.0 + 9.0 * rng.NextDouble());
    demands.push_back(rng.NextBernoulli(0.3) ? 0.05 * rng.NextDouble() + 0.01 : kUncapped);
  }
  const sim::FluidResult base = sim::FluidCompletionTimes(net.Network(), routes, bytes, 1.0);
  const sim::FlowSimResult rates = sim::MaxMinFairRates(net.Network(), routes, 1.0);
  const sim::FlowSimResult capped =
      sim::MaxMinFairRatesWithDemands(net.Network(), routes, demands, 1.0);
  for (const double scale : {2.0, 4.0, 0.5}) {
    const sim::FluidResult fast =
        sim::FluidCompletionTimes(net.Network(), routes, bytes, scale);
    ASSERT_EQ(fast.rate_recomputations, base.rate_recomputations);
    for (std::size_t f = 0; f < routes.size(); ++f) {
      EXPECT_EQ(fast.finish_time[f], base.finish_time[f] / scale) << "flow " << f;
    }
    const sim::FlowSimResult wide = sim::MaxMinFairRates(net.Network(), routes, scale);
    std::vector<double> scaled_demands = demands;
    for (double& d : scaled_demands) d *= scale;
    const sim::FlowSimResult wide_capped =
        sim::MaxMinFairRatesWithDemands(net.Network(), routes, scaled_demands, scale);
    for (std::size_t f = 0; f < routes.size(); ++f) {
      EXPECT_EQ(wide.rates[f], scale * rates.rates[f]) << "flow " << f;
      EXPECT_EQ(wide_capped.rates[f], scale * capped.rates[f]) << "flow " << f;
    }
  }
}

struct PinnedCoflow {
  bool bcube;
  std::size_t workers;
  bool balanced;
  std::uint64_t finish_digest;
  int recomputations;
  std::uint64_t rounds;
};

TEST(FillOracleTest, PinnedCoflowDigests) {
  const topo::Abccc abccc{topo::AbcccParams{4, 3, 3}};
  const topo::Bcube bcube{topo::BcubeParams{4, 3}};
  const PinnedCoflow cases[] = {
      {false, 16, false, 0x1bf580188189716dull, 23, 570},
      {false, 16, true, 0x39970b7e2d95b9c3ull, 11, 552},
      {false, 32, false, 0xc4f722727f5f6318ull, 79, 4956},
      {false, 32, true, 0xc81153d0705eb14bull, 111, 11362},
      {true, 16, false, 0xc7d1a28a5e651c4aull, 25, 685},
      {true, 16, true, 0x381a55097663754eull, 9, 622},
      {true, 32, false, 0x89787a671630bfd6ull, 57, 3607},
      {true, 32, true, 0x4e2663b490f148abull, 111, 16242},
  };
  for (const PinnedCoflow& pin : cases) {
    const topo::Abccc& net = pin.bcube ? bcube : abccc;
    const std::vector<Route> routes = CoflowRoutes(net, pin.workers, pin.balanced, 2015);
    const std::vector<double> bytes(routes.size(), 1.0);
    const std::uint64_t before = BottleneckRounds();
    const sim::FluidResult result = sim::FluidCompletionTimes(net.Network(), routes, bytes);
    SCOPED_TRACE(net.Describe() + " W=" + std::to_string(pin.workers) +
                 (pin.balanced ? " balanced" : " native"));
    EXPECT_EQ(Digest(result.finish_time), pin.finish_digest);
    EXPECT_EQ(result.rate_recomputations, pin.recomputations);
    EXPECT_EQ(BottleneckRounds() - before, pin.rounds);
  }
}

TEST(FillOracleTest, PinnedDemandCappedDigest) {
  // F16-shaped: a permutation with 80% rate-limited mice.
  const topo::Abccc net{topo::AbcccParams{4, 2, 3}};
  Rng rng{16};
  std::vector<NodeId> servers(net.Servers().begin(), net.Servers().end());
  std::vector<NodeId> partners = servers;
  rng.Shuffle(partners);
  std::vector<Route> routes;
  std::vector<double> demands;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    routes.push_back(servers[i] == partners[i] ? Route{{servers[i]}}
                                               : Route{net.Route(servers[i], partners[i])});
    demands.push_back(rng.NextBernoulli(0.8) ? 0.05 : kUncapped);
  }
  const std::uint64_t before = BottleneckRounds();
  const sim::FlowSimResult result =
      sim::MaxMinFairRatesWithDemands(net.Network(), routes, demands);
  EXPECT_EQ(Digest(result.rates), 0x30f96f6ae9a763edull);
  EXPECT_EQ(BottleneckRounds() - before, 22u);
  const sim::FlowSimResult plain = sim::MaxMinFairRates(net.Network(), routes);
  EXPECT_EQ(Digest(plain.rates), 0x07e53f6b1bfff858ull);
}

TEST(FillOracleTest, PinnedDistinctDemandDigest) {
  // A coflow whose capped flows each have their own demand: flows frozen in
  // one demand-limited round subtract different rates from shared links, so
  // this digest also pins the ascending freeze order.
  const topo::Abccc net{topo::AbcccParams{4, 3, 3}};
  const std::vector<Route> routes = CoflowRoutes(net, 16, false, 17);
  Rng rng{18};
  std::vector<double> demands;
  for (std::size_t f = 0; f < routes.size(); ++f) {
    demands.push_back(rng.NextBernoulli(0.7) ? 0.005 + 0.045 * rng.NextDouble()
                                             : kUncapped);
  }
  const std::uint64_t before = BottleneckRounds();
  const sim::FlowSimResult result =
      sim::MaxMinFairRatesWithDemands(net.Network(), routes, demands);
  EXPECT_EQ(Digest(result.rates), 0xbba7e25b6223d04bull);
  EXPECT_EQ(BottleneckRounds() - before, 29u);
}

TEST(FillOracleTest, PinnedMidRunKillDigest) {
  const topo::Abccc net{topo::AbcccParams{4, 2, 2}};
  const std::vector<Route> routes = CoflowRoutes(net, 16, false, 7);
  Rng rng{8};
  std::vector<double> bytes;
  for (std::size_t f = 0; f < routes.size(); ++f) bytes.push_back(1.0 + rng.NextDouble());
  // The first route at or after `f` with more than h + 1 hops.
  const auto route_from = [&](std::size_t f, std::size_t h) -> const Route& {
    while (routes[f].hops.size() <= h + 1) ++f;
    return routes[f];
  };
  const auto link = [&](std::size_t f, std::size_t h) {
    const Route& route = route_from(f, h);
    return net.Network().Csr().FindEdge(route.hops[h], route.hops[h + 1]);
  };
  sim::FaultSchedule schedule;
  schedule.DegradeLink(0.5, link(1, 0), 1);
  schedule.KillLink(2.0, link(5, 1));
  schedule.RestoreLink(2.5, link(1, 0));
  schedule.KillNode(4.0, route_from(40, 2).hops[2]);
  schedule.KillLink(6.0, link(90, 2));
  const sim::FluidResult result =
      sim::FluidCompletionTimes(net.Network(), routes, bytes, schedule);
  EXPECT_EQ(Digest(result.finish_time), 0xe96db412be8fc11eull);
  EXPECT_EQ(result.killed_flows, 36u);
  EXPECT_LE(result.rate_recomputations, static_cast<int>(routes.size()));
}

}  // namespace
}  // namespace dcn
