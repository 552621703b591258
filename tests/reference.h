// Reference kernels shared by the test suites: each is the straightforward
// implementation a production kernel replaced, kept once, here, so the tests
// can pin the production kernel to it bit for bit.
//
//   ReferenceBfs                 adjacency-list BFS, fresh distance array,
//                                optional failure overlay (test_csr,
//                                test_workspace, test_pinned_workloads)
//   ReferenceUnitFlow            per-pair unit-capacity Dinic: arcs rebuilt
//                                from the CSR per construction, untruncated
//                                level BFS (test_pinned_workloads,
//                                test_cuttree)
//   ReferenceSampledPairCuts     metrics::SampledPairCuts before the
//                                source-shared batch engine
//   ReferencePairDisconnection   metrics::PairDisconnectionFraction before
//                                the component engine (test_components)
//   ReferenceWorstSingleSwitch   metrics::WorstSingleSwitchDisconnection
//                                before the intact-forest cone repair
//   CubeDiameter                 closed-form diameter of ABCCC(n, k, c), the
//                                exact value the cube tests assert where
//                                they once checked the route bound
//
// The sampled references draw from the same base.Fork(i) streams as the
// production kernels and run serially, so their results match at any
// DCN_THREADS. References with a single user live in that user's file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/workspace.h"
#include "metrics/bisection.h"
#include "topology/topology.h"

namespace dcn {

// Exact diameter of ABCCC(n, k, c) (DESIGN.md §1), in links: a farthest pair
// differs in every digit and must visit every role's crossbar, so 2(k+1) +
// 2m with m = ceil((k+1)/(c-1)) roles — or 2(k+1) when m = 1 and there is no
// crossbar. Independent of n.
inline int CubeDiameter(int k, int c) {
  const int m = (k + c - 1) / (c - 1);
  return 2 * (k + 1) + (m >= 2 ? 2 * m : 0);
}

// Straightforward adjacency-list BFS with a fresh O(V) distance array —
// what the hot paths ran before the CSR refactor.
inline std::vector<int> ReferenceBfs(const graph::Graph& g, graph::NodeId src,
                                     const graph::FailureSet* failures = nullptr) {
  std::vector<int> dist(g.NodeCount(), graph::kUnreachable);
  if (failures != nullptr && failures->NodeDead(src)) return dist;
  std::deque<graph::NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const graph::NodeId node = queue.front();
    queue.pop_front();
    for (const graph::HalfEdge& half : g.Neighbors(node)) {
      if (failures != nullptr && !failures->HalfEdgeUsable(half)) continue;
      if (dist[static_cast<std::size_t>(half.to)] != graph::kUnreachable) continue;
      dist[static_cast<std::size_t>(half.to)] =
          dist[static_cast<std::size_t>(node)] + 1;
      queue.push_back(half.to);
    }
  }
  return dist;
}

// The per-pair unit-capacity Dinic from graph/paths.cc before the batched
// engine: arc arrays rebuilt from the CSR on every construction, full
// (untruncated) level BFS, no degree bound. Byte-for-byte the old UnitFlow
// minus the path-extraction half, which no caller here needs.
class ReferenceUnitFlow {
 public:
  ReferenceUnitFlow(const graph::CsrView& csr, const graph::FailureSet* failures,
                    graph::FlowWorkspace& ws)
      : ws_(ws), nodes_(csr.NodeCount()) {
    ws_.offset.assign(nodes_ + 1, 0);
    for (graph::EdgeId edge = 0;
         static_cast<std::size_t>(edge) < csr.EdgeCount(); ++edge) {
      if (failures != nullptr && failures->EdgeDead(edge)) continue;
      const auto [u, v] = csr.Endpoints(edge);
      if (failures != nullptr &&
          (failures->NodeDead(u) || failures->NodeDead(v))) {
        continue;
      }
      ws_.offset[static_cast<std::size_t>(u) + 1] += 2;
      ws_.offset[static_cast<std::size_t>(v) + 1] += 2;
    }
    for (std::size_t node = 0; node < nodes_; ++node) {
      ws_.offset[node + 1] += ws_.offset[node];
    }
    const auto arcs = static_cast<std::size_t>(ws_.offset[nodes_]);
    ws_.cursor.assign(ws_.offset.begin(), ws_.offset.end() - 1);
    ws_.to.resize(arcs);
    ws_.rev.resize(arcs);
    ws_.cap.assign(arcs, 0);
    ws_.flow.assign(arcs, 0);
    for (graph::EdgeId edge = 0;
         static_cast<std::size_t>(edge) < csr.EdgeCount(); ++edge) {
      if (failures != nullptr && failures->EdgeDead(edge)) continue;
      const auto [u, v] = csr.Endpoints(edge);
      if (failures != nullptr &&
          (failures->NodeDead(u) || failures->NodeDead(v))) {
        continue;
      }
      AddArcPair(u, v);
      AddArcPair(v, u);
    }
  }

  std::size_t Run(graph::NodeId src, graph::NodeId dst) {
    std::size_t flow = 0;
    while (BuildLevels(src, dst)) {
      ws_.iter.assign(ws_.offset.begin(), ws_.offset.end() - 1);
      while (Augment(src, dst)) ++flow;
    }
    return flow;
  }

 private:
  void AddArcPair(graph::NodeId from, graph::NodeId to) {
    const std::int32_t fwd = ws_.cursor[static_cast<std::size_t>(from)]++;
    const std::int32_t res = ws_.cursor[static_cast<std::size_t>(to)]++;
    ws_.to[static_cast<std::size_t>(fwd)] = to;
    ws_.rev[static_cast<std::size_t>(fwd)] = res;
    ws_.cap[static_cast<std::size_t>(fwd)] = 1;
    ws_.to[static_cast<std::size_t>(res)] = from;
    ws_.rev[static_cast<std::size_t>(res)] = fwd;
    ws_.cap[static_cast<std::size_t>(res)] = 0;
  }

  bool BuildLevels(graph::NodeId src, graph::NodeId dst) {
    ws_.level.assign(nodes_, -1);
    ws_.queue.clear();
    ws_.level[static_cast<std::size_t>(src)] = 0;
    ws_.queue.push_back(src);
    for (std::size_t head = 0; head < ws_.queue.size(); ++head) {
      const graph::NodeId node = ws_.queue[head];
      for (std::int32_t a = ws_.offset[static_cast<std::size_t>(node)];
           a < ws_.offset[static_cast<std::size_t>(node) + 1]; ++a) {
        const graph::NodeId next = ws_.to[static_cast<std::size_t>(a)];
        if (ws_.cap[static_cast<std::size_t>(a)] > 0 &&
            ws_.level[static_cast<std::size_t>(next)] < 0) {
          ws_.level[static_cast<std::size_t>(next)] =
              ws_.level[static_cast<std::size_t>(node)] + 1;
          ws_.queue.push_back(next);
        }
      }
    }
    return ws_.level[static_cast<std::size_t>(dst)] >= 0;
  }

  bool Augment(graph::NodeId node, graph::NodeId dst) {
    if (node == dst) return true;
    for (std::int32_t& i = ws_.iter[static_cast<std::size_t>(node)];
         i < ws_.offset[static_cast<std::size_t>(node) + 1]; ++i) {
      const auto a = static_cast<std::size_t>(i);
      const graph::NodeId next = ws_.to[a];
      if (ws_.cap[a] <= 0 || ws_.level[static_cast<std::size_t>(next)] !=
                                 ws_.level[static_cast<std::size_t>(node)] + 1) {
        continue;
      }
      if (Augment(next, dst)) {
        ws_.cap[a] -= 1;
        ws_.flow[a] += 1;
        const auto twin = static_cast<std::size_t>(ws_.rev[a]);
        ws_.cap[twin] += 1;
        if (ws_.flow[twin] > 0) {
          ws_.flow[twin] -= 1;
          ws_.flow[a] -= 1;
        }
        return true;
      }
    }
    return false;
  }

  graph::FlowWorkspace& ws_;
  std::size_t nodes_;
};

// metrics::SampledPairCuts as it ran before the source-shared batch engine:
// one fresh arc build and one untruncated Dinic per sampled pair, same
// base.Fork(i) pair draws.
inline metrics::PairCutStats ReferenceSampledPairCuts(const topo::Topology& net,
                                                      std::size_t pairs,
                                                      Rng& rng) {
  const graph::CsrView& csr = net.Network().Csr();
  const auto servers = csr.Servers();
  const Rng base = rng.Fork();
  metrics::PairCutStats stats;
  stats.min_cut = std::numeric_limits<std::int64_t>::max();
  std::int64_t sum = 0;
  graph::FlowScope ws;
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng pair_rng = base.Fork(i);
    const graph::NodeId src = servers[pair_rng.NextUint64(servers.size())];
    graph::NodeId dst = src;
    while (dst == src) dst = servers[pair_rng.NextUint64(servers.size())];
    ReferenceUnitFlow flow{csr, nullptr, *ws};
    const auto cut = static_cast<std::int64_t>(flow.Run(src, dst));
    stats.cuts.Add(cut);
    stats.min_cut = std::min(stats.min_cut, cut);
    sum += cut;
    ++stats.pairs;
  }
  stats.mean_cut = static_cast<double>(sum) / static_cast<double>(pairs);
  return stats;
}

// The per-source-BFS implementation PairDisconnectionFraction used before
// the component engine, drawing from the identical Rng::Fork streams.
inline double ReferencePairDisconnection(const topo::Topology& net,
                                         const graph::FailureSet& failures,
                                         std::size_t sample_pairs, Rng& rng) {
  const graph::CsrView& csr = net.Network().Csr();
  std::vector<graph::NodeId> alive;
  for (std::size_t i = 0; i < csr.ServerCount(); ++i) {
    const graph::NodeId server = csr.ServerIdAt(i);
    if (!failures.NodeDead(server)) alive.push_back(server);
  }
  if (alive.size() < 2) return 0.0;
  const std::size_t sources = std::min<std::size_t>(
      alive.size(), std::max<std::size_t>(1, sample_pairs / 16));
  const std::size_t pairs_per_source = (sample_pairs + sources - 1) / sources;
  const Rng base = rng.Fork();
  std::size_t disconnected = 0;
  std::size_t measured = 0;
  graph::TraversalScope ws;
  for (std::size_t s = 0; s < sources; ++s) {
    Rng trial_rng = base.Fork(s);
    const graph::NodeId src = alive[trial_rng.NextUint64(alive.size())];
    graph::BfsDistances(csr, src, *ws, &failures);
    for (std::size_t p = 0; p < pairs_per_source; ++p) {
      graph::NodeId dst = src;
      while (dst == src) dst = alive[trial_rng.NextUint64(alive.size())];
      ++measured;
      if (!ws->Visited(dst)) ++disconnected;
    }
  }
  return static_cast<double>(disconnected) / static_cast<double>(measured);
}

// WorstSingleSwitchDisconnection before the intact-forest repair: every kill
// trial re-runs full BFS traversals of the whole graph.
inline double ReferenceWorstSingleSwitch(const topo::Topology& net,
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
  const Rng base = rng.Fork();
  double worst = 0.0;
  for (std::size_t i = 0; i < switches.size(); ++i) {
    graph::FailureSet failures{g};
    failures.KillNode(switches[i]);
    Rng pair_rng = base.Fork(i);
    worst = std::max(
        worst, ReferencePairDisconnection(net, failures, sample_pairs, pair_rng));
  }
  return worst;
}

}  // namespace dcn
