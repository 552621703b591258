#include "metrics/bisection.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/cuttree.h"
#include "graph/paths.h"

namespace dcn::metrics {

std::int64_t MeasureBisection(const topo::Topology& net,
                              const graph::FailureSet* failures) {
  const auto [side_a, side_b] = net.BisectionHalves();
  return graph::MinCutBetween(net.Network(), side_a, side_b, failures);
}

PairCutStats SampledPairCuts(const topo::Topology& net, std::size_t pairs,
                             Rng& rng) {
  DCN_REQUIRE(pairs > 0, "need at least one sampled pair");
  const graph::CsrView& csr = net.Network().Csr();
  const auto servers = csr.Servers();
  DCN_REQUIRE(servers.size() >= 2, "need at least two servers to sample cuts");

  const Rng base = rng.Fork();

  // Pre-draw every pair from its historical base.Fork(i) stream, then order
  // the queries by source node: consecutive same-source queries inside a
  // chunk share the batched solver's cached first-phase level graph. The
  // accumulators (histogram, min, sum) are commutative integers, so the
  // reordering cannot change any output bit.
  struct PairDraw {
    graph::NodeId src;
    graph::NodeId dst;
  };
  std::vector<PairDraw> draws(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng pair_rng = base.Fork(i);
    const graph::NodeId src = servers[pair_rng.NextUint64(servers.size())];
    graph::NodeId dst = src;
    while (dst == src) dst = servers[pair_rng.NextUint64(servers.size())];
    draws[i] = {src, dst};
  }
  std::vector<std::uint32_t> order(pairs);
  for (std::size_t i = 0; i < pairs; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return draws[a].src < draws[b].src;
                   });

  struct Partial {
    IntHistogram cuts;
    std::int64_t min_cut = std::numeric_limits<std::int64_t>::max();
    std::int64_t sum = 0;
  };
  const Partial merged = ParallelMapReduce(
      pairs, /*chunk=*/8, Partial{},
      [&](std::size_t begin, std::size_t end) {
        Partial partial;
        // One batched solver per chunk: the flat arc arrays are built once
        // and each query restores pristine capacities with a memcpy.
        graph::FlowScope ws;
        graph::EdgeConnectivityBatch batch{csr, *ws};
        for (std::size_t i = begin; i < end; ++i) {
          const PairDraw& draw = draws[order[i]];
          const bool repeated_source =
              i + 1 < end && draws[order[i + 1]].src == draw.src;
          const auto cut = static_cast<std::int64_t>(
              batch.Connectivity(draw.src, draw.dst, repeated_source));
          partial.cuts.Add(cut);
          partial.min_cut = std::min(partial.min_cut, cut);
          partial.sum += cut;
        }
        return partial;
      },
      [](Partial acc, Partial partial) {
        acc.cuts.Merge(partial.cuts);
        acc.min_cut = std::min(acc.min_cut, partial.min_cut);
        acc.sum += partial.sum;
        return acc;
      });

  PairCutStats stats;
  stats.cuts = merged.cuts;
  stats.min_cut = merged.min_cut;
  stats.mean_cut =
      static_cast<double>(merged.sum) / static_cast<double>(pairs);
  stats.pairs = static_cast<std::int64_t>(pairs);
  return stats;
}

PairCutStats AllPairsCutStats(const topo::Topology& net,
                              const graph::FailureSet* failures) {
  const graph::Graph& g = net.Network();
  const auto servers = net.Servers();
  DCN_REQUIRE(servers.size() >= 2, "need at least two servers for pair cuts");
  const graph::CutTree tree = graph::BuildCutTree(g, failures);

  // Kruskal over the tree edges in descending cut order: when an edge of
  // weight w first joins two node groups, w is the smallest weight on the
  // tree path between every cross pair, i.e. exactly their min cut. Each
  // union therefore accounts servers(A) x servers(B) pairs at value w, and
  // the tree spans all nodes (cut-0 edges bridge disconnected pieces), so
  // every unordered server pair is counted exactly once.
  const std::size_t nodes = g.NodeCount();
  std::vector<graph::NodeId> uf(nodes);
  for (std::size_t n = 0; n < nodes; ++n) uf[n] = static_cast<graph::NodeId>(n);
  const auto find = [&uf](graph::NodeId n) {
    while (uf[static_cast<std::size_t>(n)] != n) {
      uf[static_cast<std::size_t>(n)] =
          uf[static_cast<std::size_t>(uf[static_cast<std::size_t>(n)])];
      n = uf[static_cast<std::size_t>(n)];
    }
    return n;
  };
  std::vector<std::int64_t> server_count(nodes, 0);
  for (const graph::NodeId server : servers) {
    server_count[static_cast<std::size_t>(server)] = 1;
  }
  std::vector<std::uint32_t> edge_order;
  edge_order.reserve(nodes == 0 ? 0 : nodes - 1);
  for (std::size_t n = 1; n < nodes; ++n) {
    edge_order.push_back(static_cast<std::uint32_t>(n));
  }
  std::stable_sort(edge_order.begin(), edge_order.end(),
                   [&tree](std::uint32_t a, std::uint32_t b) {
                     return tree.cut[a] > tree.cut[b];
                   });

  PairCutStats stats;
  stats.min_cut = std::numeric_limits<std::int64_t>::max();
  std::int64_t sum = 0;
  std::int64_t total_pairs = 0;
  for (const std::uint32_t n : edge_order) {
    const graph::NodeId a = find(static_cast<graph::NodeId>(n));
    const graph::NodeId b = find(tree.parent[n]);
    const std::int64_t cross = server_count[static_cast<std::size_t>(a)] *
                               server_count[static_cast<std::size_t>(b)];
    uf[static_cast<std::size_t>(a)] = b;
    server_count[static_cast<std::size_t>(b)] +=
        server_count[static_cast<std::size_t>(a)];
    if (cross == 0) continue;
    const std::int64_t cut = tree.cut[n];
    stats.cuts.Add(cut, cross);
    stats.min_cut = std::min(stats.min_cut, cut);
    sum += cut * cross;
    total_pairs += cross;
  }
  DCN_ASSERT(total_pairs ==
             static_cast<std::int64_t>(servers.size()) *
                 static_cast<std::int64_t>(servers.size() - 1) / 2);
  stats.mean_cut = static_cast<double>(sum) / static_cast<double>(total_pairs);
  stats.pairs = total_pairs;
  return stats;
}

}  // namespace dcn::metrics
