#include "routing/broadcast.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/error.h"

namespace dcn::routing {

std::size_t SpanningTree::CoveredCount() const {
  std::size_t count = 0;
  for (int d : depth) count += d >= 0 ? 1 : 0;
  return count;
}

int SpanningTree::MaxDepth() const {
  int max_depth = -1;
  for (int d : depth) max_depth = std::max(max_depth, d);
  return max_depth;
}

Route SpanningTree::PathTo(graph::NodeId server) const {
  if (!Contains(server)) return Route{};
  std::vector<graph::NodeId> reversed;
  graph::NodeId at = server;
  while (at != root) {
    reversed.push_back(at);
    // via is kInvalidNode for direct server-server tree links.
    if (via[at] != graph::kInvalidNode) reversed.push_back(via[at]);
    at = parent[at];
    DCN_ASSERT(at != graph::kInvalidNode);
  }
  reversed.push_back(root);
  return Route{{reversed.rbegin(), reversed.rend()}};
}

namespace {

// Distributes the payload from `owner` to every other member of its row.
void CrossbarFanOut(const topo::Abccc& net, graph::NodeId owner, SpanningTree& tree) {
  if (!net.Params().HasCrossbars()) return;
  const std::uint64_t row = net.RowOf(owner);
  const graph::NodeId xbar = net.CrossbarAt(row);
  for (int j = 0; j < net.Params().RowLength(); ++j) {
    const graph::NodeId member = net.ServerAtRow(row, j);
    if (tree.depth[member] >= 0) continue;
    tree.parent[member] = owner;
    tree.via[member] = xbar;
    tree.depth[member] = tree.depth[owner] + 2;
  }
}

}  // namespace

SpanningTree AbcccBroadcastTree(const topo::Abccc& net, graph::NodeId root) {
  const graph::Graph& g = net.Network();
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(g.ServerCount(), graph::kInvalidNode);
  tree.via.assign(g.ServerCount(), graph::kInvalidNode);
  tree.depth.assign(g.ServerCount(), -1);
  tree.depth[root] = 0;

  CrossbarFanOut(net, root, tree);

  // covered_rows holds every row whose members all have the payload. After
  // processing level l it contains exactly the rows matching the root on
  // digits > l (digit doubling), so it is rebuilt by appending the fan-out.
  std::vector<std::uint64_t> covered_rows{net.RowOf(root)};
  covered_rows.reserve(net.Params().RowCount());

  const int order = net.Params().DigitCount() - 1;
  for (int level = 0; level <= order; ++level) {
    const int agent = net.Params().AgentRole(level);
    const std::size_t frontier = covered_rows.size();
    for (std::size_t r = 0; r < frontier; ++r) {
      const std::uint64_t row = covered_rows[r];
      const graph::NodeId sender = net.ServerAtRow(row, agent);
      const topo::AbcccAddress addr = net.AddressOf(sender);
      const graph::NodeId level_switch = net.LevelSwitchAt(level, addr.digits);
      topo::Digits digits = addr.digits;
      for (int d = 0; d < net.Params().LevelRadix(level); ++d) {
        if (d == addr.digits[level]) continue;
        digits[level] = d;
        const graph::NodeId receiver = net.ServerAt(digits, agent);
        DCN_ASSERT(tree.depth[receiver] < 0);
        tree.parent[receiver] = sender;
        tree.via[receiver] = level_switch;
        tree.depth[receiver] = tree.depth[sender] + 2;
        CrossbarFanOut(net, receiver, tree);
        covered_rows.push_back(net.RowOf(receiver));
      }
    }
  }

  DCN_ASSERT(tree.CoveredCount() == g.ServerCount());
  return tree;
}

namespace {

SpanningTree PruneToTargets(const SpanningTree& full, graph::NodeId root,
                            std::span<const graph::NodeId> targets) {
  SpanningTree pruned;
  pruned.root = root;
  pruned.parent.assign(full.parent.size(), graph::kInvalidNode);
  pruned.via.assign(full.via.size(), graph::kInvalidNode);
  pruned.depth.assign(full.depth.size(), -1);
  pruned.depth[root] = 0;

  for (graph::NodeId target : targets) {
    DCN_REQUIRE(full.Contains(target), "multicast target is not a server");
    // Copy the root..target chain; stop as soon as we hit an already-kept
    // node so shared prefixes are not re-walked.
    graph::NodeId at = target;
    while (at != root && pruned.depth[at] < 0) {
      pruned.parent[at] = full.parent[at];
      pruned.via[at] = full.via[at];
      pruned.depth[at] = full.depth[at];
      at = full.parent[at];
    }
  }
  return pruned;
}

}  // namespace

SpanningTree AbcccMulticastTree(const topo::Abccc& net, graph::NodeId root,
                                std::span<const graph::NodeId> targets) {
  return PruneToTargets(AbcccBroadcastTree(net, root), root, targets);
}

SpanningTree FallbackBroadcastTree(const graph::Graph& graph, graph::NodeId root,
                                   const graph::FailureSet* failures) {
  DCN_REQUIRE(graph.IsServer(root), "broadcast root must be a server");
  DCN_REQUIRE(failures == nullptr || !failures->NodeDead(root),
              "broadcast root is dead");
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(graph.ServerCount(), graph::kInvalidNode);
  tree.via.assign(graph.ServerCount(), graph::kInvalidNode);
  tree.depth.assign(graph.ServerCount(), -1);
  tree.depth[root] = 0;

  // BFS over all nodes, remembering for each the last *server* on its path
  // and the switch (if any) crossed since.
  std::deque<graph::NodeId> queue{root};
  std::vector<int> node_depth(graph.NodeCount(), -1);
  std::vector<graph::NodeId> last_server(graph.NodeCount(), graph::kInvalidNode);
  std::vector<graph::NodeId> via_switch(graph.NodeCount(), graph::kInvalidNode);
  node_depth[root] = 0;
  last_server[root] = root;
  while (!queue.empty()) {
    const graph::NodeId node = queue.front();
    queue.pop_front();
    for (const graph::HalfEdge& half : graph.Neighbors(node)) {
      if (failures != nullptr && !failures->HalfEdgeUsable(half)) continue;
      if (node_depth[half.to] >= 0) continue;
      node_depth[half.to] = node_depth[node] + 1;
      if (graph.IsServer(half.to)) {
        last_server[half.to] = half.to;
        via_switch[half.to] = graph::kInvalidNode;
        tree.parent[half.to] = last_server[node];
        tree.via[half.to] = graph.IsSwitch(node) ? node : graph::kInvalidNode;
        tree.depth[half.to] = node_depth[half.to];
      } else {
        last_server[half.to] = last_server[node];
        via_switch[half.to] = half.to;
      }
      queue.push_back(half.to);
    }
  }
  return tree;
}

std::size_t TreeLinkCount(const graph::Graph& graph, const SpanningTree& tree) {
  std::set<graph::EdgeId> links;
  for (graph::NodeId server = 0;
       static_cast<std::size_t>(server) < tree.parent.size(); ++server) {
    if (tree.parent[server] == graph::kInvalidNode) continue;
    if (tree.via[server] == graph::kInvalidNode) {
      // Direct server-server tree link.
      const graph::EdgeId direct = graph.FindEdge(tree.parent[server], server);
      DCN_ASSERT(direct != graph::kInvalidEdge);
      links.insert(direct);
      continue;
    }
    const graph::EdgeId up = graph.FindEdge(tree.via[server], tree.parent[server]);
    const graph::EdgeId down = graph.FindEdge(tree.via[server], server);
    DCN_ASSERT(up != graph::kInvalidEdge && down != graph::kInvalidEdge);
    links.insert(up);
    links.insert(down);
  }
  return links.size();
}

}  // namespace dcn::routing
