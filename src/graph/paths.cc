#include "graph/paths.h"

#include <limits>
#include <numeric>

#include "common/error.h"
#include "obs/obs.h"

namespace dcn::graph {

namespace {

// Minimal unit-capacity Dinic keeping per-arc flow so paths can be
// reconstructed afterwards. Arcs live in a flat CSR layout inside the
// caller's FlowWorkspace: the arrays are assigned (overwriting old contents
// in place) per solve, so repeated solves on one workspace do not allocate
// once the buffers have grown to the largest instance seen. The kernels are
// free functions over the workspace so the single-shot entry points, the
// set-to-set cut (MinCutBetween) and the batched engine
// (EdgeConnectivityBatch, which the cut tree also runs on) share one
// implementation.
//
// Arc order per node reproduces the historical vector-of-vectors append
// order exactly — for each live edge (u, v) in edge-id order, u receives
// [forward u->v, residual of v->u] and v receives [residual of u->v,
// forward v->u] — so augmentation and path extraction visit arcs in the
// same sequence and produce identical paths.

void AddArcPair(FlowWorkspace& ws, NodeId from, NodeId to) {
  const std::int32_t fwd = ws.cursor[static_cast<std::size_t>(from)]++;
  const std::int32_t res = ws.cursor[static_cast<std::size_t>(to)]++;
  ws.to[static_cast<std::size_t>(fwd)] = to;
  ws.rev[static_cast<std::size_t>(fwd)] = res;
  ws.cap[static_cast<std::size_t>(fwd)] = 1;
  ws.to[static_cast<std::size_t>(res)] = from;
  ws.rev[static_cast<std::size_t>(res)] = fwd;
  ws.cap[static_cast<std::size_t>(res)] = 0;
}

// Builds the unit arcs of every live link in edge-id order. With `rep`
// non-empty, each endpoint n is first replaced by rep[n] — the side-set
// contraction behind MinCutBetween — and links that end up inside one
// contracted set are dropped: they can never cross the cut. Contraction only
// relabels endpoints, so every arc keeps unit capacity.
void BuildUnitArcs(const CsrView& csr, const FailureSet* failures,
                   FlowWorkspace& ws, std::span<const NodeId> rep = {}) {
  const auto for_each_live_link = [&](auto&& fn) {
    for (EdgeId edge = 0; static_cast<std::size_t>(edge) < csr.EdgeCount();
         ++edge) {
      if (failures != nullptr && failures->EdgeDead(edge)) continue;
      auto [u, v] = csr.Endpoints(edge);
      if (failures != nullptr &&
          (failures->NodeDead(u) || failures->NodeDead(v))) {
        continue;
      }
      if (!rep.empty()) {
        u = rep[static_cast<std::size_t>(u)];
        v = rep[static_cast<std::size_t>(v)];
        if (u == v) continue;
      }
      fn(u, v);
    }
  };
  const std::size_t nodes = csr.NodeCount();
  ws.offset.assign(nodes + 1, 0);
  // Two passes: count live arc slots per node, prefix-sum, then fill with
  // per-node cursors. Each live edge contributes two arcs to each endpoint
  // (forward + twin residual).
  for_each_live_link([&](NodeId u, NodeId v) {
    ws.offset[static_cast<std::size_t>(u) + 1] += 2;
    ws.offset[static_cast<std::size_t>(v) + 1] += 2;
  });
  for (std::size_t node = 0; node < nodes; ++node) {
    ws.offset[node + 1] += ws.offset[node];
  }
  const auto arcs = static_cast<std::size_t>(ws.offset[nodes]);
  ws.cursor.assign(ws.offset.begin(), ws.offset.end() - 1);
  ws.to.resize(arcs);
  ws.rev.resize(arcs);
  ws.cap.assign(arcs, 0);
  ws.flow.assign(arcs, 0);
  for_each_live_link([&](NodeId u, NodeId v) {
    AddArcPair(ws, u, v);
    AddArcPair(ws, v, u);
  });
}

// Live incident links of a node, straight from the arc layout: each live
// edge contributed exactly two arc slots to each endpoint. This caps the
// s-t flow, letting the driver skip the final (always failing) level build
// once min(deg) paths are found.
std::size_t LiveDegree(const FlowWorkspace& ws, NodeId node) {
  return static_cast<std::size_t>(ws.offset[static_cast<std::size_t>(node) + 1] -
                                  ws.offset[static_cast<std::size_t>(node)]) /
         2;
}

// Level BFS over positive-residual arcs. When `truncate` is set, expansion
// stops at dst's level: deeper nodes stay at -1. Augmentation only ever
// advances along level+1 chains ending at dst, so explorations past dst's
// level can never reach it — with full levels they fail without touching
// cap/flow, with truncated levels they are skipped. Either way the
// augmenting-path sequence, and therefore the result, is bit-identical.
bool BuildUnitLevels(FlowWorkspace& ws, std::size_t nodes, NodeId src,
                     NodeId dst, bool truncate) {
  ws.level.assign(nodes, -1);
  ws.queue.clear();
  ws.level[static_cast<std::size_t>(src)] = 0;
  ws.queue.push_back(src);
  int dst_level = -1;
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    const NodeId node = ws.queue[head];
    if (dst_level >= 0 &&
        ws.level[static_cast<std::size_t>(node)] >= dst_level) {
      break;  // the queue is level-ordered: nothing shallower follows
    }
    for (std::int32_t a = ws.offset[static_cast<std::size_t>(node)];
         a < ws.offset[static_cast<std::size_t>(node) + 1]; ++a) {
      const NodeId next = ws.to[static_cast<std::size_t>(a)];
      if (ws.cap[static_cast<std::size_t>(a)] > 0 &&
          ws.level[static_cast<std::size_t>(next)] < 0) {
        ws.level[static_cast<std::size_t>(next)] =
            ws.level[static_cast<std::size_t>(node)] + 1;
        ws.queue.push_back(next);
        if (truncate && next == dst) {
          dst_level = ws.level[static_cast<std::size_t>(next)];
        }
      }
    }
  }
  return ws.level[static_cast<std::size_t>(dst)] >= 0;
}

bool AugmentUnit(FlowWorkspace& ws, NodeId node, NodeId dst) {
  if (node == dst) return true;
  for (std::int32_t& i = ws.iter[static_cast<std::size_t>(node)];
       i < ws.offset[static_cast<std::size_t>(node) + 1]; ++i) {
    const auto a = static_cast<std::size_t>(i);
    const NodeId next = ws.to[a];
    if (ws.cap[a] <= 0 || ws.level[static_cast<std::size_t>(next)] !=
                              ws.level[static_cast<std::size_t>(node)] + 1) {
      continue;
    }
    if (AugmentUnit(ws, next, dst)) {
      ws.cap[a] -= 1;
      ws.flow[a] += 1;
      const auto twin = static_cast<std::size_t>(ws.rev[a]);
      ws.cap[twin] += 1;
      // Pushing along a residual (reverse) arc cancels prior flow instead
      // of creating antiparallel flow.
      if (ws.flow[twin] > 0) {
        ws.flow[twin] -= 1;
        ws.flow[a] -= 1;
      }
      return true;
    }
  }
  return false;
}

std::size_t RunUnitFlow(FlowWorkspace& ws, std::size_t nodes, NodeId src,
                        NodeId dst, std::size_t max_paths) {
  const std::size_t bound = std::min(LiveDegree(ws, src), LiveDegree(ws, dst));
  std::size_t flow = 0;
  while (flow < max_paths && flow < bound &&
         BuildUnitLevels(ws, nodes, src, dst, /*truncate=*/true)) {
    // Reset every node's arc iterator to its first arc.
    ws.iter.assign(ws.offset.begin(), ws.offset.end() - 1);
    while (flow < max_paths && AugmentUnit(ws, src, dst)) ++flow;
  }
  return flow;
}

// Decomposes the current flow into paths by walking saturated arcs from
// src, consuming each as it is used.
std::vector<std::vector<NodeId>> ExtractUnitPaths(FlowWorkspace& ws,
                                                  std::size_t nodes, NodeId src,
                                                  NodeId dst,
                                                  std::size_t count) {
  std::vector<std::vector<NodeId>> paths;
  paths.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    std::vector<NodeId> path{src};
    NodeId node = src;
    while (node != dst) {
      bool advanced = false;
      for (std::int32_t a = ws.offset[static_cast<std::size_t>(node)];
           a < ws.offset[static_cast<std::size_t>(node) + 1]; ++a) {
        if (ws.flow[static_cast<std::size_t>(a)] > 0) {
          ws.flow[static_cast<std::size_t>(a)] = 0;
          node = ws.to[static_cast<std::size_t>(a)];
          path.push_back(node);
          advanced = true;
          break;
        }
      }
      // Flow conservation guarantees an outgoing saturated arc until dst.
      DCN_ASSERT(advanced);
      // A unit-flow path visits each node at most deg(node) times; guard
      // against pathological cycles in the decomposition.
      DCN_ASSERT(path.size() <= 4 * nodes + 2);
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

void CheckEndpoints(std::size_t node_count, NodeId src, NodeId dst) {
  DCN_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < node_count,
              "src out of range");
  DCN_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < node_count,
              "dst out of range");
  DCN_REQUIRE(src != dst, "src and dst must differ");
}

}  // namespace

std::vector<std::vector<NodeId>> EdgeDisjointPaths(const CsrView& csr,
                                                   NodeId src, NodeId dst,
                                                   FlowWorkspace& ws,
                                                   std::size_t max_paths,
                                                   const FailureSet* failures) {
  CheckEndpoints(csr.NodeCount(), src, dst);
  if (failures != nullptr &&
      (failures->NodeDead(src) || failures->NodeDead(dst))) {
    return {};
  }
  BuildUnitArcs(csr, failures, ws);
  const std::size_t count = RunUnitFlow(ws, csr.NodeCount(), src, dst, max_paths);
  return ExtractUnitPaths(ws, csr.NodeCount(), src, dst, count);
}

std::vector<std::vector<NodeId>> EdgeDisjointPaths(const Graph& graph,
                                                   NodeId src, NodeId dst,
                                                   std::size_t max_paths,
                                                   const FailureSet* failures) {
  FlowScope ws;
  return EdgeDisjointPaths(graph.Csr(), src, dst, *ws, max_paths, failures);
}

std::size_t EdgeConnectivity(const CsrView& csr, NodeId src, NodeId dst,
                             FlowWorkspace& ws, const FailureSet* failures) {
  CheckEndpoints(csr.NodeCount(), src, dst);
  if (failures != nullptr &&
      (failures->NodeDead(src) || failures->NodeDead(dst))) {
    return 0;
  }
  BuildUnitArcs(csr, failures, ws);
  return RunUnitFlow(ws, csr.NodeCount(), src, dst,
                     std::numeric_limits<std::size_t>::max());
}

std::size_t EdgeConnectivity(const Graph& graph, NodeId src, NodeId dst,
                             const FailureSet* failures) {
  FlowScope ws;
  return EdgeConnectivity(graph.Csr(), src, dst, *ws, failures);
}

std::int64_t MinCutBetween(const Graph& graph, std::span<const NodeId> side_a,
                           std::span<const NodeId> side_b,
                           const FailureSet* failures) {
  DCN_REQUIRE(!side_a.empty() && !side_b.empty(),
              "min cut needs non-empty side sets");
  const CsrView& csr = graph.Csr();
  const std::size_t nodes = csr.NodeCount();
  const auto check = [nodes](NodeId node) {
    DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < nodes,
                "side node out of range");
  };
  // Contract each side onto its first node. Side b is mapped first, so a
  // node of side a already mapped to b's representative is in both sets.
  const NodeId a = side_a.front();
  const NodeId b = side_b.front();
  std::vector<NodeId> rep(nodes);
  std::iota(rep.begin(), rep.end(), NodeId{0});
  for (const NodeId node : side_b) {
    check(node);
    rep[static_cast<std::size_t>(node)] = b;
  }
  for (const NodeId node : side_a) {
    check(node);
    DCN_REQUIRE(rep[static_cast<std::size_t>(node)] != b,
                "side sets must be disjoint");
    rep[static_cast<std::size_t>(node)] = a;
  }
  FlowScope ws;
  BuildUnitArcs(csr, failures, *ws, rep);
  return static_cast<std::int64_t>(RunUnitFlow(
      *ws, nodes, a, b, std::numeric_limits<std::size_t>::max()));
}

EdgeConnectivityBatch::EdgeConnectivityBatch(const CsrView& csr,
                                             FlowWorkspace& ws,
                                             const FailureSet* failures)
    : ws_(ws), failures_(failures), nodes_(csr.NodeCount()) {
  BuildUnitArcs(csr, failures, ws_);
  // Pristine capacities, restored per query. The arc topology itself never
  // changes within a batch, so this memcpy is the whole reset.
  ws_.cap0.assign(ws_.cap.begin(), ws_.cap.end());
}

std::size_t EdgeConnectivityBatch::Connectivity(NodeId src, NodeId dst,
                                                bool repeated_source) {
  CheckEndpoints(nodes_, src, dst);
  static obs::Counter& c_solves = obs::GetCounter("dinic/unit_solves");
  static obs::Counter& c_reuse = obs::GetCounter("dinic/reuse_hits");
  static obs::Counter& c_level = obs::GetCounter("dinic/source_level_hits");
  c_solves.Add(1);
  last_src_ = src;
  // Restore before the dead-endpoint return too, so a MinCutSourceSide
  // readout after that return never sees the previous solve's residual.
  if (first_) {
    first_ = false;
  } else {
    ws_.cap.assign(ws_.cap0.begin(), ws_.cap0.end());
    ws_.flow.assign(ws_.flow.size(), 0);
    c_reuse.Add(1);
  }
  if (failures_ != nullptr &&
      (failures_->NodeDead(src) || failures_->NodeDead(dst))) {
    return 0;
  }

  const std::size_t bound = std::min(LiveDegree(ws_, src), LiveDegree(ws_, dst));
  std::size_t flow = 0;
  bool phase_one = true;
  while (flow < bound) {
    bool reachable;
    if (phase_one && cached_src_ == src) {
      // The cached level graph was computed on pristine capacities, exactly
      // the state the first phase of this query sees — reuse it. Cached
      // levels are untruncated; extra depth only means the DFS may explore
      // (and reject, side-effect-free) nodes past dst's level, which cannot
      // change the augmenting-path sequence.
      ws_.level.assign(ws_.level_first.begin(), ws_.level_first.end());
      reachable = ws_.level[static_cast<std::size_t>(dst)] >= 0;
      c_level.Add(1);
    } else if (phase_one && repeated_source) {
      reachable = BuildUnitLevels(ws_, nodes_, src, dst, /*truncate=*/false);
      ws_.level_first.assign(ws_.level.begin(), ws_.level.end());
      cached_src_ = src;
    } else {
      reachable = BuildUnitLevels(ws_, nodes_, src, dst, /*truncate=*/true);
    }
    if (!reachable) break;
    phase_one = false;
    ws_.iter.assign(ws_.offset.begin(), ws_.offset.end() - 1);
    while (AugmentUnit(ws_, src, dst)) ++flow;
  }
  return flow;
}

void EdgeConnectivityBatch::MinCutSourceSide(NodeId src,
                                             std::vector<char>& side) {
  DCN_REQUIRE(src == last_src_ && src != kInvalidNode,
              "MinCutSourceSide reads the residual of the last Connectivity "
              "call, which must have come from src");
  // Untruncated, the level BFS is plain residual reachability; its sink
  // argument only picks the (unused) return value.
  BuildUnitLevels(ws_, nodes_, src, src, /*truncate=*/false);
  side.assign(nodes_, 0);
  for (std::size_t node = 0; node < nodes_; ++node) {
    if (ws_.level[node] >= 0) side[node] = 1;
  }
}

}  // namespace dcn::graph
