#include "graph/graph.h"

#include "common/error.h"
#include "graph/csr.h"

namespace dcn::graph {

Graph::Graph() = default;
Graph::~Graph() = default;

Graph::Graph(const Graph& other)
    : kinds_(other.kinds_),
      adjacency_(other.adjacency_),
      endpoints_(other.endpoints_),
      servers_(other.servers_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    kinds_ = other.kinds_;
    adjacency_ = other.adjacency_;
    endpoints_ = other.endpoints_;
    servers_ = other.servers_;
    csr_.store(nullptr, std::memory_order_release);
  }
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : kinds_(std::move(other.kinds_)),
      adjacency_(std::move(other.adjacency_)),
      endpoints_(std::move(other.endpoints_)),
      servers_(std::move(other.servers_)) {
  csr_.store(other.csr_.exchange(nullptr, std::memory_order_acq_rel),
             std::memory_order_release);
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    kinds_ = std::move(other.kinds_);
    adjacency_ = std::move(other.adjacency_);
    endpoints_ = std::move(other.endpoints_);
    servers_ = std::move(other.servers_);
    csr_.store(other.csr_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_release);
  }
  return *this;
}

NodeId Graph::AddNode(NodeKind kind) {
  const auto id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  adjacency_.emplace_back();
  if (kind == NodeKind::kServer) servers_.push_back(id);
  csr_.store(nullptr, std::memory_order_release);
  return id;
}

EdgeId Graph::AddEdge(NodeId u, NodeId v) {
  CheckNode(u);
  CheckNode(v);
  DCN_REQUIRE(u != v, "self-loop links are not allowed");
  const auto id = static_cast<EdgeId>(endpoints_.size());
  endpoints_.emplace_back(u, v);
  adjacency_[u].push_back(HalfEdge{v, id});
  adjacency_[v].push_back(HalfEdge{u, id});
  csr_.store(nullptr, std::memory_order_release);
  return id;
}

const CsrView& Graph::Csr() const {
  std::shared_ptr<const CsrView> snap = csr_.load(std::memory_order_acquire);
  if (snap == nullptr) {
    auto built = std::make_shared<const CsrView>(*this);
    std::shared_ptr<const CsrView> expected;
    if (csr_.compare_exchange_strong(expected, built,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      snap = std::move(built);
    } else {
      snap = std::move(expected);  // another thread won the build race
    }
  }
  // The cache keeps the view alive; only a mutation releases it.
  return *snap;
}

NodeKind Graph::KindOf(NodeId node) const {
  CheckNode(node);
  return kinds_[node];
}

std::span<const HalfEdge> Graph::Neighbors(NodeId node) const {
  CheckNode(node);
  return adjacency_[node];
}

std::pair<NodeId, NodeId> Graph::Endpoints(EdgeId edge) const {
  DCN_REQUIRE(edge >= 0 && static_cast<std::size_t>(edge) < endpoints_.size(),
              "edge id out of range");
  return endpoints_[edge];
}

bool Graph::Adjacent(NodeId u, NodeId v) const {
  return FindEdge(u, v) != kInvalidEdge;
}

EdgeId Graph::FindEdge(NodeId u, NodeId v) const {
  CheckNode(u);
  CheckNode(v);
  const NodeId from = Degree(u) <= Degree(v) ? u : v;
  const NodeId to = from == u ? v : u;
  for (const HalfEdge& half : adjacency_[from]) {
    if (half.to == to) return half.edge;
  }
  return kInvalidEdge;
}

void Graph::CheckNode(NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < kinds_.size(),
              "node id out of range");
}

void FailureSet::KillNode(NodeId node) {
  DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < node_dead_.size(),
              "FailureSet::KillNode id out of range");
  node_dead_[node] = true;
}

void FailureSet::KillEdge(EdgeId edge) {
  DCN_REQUIRE(edge >= 0 && static_cast<std::size_t>(edge) < edge_dead_.size(),
              "FailureSet::KillEdge id out of range");
  edge_dead_[edge] = true;
}

std::size_t FailureSet::DeadNodeCount() const {
  std::size_t count = 0;
  for (bool dead : node_dead_) count += dead ? 1 : 0;
  return count;
}

std::size_t FailureSet::DeadEdgeCount() const {
  std::size_t count = 0;
  for (bool dead : edge_dead_) count += dead ? 1 : 0;
  return count;
}

}  // namespace dcn::graph
