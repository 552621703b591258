// DCell(n, k) — Guo et al., SIGCOMM 2008. Recursive server-centric network:
// DCell_0 is n servers on one mini-switch; DCell_l combines g_l = t_{l-1}+1
// copies of DCell_{l-1} as a complete graph at the sub-cell granularity
// (one direct server-server link per sub-cell pair). Servers use k+1 ports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace dcn::topo {

struct DcellParams {
  int n = 4;  // servers per DCell_0
  int k = 1;  // recursion depth

  void Validate() const;
  // t_l: servers in a DCell_l. t_0 = n, t_l = t_{l-1} * (t_{l-1} + 1).
  std::uint64_t ServersAtLevel(int level) const;
  std::uint64_t ServerTotal() const { return ServersAtLevel(k); }
  std::uint64_t SwitchTotal() const { return ServerTotal() / static_cast<std::uint64_t>(n); }
  std::uint64_t LinkTotal() const;
};

class Dcell final : public Topology {
 public:
  explicit Dcell(DcellParams params);
  Dcell(int n, int k) : Dcell(DcellParams{n, k}) {}

  const DcellParams& Params() const { return params_; }

  // Servers are identified by their uid in [0, t_k); NodeLabel prints its
  // address digits [a_k, ..., a_1, a_0].
  // The mini-switch of the server's DCell_0.
  graph::NodeId SwitchOf(graph::NodeId server) const;

  std::string Name() const override { return "DCell"; }
  std::string Describe() const override;
  std::string NodeLabel(graph::NodeId node) const override;
  // Classic recursive DCellRouting.
  std::vector<graph::NodeId> Route(graph::NodeId src,
                                   graph::NodeId dst) const override;
  int ServerPorts() const override { return params_.k + 1; }
  // L(0) = 2, L(l) = 2 L(l-1) + 1  =>  3 * 2^k - 1 links.
  int RouteLengthBound() const override { return 3 * (1 << params_.k) - 1; }

 private:
  void Build();
  void CheckServer(graph::NodeId node) const;
  void RouteRec(graph::NodeId src, graph::NodeId dst,
                std::vector<graph::NodeId>& hops) const;

  DcellParams params_;
  std::vector<std::uint64_t> t_;  // t_[l] = servers in a DCell_l
  std::uint64_t server_total_ = 0;
  std::uint64_t switch_base_ = 0;
};

}  // namespace dcn::topo
