// FiConn(n, k) — Li et al., INFOCOM 2009: "Using Backup Port for Server
// Interconnection in Data Centers". The other dual-port server-centric
// design, and ABCCC/BCCC's direct rival in the 2-NIC cost class.
//
// Construction (documented reconstruction; selection rule below):
//   * FiConn_0 = n servers (n even) on one n-port switch; every server's
//     second ("backup") port starts idle.
//   * FiConn_k is built from g_k = b_{k-1}/2 + 1 copies of FiConn_{k-1},
//     where b_{k-1} = t_{k-1} / 2^(k-1) is the number of still-idle backup
//     ports per copy. Every pair of copies is joined by exactly one level-k
//     server-server link, consuming one backup port on each side.
//   * Backup-port selection (dyadic rule): the server with local uid λ in its
//     copy devotes its backup port to level k iff λ mod 2^k == 2^(k-1).
//     Hence the available servers after level k are exactly λ mod 2^k == 0,
//     halving each level — the defining FiConn property.
//   * Pairing (DCell-style): for copies i < j, copy i's available server
//     #(j-1) connects to copy j's available server #i, where available
//     servers are ordered by local uid (#p has λ = 2^(k-1) + p·2^k).
//
// Servers use at most 2 ports; roughly half keep an idle backup port at
// every scale, which is FiConn's expansion story (new levels only consume
// idle ports). Traffic-oblivious routing is hierarchical like DCell's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace dcn::topo {

struct FiConnParams {
  int n = 4;  // servers per FiConn_0; must be even
  int k = 1;  // recursion depth

  // Requires n >= 2 even, k >= 0, and t_{l-1} divisible by 2^l at every
  // level l <= k (so the copy counts are integral).
  void Validate() const;

  std::uint64_t ServersAtLevel(int level) const;  // t_l
  std::uint64_t ServerTotal() const { return ServersAtLevel(k); }
  std::uint64_t SwitchTotal() const { return ServerTotal() / static_cast<std::uint64_t>(n); }
  // Copies of FiConn_{l-1} inside a FiConn_l.
  std::uint64_t CopiesAtLevel(int level) const;  // g_l
  // Servers per copy with an idle backup port after level l.
  std::uint64_t IdleAtLevel(int level) const;  // b_l (within a FiConn_l)
  std::uint64_t LinkTotal() const;
};

class FiConn final : public Topology {
 public:
  explicit FiConn(FiConnParams params);
  FiConn(int n, int k) : FiConn(FiConnParams{n, k}) {}

  const FiConnParams& Params() const { return params_; }

  // The server's FiConn_0 mini-switch.
  graph::NodeId SwitchOf(graph::NodeId server) const;
  // True if the server's backup port is still idle in the full FiConn_k.
  bool HasIdleBackupPort(graph::NodeId server) const;

  std::string Name() const override { return "FiConn"; }
  std::string Describe() const override;
  std::string NodeLabel(graph::NodeId node) const override;
  // Hierarchical routing (recursive through the level links).
  std::vector<graph::NodeId> Route(graph::NodeId src,
                                   graph::NodeId dst) const override;
  int ServerPorts() const override { return 2; }
  // L(0) = 2, L(l) = 2 L(l-1) + 1 => 3 * 2^k - 1 links.
  int RouteLengthBound() const override { return 3 * (1 << params_.k) - 1; }

 private:
  void Build();
  void CheckServer(graph::NodeId node) const;
  void RouteRec(graph::NodeId src, graph::NodeId dst,
                std::vector<graph::NodeId>& hops) const;
  // Endpoints (local uids) of the level-`level` link between copies i < j.
  std::pair<std::uint64_t, std::uint64_t> LevelLinkLocal(
      int level, std::uint64_t i, std::uint64_t j) const;

  FiConnParams params_;
  std::vector<std::uint64_t> t_;  // t_[l]
  std::uint64_t server_total_ = 0;
  std::uint64_t switch_base_ = 0;
};

}  // namespace dcn::topo
