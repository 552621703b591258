// The cube digit algebra — the one encoding of ABCCC and its special cases.
//
// Construction (Li & Yang, ICDCS'15; see DESIGN.md §1):
//   * Addresses: server ⟨a_k..a_0; j⟩ with digits a_l ∈ [0, r_l) and role
//     j ∈ [0, m), m = ceil((k+1)/(c-1)). The m servers sharing a digit vector
//     form a *row* attached to one local crossbar switch (radix m, present
//     when m >= 2).
//   * Server ⟨a; j⟩ is the row's *agent* for levels [j(c-1), j(c-1)+c-2]∩[0,k]
//     and has one link to each of those levels' switches.
//   * The level-l switch identified by the k remaining digits connects the
//     r_l agent servers whose addresses differ only in digit l.
// Uniform radices r_l = n give ABCCC(n, k, c); c = 2 is BCCC(n, k); c >= k+2
// (m = 1, no crossbars) is BCube(n, k). Per-level radices give GeneralABCCC:
// partially grown top levels and mixed switch models.
//
// ImplicitCube is the only code that knows this encoding: node-id layout,
// closed-form counts, neighbor and edge enumeration, addressing, and the
// digit-fixing routes. It answers the whole TraversalGraph surface
// (graph/implicit.h) from address arithmetic alone, so memory is O(levels)
// per instance regardless of size; topo::Abccc (abccc.h) materializes its
// edge list when a Graph is needed.
//
// Node-id layout: servers [0, S) as row*m + role, then crossbars (one per
// row, when m >= 2), then level switches level by level. A row index packs
// the digits with mixed-radix weights w_l = r_0 * ... * r_{l-1}; a level-l
// switch's index within its level is the row index with digit l removed.
//
// Node ids stay graph::NodeId (int32): the constructor rejects shapes whose
// node count exceeds it. Parameter validation itself is pure arithmetic and
// accepts any shape whose server and link counts fit 64 bits, so petascale
// shapes can be cost-modeled without constructing anything.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "topology/address.h"

namespace dcn::topo {

struct AbcccAddress {
  Digits digits;  // one per level, little-endian (digits[l] = a_l)
  int role = 0;   // j in [0, m)
};

// The shape every cube family shares. Owns the closed forms of PAPER.md §1,
// generalized to per-level radices.
struct GeneralAbcccParams {
  // radices[l] is the base of digit l (= the radix of level-l switches),
  // little-endian like Digits. size() = k+1 >= 1, each radix >= 2.
  std::vector<int> radices;
  int c = 2;  // NIC ports per server

  // Throws InvalidArgument unless there is at least one level, every radix
  // is >= 2, c >= 2, and the server and link counts fit 64 bits.
  void Validate() const;

  int Order() const { return static_cast<int>(radices.size()) - 1; }  // k
  int DigitCount() const { return static_cast<int>(radices.size()); }
  int LevelRadix(int level) const;
  // Row length m = ceil((k+1) / (c-1)).
  int RowLength() const { return (DigitCount() + c - 2) / (c - 1); }
  bool HasCrossbars() const { return RowLength() >= 2; }
  // Which row member is the agent for a given level.
  int AgentRole(int level) const { return level / (c - 1); }
  // Inclusive level span [lo, hi] a role is agent for.
  std::pair<int, int> AgentLevels(int role) const;
  // NIC ports a server of the given role actually uses.
  int PortsUsed(int role) const;

  std::uint64_t RowCount() const;     // product of the radices
  std::uint64_t ServerTotal() const;  // m * rows
  std::uint64_t CrossbarTotal() const;  // rows if m >= 2 else 0
  // Level-l switches: product of the other radices.
  std::uint64_t LevelSwitchCount(int level) const;
  std::uint64_t LevelSwitchTotal() const;
  // One level link per row and level, plus one crossbar link per server.
  std::uint64_t LinkTotal() const;
};

// ABCCC(n, k, c): the uniform shape, radices [n] * (k+1). The closed forms
// are GeneralAbcccParams's.
struct AbcccParams {
  int n = 4;  // level-switch radix / digit base
  int k = 1;  // order: k+1 digits
  int c = 2;  // NIC ports per server

  // Throws InvalidArgument unless n >= 2, k >= 0, c >= 2 and the network
  // fits 64-bit server and link ids.
  void Validate() const { General().Validate(); }
  // Throws for n < 2, k < 0, c < 2 or n^(k+1) beyond 64 bits.
  GeneralAbcccParams General() const;

  int DigitCount() const { return k + 1; }
  int RowLength() const { return General().RowLength(); }
  bool HasCrossbars() const { return General().HasCrossbars(); }
  int AgentRole(int level) const { return General().AgentRole(level); }
  std::pair<int, int> AgentLevels(int role) const {
    return General().AgentLevels(role);
  }
  int PortsUsed(int role) const { return General().PortsUsed(role); }
  std::uint64_t RowCount() const { return General().RowCount(); }
  std::uint64_t ServerTotal() const { return General().ServerTotal(); }
  std::uint64_t CrossbarTotal() const { return General().CrossbarTotal(); }
  std::uint64_t LevelSwitchTotal() const {
    return General().LevelSwitchTotal();
  }
  std::uint64_t LinkTotal() const { return General().LinkTotal(); }
};

// Which published family an instance answers to: fixes Name(), Describe(),
// NodeLabel() and the native route order. ABCCC, BCCC and BCube require
// uniform radices; BCCC requires c == 2, BCube m == 1.
enum class CubeFamily { kAbccc, kGeneralAbccc, kBccc, kBcube };

// The family's name with parameters, e.g. "ABCCC(n=4,k=2,c=3)" or
// "GeneralABCCC(radices=[2,4,4],c=2)" (radices big-endian, a_k first).
std::string DescribeCube(const GeneralAbcccParams& params, CubeFamily family);

class ImplicitCube {
 public:
  // Validates params (including link-id overflow), the family's constraints,
  // and the NodeId bound.
  explicit ImplicitCube(GeneralAbcccParams params,
                        CubeFamily family = CubeFamily::kGeneralAbccc);

  static ImplicitCube MakeAbccc(int n, int k, int c) {
    return ImplicitCube{AbcccParams{n, k, c}.General(), CubeFamily::kAbccc};
  }
  static ImplicitCube MakeBccc(int n, int k) {
    return ImplicitCube{AbcccParams{n, k, 2}.General(), CubeFamily::kBccc};
  }
  // BCube(n,k) is the m == 1 degeneration (c = k+2): no crossbars, every
  // server agents all k+1 levels.
  static ImplicitCube MakeBcube(int n, int k) {
    return ImplicitCube{AbcccParams{n, k, k + 2}.General(), CubeFamily::kBcube};
  }

  const GeneralAbcccParams& Params() const { return params_; }
  CubeFamily Family() const { return family_; }
  std::string Name() const;
  std::string Describe() const { return DescribeCube(params_, family_); }
  // "<a_k..a_0;j>" for servers ("<a_k..a_0>" for BCube), "X(a_k..a_0)" for
  // crossbars, "S<l>(..)" for level switches.
  std::string NodeLabel(graph::NodeId node) const;

  // --- TraversalGraph surface (graph/implicit.h) ---------------------------
  std::size_t NodeCount() const { return static_cast<std::size_t>(node_total_); }
  std::size_t ServerCount() const {
    return static_cast<std::size_t>(server_total_);
  }
  // Server ids are the dense prefix [0, ServerCount).
  graph::NodeId ServerIdAt(std::size_t i) const {
    return static_cast<graph::NodeId>(i);
  }
  bool IsServer(graph::NodeId node) const {
    return static_cast<std::uint64_t>(node) < server_total_;
  }
  std::size_t DegreeBound() const { return degree_bound_; }
  // Server: crossbar first (when present), then agent levels ascending.
  // Crossbar: roles ascending. Level switch: spliced digit ascending.
  template <typename Fn>
  void ForEachNeighbor(graph::NodeId node, Fn&& fn) const;

  // Every link as fn(server, switch), in edge-id order: crossbar links first
  // (row-major, roles ascending), then level links level by level, switch by
  // switch, spliced digit ascending. Edge ids are pinned: directed-link ids
  // (2*edge + direction) key the packet simulator's tie-breaks and shards,
  // so this order must never change (DESIGN.md §1).
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const;

  std::size_t SwitchCount() const {
    return static_cast<std::size_t>(node_total_ - server_total_);
  }
  std::size_t LinkCount() const {
    return static_cast<std::size_t>(params_.LinkTotal());
  }
  std::size_t Degree(graph::NodeId node) const;

  // Aggregate port counts for cost models. Every link joins one NIC port to
  // one switch port, so both equal LinkCount().
  std::uint64_t NicPortTotal() const { return params_.LinkTotal(); }
  std::uint64_t SwitchPortTotal() const { return params_.LinkTotal(); }

  // --- Addressing ----------------------------------------------------------
  // Mixed-radix digits <-> row index (digits checked against their radices).
  std::uint64_t RowIndex(std::span<const int> digits) const;
  Digits RowDigits(std::uint64_t row) const;
  graph::NodeId ServerAt(std::span<const int> digits, int role) const;
  graph::NodeId ServerAtRow(std::uint64_t row, int role) const;
  AbcccAddress AddressOf(graph::NodeId server) const;
  std::uint64_t RowOf(graph::NodeId server) const;
  // Requires HasCrossbars().
  graph::NodeId CrossbarAt(std::uint64_t row) const;
  // The level-`level` switch serving the row with these digits.
  graph::NodeId LevelSwitchAt(int level, std::span<const int> digits) const;
  bool IsCrossbar(graph::NodeId node) const;
  // The level a level switch belongs to; throws for servers/crossbars.
  int LevelOfSwitch(graph::NodeId node) const;

  // --- Routing -------------------------------------------------------------
  // Core digit-fixing walk. `level_order` must be a permutation of exactly
  // the levels where src and dst digits differ; the route fixes them in that
  // order, hopping through the local crossbar whenever the next level's agent
  // is a different row member. Worst case 4*|order| + 2 links.
  std::vector<graph::NodeId> RouteWithLevelOrder(
      graph::NodeId src, graph::NodeId dst,
      std::span<const int> level_order) const;
  // The family's native level order. BCube: highest differing level first
  // (BCubeRouting, Guo et al. §4.1). Otherwise differing levels grouped by
  // agent role, the source's group first and the destination's last, which
  // minimizes crossbar detours (routing/permutation.h has the alternatives).
  std::vector<int> DefaultLevelOrder(const AbcccAddress& src,
                                     const AbcccAddress& dst) const;
  std::vector<graph::NodeId> Route(graph::NodeId src, graph::NodeId dst) const;
  int ServerPorts() const;
  int RouteLengthBound() const;
  // Cut on the most significant digit: floor(r_k/2) links per level-k switch.
  double TheoreticalBisection() const;

 private:
  std::vector<graph::NodeId> Walk(graph::NodeId src, graph::NodeId dst,
                                  std::span<const int> level_order) const;
  void CheckServer(graph::NodeId node) const;
  // Index of a row's level-`level` switch within its level: the row index
  // with digit `level` removed, given the weight table.
  static std::uint64_t SwitchIndex(const std::uint64_t* weight,
                                   std::uint64_t row, int level) {
    return row / weight[level + 1] * weight[level] + row % weight[level];
  }
  // Inverse of SwitchIndex with digit `level` = 0: the switch's first row.
  static std::uint64_t FirstRow(const std::uint64_t* weight, std::uint64_t index,
                                int level) {
    return index / weight[level] * weight[level + 1] + index % weight[level];
  }

  GeneralAbcccParams params_;
  CubeFamily family_;
  std::uint64_t m_ = 1;
  bool has_crossbars_ = false;
  std::uint64_t server_total_ = 0;
  std::uint64_t crossbar_base_ = 0;  // first crossbar id (= server_total_)
  std::uint64_t node_total_ = 0;
  std::size_t degree_bound_ = 0;
  std::vector<std::uint64_t> weight_;      // weight_[l] = r_0*...*r_{l-1}, l <= k+1
  std::vector<std::uint64_t> level_base_;  // first node id of each level's switches
};

template <typename Fn>
void ImplicitCube::ForEachNeighbor(graph::NodeId node, Fn&& fn) const {
  // Table pointers are read once: `fn` writes memory the compiler cannot
  // prove disjoint from this object.
  const std::uint64_t* weight = weight_.data();
  const std::uint64_t* base = level_base_.data();
  const auto id = static_cast<std::uint64_t>(node);
  if (id < server_total_) {
    const std::uint64_t row = id / m_;
    const int lo = static_cast<int>(id % m_) * (params_.c - 1);
    const int hi = std::min(lo + params_.c - 2, params_.Order());
    if (has_crossbars_) fn(static_cast<graph::NodeId>(crossbar_base_ + row));
    for (int level = lo; level <= hi; ++level) {
      fn(static_cast<graph::NodeId>(base[level] + SwitchIndex(weight, row, level)));
    }
  } else if (id < base[0]) {
    const std::uint64_t first = (id - crossbar_base_) * m_;
    for (std::uint64_t j = 0; j < m_; ++j) {
      fn(static_cast<graph::NodeId>(first + j));
    }
  } else {
    // Splice digit d into the switch index at position `level`, d ascending:
    // each step adds one level weight to the row.
    int level = params_.Order();
    while (id < base[level]) --level;
    const std::uint64_t step = weight[level];
    const auto agent = static_cast<std::uint64_t>(params_.AgentRole(level));
    const int radix = params_.radices[level];
    std::uint64_t row = FirstRow(weight, id - base[level], level);
    for (int d = 0; d < radix; ++d, row += step) {
      fn(static_cast<graph::NodeId>(row * m_ + agent));
    }
  }
}

template <typename Fn>
void ImplicitCube::ForEachEdge(Fn&& fn) const {
  // Switch ids run crossbars then levels, and each switch lists its servers
  // in the pinned order, so walking the switches in id order is the order.
  for (auto sw = static_cast<graph::NodeId>(server_total_);
       static_cast<std::uint64_t>(sw) < node_total_; ++sw) {
    ForEachNeighbor(sw, [&](graph::NodeId server) { fn(server, sw); });
  }
}

}  // namespace dcn::topo
