// ABCCC(n, k, c) — Advanced BCube Connected Crossbars (Li & Yang, ICDCS'15;
// journal name GBC3). See DESIGN.md §1 for the reconstruction notes and
// topology/implicit.h for the construction.
//
// Abccc is the one materialized cube: a Topology whose Graph is the digit
// algebra's edge list (ImplicitCube::ForEachEdge, in its pinned order) and
// whose address and route methods delegate to the algebra. The published
// special cases are constructor-only subclasses that fix the family: Bccc
// (bccc.h, c = 2) and Bcube (bcube.h, m = 1). Mixed radices (GeneralABCCC)
// come from the GeneralAbcccParams constructor.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "topology/implicit.h"
#include "topology/topology.h"

namespace dcn::topo {

class Abccc : public Topology {
 public:
  explicit Abccc(AbcccParams params)
      : Abccc(ImplicitCube{params.General(), CubeFamily::kAbccc}) {}
  // GeneralABCCC: per-level radices. With uniform radices it is the same
  // graph as Abccc(AbcccParams), under the GeneralABCCC name.
  explicit Abccc(GeneralAbcccParams params)
      : Abccc(ImplicitCube{std::move(params), CubeFamily::kGeneralAbccc}) {}

  const GeneralAbcccParams& Params() const { return cube_.Params(); }

  // -- Address <-> node id mapping (see ImplicitCube) -------------------------
  std::uint64_t RowIndex(std::span<const int> digits) const {
    return cube_.RowIndex(digits);
  }
  graph::NodeId ServerAt(std::span<const int> digits, int role) const {
    return cube_.ServerAt(digits, role);
  }
  graph::NodeId ServerAtRow(std::uint64_t row, int role) const {
    return cube_.ServerAtRow(row, role);
  }
  AbcccAddress AddressOf(graph::NodeId server) const {
    return cube_.AddressOf(server);
  }
  std::uint64_t RowOf(graph::NodeId server) const { return cube_.RowOf(server); }
  graph::NodeId CrossbarAt(std::uint64_t row) const { return cube_.CrossbarAt(row); }
  graph::NodeId LevelSwitchAt(int level, std::span<const int> digits) const {
    return cube_.LevelSwitchAt(level, digits);
  }
  bool IsCrossbar(graph::NodeId node) const { return cube_.IsCrossbar(node); }
  int LevelOfSwitch(graph::NodeId node) const { return cube_.LevelOfSwitch(node); }

  // -- Routing (see ImplicitCube) ---------------------------------------------
  std::vector<graph::NodeId> RouteWithLevelOrder(
      graph::NodeId src, graph::NodeId dst,
      std::span<const int> level_order) const {
    return cube_.RouteWithLevelOrder(src, dst, level_order);
  }
  std::vector<int> DefaultLevelOrder(const AbcccAddress& src,
                                     const AbcccAddress& dst) const {
    return cube_.DefaultLevelOrder(src, dst);
  }

  // -- Topology interface ------------------------------------------------
  std::string Name() const override { return cube_.Name(); }
  std::string Describe() const override { return cube_.Describe(); }
  std::string NodeLabel(graph::NodeId node) const override {
    return cube_.NodeLabel(node);
  }
  std::vector<graph::NodeId> Route(graph::NodeId src,
                                   graph::NodeId dst) const override {
    return cube_.Route(src, dst);
  }
  int ServerPorts() const override { return cube_.ServerPorts(); }
  int RouteLengthBound() const override { return cube_.RouteLengthBound(); }
  double TheoreticalBisection() const override {
    return cube_.TheoreticalBisection();
  }

 protected:
  // Materializes the cube's edge list.
  explicit Abccc(ImplicitCube cube);

 private:
  ImplicitCube cube_;
};

}  // namespace dcn::topo
