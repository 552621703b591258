#include "topology/expansion.h"

#include "common/error.h"

namespace dcn::topo {

namespace {

// Sizes of one cube growth step; disruption fields are left at zero.
ExpansionStep CubeStep(const char* topology, const GeneralAbcccParams& from,
                       const GeneralAbcccParams& to, CubeFamily family) {
  ExpansionStep step;
  step.topology = topology;
  step.from = DescribeCube(from, family);
  step.to = DescribeCube(to, family);
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.CrossbarTotal() + from.LevelSwitchTotal();
  step.switches_after = to.CrossbarTotal() + to.LevelSwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();
  return step;
}

}  // namespace

ExpansionStep PlanAbcccExpansion(const AbcccParams& from) {
  const AbcccParams to{from.n, from.k + 1, from.c};
  ExpansionStep step =
      CubeStep("ABCCC", from.General(), to.General(), CubeFamily::kAbccc);
  // Existing hardware is never opened or replaced: new level links land in
  // spare NIC ports, new row members land in spare crossbar ports.
  if (to.RowLength() > from.RowLength()) {
    // Each pre-existing row gains one server, plugged into its crossbar.
    step.crossbar_ports_consumed = from.HasCrossbars() ? from.RowCount() : 0;
  }
  return step;
}

ExpansionStep PlanSliceExpansion(const GeneralAbcccParams& from, int level) {
  from.Validate();
  DCN_REQUIRE(level >= 0 && level <= from.Order(),
              "slice expansion level out of range");
  GeneralAbcccParams to = from;
  ++to.radices[level];
  ExpansionStep step =
      CubeStep("GeneralABCCC", from, to, CubeFamily::kGeneralAbccc);
  // New rows bring their own crossbars and switches; existing level-`level`
  // switches each accept one new cable into a spare port.
  step.crossbar_ports_consumed = from.LevelSwitchCount(level);
  return step;
}

ExpansionStep PlanBcubeExpansion(const BcubeParams& from) {
  const BcubeParams to{from.n, from.k + 1};
  ExpansionStep step = CubeStep("BCube", from.ToAbccc().General(),
                                to.ToAbccc().General(), CubeFamily::kBcube);
  // Every deployed server must be opened for an extra NIC (level k+1) and a
  // new cable pulled to a level-(k+1) switch: Θ(N) disruption.
  step.existing_servers_modified = from.ServerTotal();
  return step;
}

ExpansionStep PlanDcellExpansion(const DcellParams& from) {
  from.Validate();
  DcellParams to = from;
  to.k = from.k + 1;
  to.Validate();

  ExpansionStep step;
  step.topology = "DCell";
  step.from = "DCell(n=" + std::to_string(from.n) + ",k=" + std::to_string(from.k) + ")";
  step.to = "DCell(n=" + std::to_string(to.n) + ",k=" + std::to_string(to.k) + ")";
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.SwitchTotal();
  step.switches_after = to.SwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();

  // Every old server gains its level-(k+1) port and cable.
  step.existing_servers_modified = from.ServerTotal();
  step.existing_switches_replaced = 0;
  step.existing_links_recabled = 0;
  return step;
}

ExpansionStep PlanFatTreeExpansion(const FatTreeParams& from) {
  from.Validate();
  FatTreeParams to = from;
  to.k = from.k + 2;
  to.Validate();

  ExpansionStep step;
  step.topology = "FatTree";
  step.from = "FatTree(k=" + std::to_string(from.k) + ")";
  step.to = "FatTree(k=" + std::to_string(to.k) + ")";
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.SwitchTotal();
  step.switches_after = to.SwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();

  // A fat-tree's radix fixes its maximum size; growing it means swapping
  // every switch for a (k+2)-port model and re-pulling the whole fabric.
  step.existing_servers_modified = 0;
  step.existing_switches_replaced = from.SwitchTotal();
  step.existing_links_recabled = from.LinkTotal();
  return step;
}

bool VerifyAbcccExpansion(const Abccc& before, const Abccc& after) {
  const GeneralAbcccParams& small = before.Params();
  const GeneralAbcccParams& big = after.Params();
  if (big.c != small.c) return false;
  const int added_levels = big.DigitCount() - small.DigitCount();
  if (added_levels < 0 || added_levels > 1) return false;
  for (int level = 0; level <= small.Order(); ++level) {
    if (big.radices[level] < small.radices[level]) return false;
  }

  const graph::Graph& net = after.Network();
  for (const graph::NodeId server : before.Servers()) {
    const AbcccAddress addr = before.AddressOf(server);
    Digits padded = addr.digits;
    padded.resize(big.radices.size(), 0);
    const graph::NodeId mapped = after.ServerAt(padded, addr.role);

    if (small.HasCrossbars() &&
        !net.Adjacent(mapped, after.CrossbarAt(after.RowOf(mapped)))) {
      return false;
    }
    const auto [lo, hi] = small.AgentLevels(addr.role);
    for (int level = lo; level <= hi; ++level) {
      if (!net.Adjacent(mapped, after.LevelSwitchAt(level, padded))) return false;
    }
  }
  return true;
}

}  // namespace dcn::topo
