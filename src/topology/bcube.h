// BCube(n, k) — Guo et al., SIGCOMM 2009. The switch-assisted hypercube the
// paper generalizes away from: n^(k+1) servers with k+1 NIC ports each,
// (k+1)·n^k switches of radix n, one switch level per address digit. It is
// ABCCC(n, k, k+2): one server per row, no crossbars. Native routing is
// BCubeRouting — the highest differing digit first, 2 links per correction.
#pragma once

#include <cstdint>

#include "topology/abccc.h"

namespace dcn::topo {

struct BcubeParams {
  int n = 4;  // switch radix / digit base
  int k = 1;  // order: k+1 digits and k+1 NIC ports per server

  AbcccParams ToAbccc() const { return AbcccParams{n, k, k + 2}; }
  void Validate() const { ToAbccc().Validate(); }
  std::uint64_t ServerTotal() const { return ToAbccc().ServerTotal(); }
  std::uint64_t SwitchTotal() const { return ToAbccc().LevelSwitchTotal(); }
  std::uint64_t LinkTotal() const { return ToAbccc().LinkTotal(); }
};

class Bcube final : public Abccc {
 public:
  explicit Bcube(BcubeParams params)
      : Abccc(ImplicitCube::MakeBcube(params.n, params.k)) {}
  Bcube(int n, int k) : Bcube(BcubeParams{n, k}) {}
};

}  // namespace dcn::topo
