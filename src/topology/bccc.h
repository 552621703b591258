// BCCC(n, k) — BCube Connected Crossbars (Li & Yang), the dual-port-server
// predecessor of ABCCC. Structurally BCCC(n,k) == ABCCC(n,k,2): rows of k+1
// servers, each the agent of exactly one level. Kept as its own type so the
// baseline appears under its published name in every comparison.
#pragma once

#include "topology/abccc.h"

namespace dcn::topo {

struct BcccParams {
  int n = 4;
  int k = 1;
};

class Bccc final : public Abccc {
 public:
  explicit Bccc(BcccParams params)
      : Abccc(ImplicitCube::MakeBccc(params.n, params.k)) {}
  Bccc(int n, int k) : Bccc(BcccParams{n, k}) {}
};

}  // namespace dcn::topo
