// M1 — engineering micro-benchmarks: construction, routing, BFS, and
// max-flow costs. These are the operations a topology-management plane runs
// continuously, so their constants matter. A google-benchmark suite for
// exploratory, human-read timings; speed is claimed by perfbench/, and the
// kernels' deterministic work counters are pinned in
// tests/test_pinned_workloads.cc.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "graph/bfs.h"
#include "metrics/bisection.h"
#include "routing/abccc_routing.h"
#include "routing/broadcast.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

namespace {

using dcn::Rng;
using dcn::topo::Abccc;
using dcn::topo::AbcccParams;

void BM_AbcccConstruction(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Abccc net{AbcccParams{4, k, 2}};
    benchmark::DoNotOptimize(net.ServerCount());
  }
  state.counters["servers"] =
      static_cast<double>(AbcccParams{4, k, 2}.ServerTotal());
}
BENCHMARK(BM_AbcccConstruction)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_BcubeConstruction(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    dcn::topo::Bcube net{dcn::topo::BcubeParams{4, k}};
    benchmark::DoNotOptimize(net.ServerCount());
  }
}
BENCHMARK(BM_BcubeConstruction)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_AbcccRoute(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  Rng rng{1};
  const auto servers = net.Servers();
  for (auto _ : state) {
    const auto src = servers[rng.NextUint64(servers.size())];
    const auto dst = servers[rng.NextUint64(servers.size())];
    benchmark::DoNotOptimize(dcn::routing::AbcccRoute(net, src, dst));
  }
}
BENCHMARK(BM_AbcccRoute)->Arg(2)->Arg(3)->Arg(4);

void BM_BfsSweep(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcn::graph::BfsDistances(net.Network(), 0));
  }
}
BENCHMARK(BM_BfsSweep)->Arg(2)->Arg(3);

void BM_Bisection(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcn::metrics::MeasureBisection(net));
  }
}
BENCHMARK(BM_Bisection)->Arg(1)->Arg(2);

void BM_BroadcastTree(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcn::routing::AbcccBroadcastTree(net, 0));
  }
}
BENCHMARK(BM_BroadcastTree)->Arg(2)->Arg(3);

}  // namespace

BENCHMARK_MAIN();
