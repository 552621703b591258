// End-to-end benchmark: runs ONE named workload as a closed-loop job stream
// on the calling thread and prints one JSON object on its last line.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--smoke=1] [--corrupt=1]
//
// Workloads (README.md says why each exists):
//   packet-congested  one packet-level run per job, loads across the knee
//   fault-watch       control + faulted monitored run + detection matching
//   flow-shuffle      one fluid coflow (or one max-min permutation) per job
//   plan-query        one capacity-planning query, topology build included
//
// The client thread issues the next job only after the previous one
// returned; each job uses the common/parallel pool (DCN_THREADS). Every job's
// output is checked by oracles written here from closed forms and invariants,
// sharing no code with the library paths they check; a job that throws or
// fails a check counts as failed.
//
// --trace=0: several rounds of a set-up (ending in an untimed warm-up job of
//   each job type; median = setup_s) followed by a timed segment; prints
//   the end-to-end metrics over all segments.
// --trace=1: a short untraced phase, then a traced set-up, the untimed
//   warm-up and a traced phase (benchmark spans around every public call
//   plus the library's own obs spans and counters), then the thread-count
//   determinism spot check; prints the per-layer metrics.
// --smoke=1 shrinks every size; --corrupt=1 perturbs each result before its
// check so the oracles must trip (the benchmark's own smoke test).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "obs/obs.h"
#include "routing/load_balance.h"
#include "routing/multipath.h"
#include "sim/failures.h"
#include "sim/flowsim.h"
#include "sim/fluid.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"
#include "topology/bcube.h"
#include "topology/cost_model.h"
#include "topology/factory.h"
#include "topology/implicit.h"

namespace {

using namespace dcn;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from).count();
}

// Rounds per --trace=0 run: each sets up afresh, then times a segment.
// setup_s is the median over the rounds; one set-up is short against the
// host's speed swings, so it takes many to make the median steady.
constexpr int kRounds = 10;
// The warm-up jobs draw their inputs from this fixed seed instead of the
// run's, so set-up time does not depend on the seed.
constexpr std::uint64_t kWarmUpSeed = 0x9e3779b9;
// p90 needs at least 10 samples beyond it.
constexpr std::size_t kMinJobs = 100;
// Reconciliation tolerance: summed over the traced jobs,
// |wall - layer spans - glue| may be at most this share of the wall time
// plus a fixed allowance per job for the span bookkeeping itself.
constexpr double kReconcileShare = 0.01;
constexpr double kReconcileFloorMs = 0.005;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

bool g_corrupt = false;

// ---------------------------------------------------------------------------
// Result digest: FNV-1a over the bit patterns of every simulated statistic.

class Digest {
 public:
  void U(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void D(double v) { U(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

// ---------------------------------------------------------------------------
// Benchmark spans. Off in untraced phases (one branch); on, each span adds
// its wall time to the current sink under its layer name.

struct LayerTimes {
  std::map<std::string_view, double> ms;
  std::map<std::string_view, double> count;
};

struct Tracer {
  bool on = false;
  LayerTimes* sink = nullptr;
};
Tracer g_trace;

class Span {
 public:
  explicit Span(std::string_view layer) : layer_(layer) {
    if (g_trace.on) {
      active_ = true;
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (active_) g_trace.sink->ms[layer_] += MsSince(start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string_view layer_;
  bool active_ = false;
  Clock::time_point start_{};
};

void Count(std::string_view name, double value) {
  if (g_trace.on) g_trace.sink->count[name] += value;
}

// Runs fn inside a span; the result is constructed in place (no untimed
// default construction or move outside the span).
template <typename Fn>
auto Timed(std::string_view layer, Fn&& fn) {
  Span s{layer};
  return fn();
}

// Times the destruction of a job's locals as glue: declared before the
// scope holding them, engaged at that scope's end.
using Teardown = std::optional<Span>;

// ---------------------------------------------------------------------------
// Oracles. Each check records the first violated condition.

struct JobResult {
  std::string failure;  // empty: every check passed
  Digest digest;
};

class Check {
 public:
  explicit Check(JobResult& result) : result_(result) {}
  void That(bool ok, const char* what) {
    if (!ok && result_.failure.empty()) result_.failure = what;
  }

 private:
  JobResult& result_;
};

std::uint64_t JobSeed(std::uint64_t seed, std::size_t job) {
  Rng stream = Rng{seed}.Fork(static_cast<std::uint64_t>(job));
  return stream();
}

std::size_t RouteLinkTotal(const std::vector<routing::Route>& routes) {
  std::size_t links = 0;
  for (const routing::Route& r : routes) links += r.hops.size() - 1;
  return links;
}

std::size_t MinHops(const std::vector<routing::Route>& routes) {
  std::size_t hops = std::numeric_limits<std::size_t>::max();
  for (const routing::Route& r : routes) hops = std::min(hops, r.hops.size() - 1);
  return hops;
}

// Conservation and causality: every measured packet is delivered or
// dropped, one latency sample per delivery, and no packet beats its route's
// serialization time (one unit per link).
void CheckPacket(const sim::PacketSimResult& r, std::size_t min_hops, Check& check) {
  check.That(r.delivered + r.dropped == r.measured,
             "packet: delivered + dropped != measured");
  check.That(r.measured <= r.generated && r.measured > 0,
             "packet: measured out of range");
  check.That(r.latency.Count() == r.delivered,
             "packet: latency samples != delivered");
  check.That(r.delivered == 0 ||
                 r.latency.Min() >= static_cast<double>(min_hops) - 1e-9,
             "packet: a latency is below the hop count");
}

void DigestPacket(const sim::PacketSimResult& r, Digest& d) {
  d.U(r.generated);
  d.U(r.measured);
  d.U(r.delivered);
  d.U(r.dropped);
  d.U(r.latency.Count());
  if (r.latency.Count() > 0) {
    d.D(r.latency.Mean());
    d.D(r.latency.Min());
    d.D(r.latency.Max());
    for (const double q : {0.5, 0.9, 0.99}) d.D(r.latency.Percentile(q));
  }
  d.D(r.max_link_utilization);
  d.D(r.mean_link_utilization);
  d.U(static_cast<std::uint64_t>(r.max_queue_depth));
  d.U(r.monitor.windows);
  d.U(r.monitor.breach_windows);
  for (const obs::monitor::Alert& a : r.monitor.alerts) {
    d.U(a.entity);
    d.U(static_cast<std::uint64_t>(a.kind));
    d.U(a.signal);
    d.U(static_cast<std::uint64_t>(a.window));
    d.U(static_cast<std::uint64_t>(a.value));
    d.U(static_cast<std::uint64_t>(a.baseline_q));
    d.U(static_cast<std::uint64_t>(a.cusum_q));
  }
  for (const std::uint32_t v : r.monitor.delivered_per_window) d.U(v);
  for (const double v : r.monitor.latency_sum_per_window) d.D(v);
  for (const std::uint64_t v : r.monitor.dropped_per_window) d.U(v);
}

// Closed-form shape of a cube-family network (PAPER.md §1): digits with
// radices r_0..r_k, c ports per server, m = ceil((k+1)/(c-1)) servers per
// row. Servers m*prod(r), crossbars prod(r) when m >= 2, level-l switches
// prod(r)/r_l. The digit-fixing walk costs at most 2 links per level plus
// 2 per crossbar reposition: 4(k+1)+2 links, 2(k+1) without crossbars.
struct Shape {
  std::uint64_t servers = 0;
  std::uint64_t switches = 0;
  int diameter_bound = 0;
};

Shape CubeShape(const std::vector<int>& radices, int c) {
  const int digits = static_cast<int>(radices.size());
  const int m = (digits + c - 2) / (c - 1);
  std::uint64_t rows = 1;
  for (const int r : radices) rows *= static_cast<std::uint64_t>(r);
  std::uint64_t level_switches = 0;
  for (const int r : radices) level_switches += rows / static_cast<std::uint64_t>(r);
  return {static_cast<std::uint64_t>(m) * rows,
          (m >= 2 ? rows : 0) + level_switches,
          m >= 2 ? 4 * digits + 2 : 2 * digits};
}

// ---------------------------------------------------------------------------
// Workloads. The constructor is the set-up (topology, traffic, routes,
// candidates, fault targets); Run(job_seed, job) is one job, a pure
// function of the job's seed and its index.

class Workload {
 public:
  virtual ~Workload() = default;
  // Job kinds rotate with this period; runs stop on a cycle boundary so
  // every run measures the same mix.
  virtual std::size_t CycleLength() const = 0;
  virtual JobResult Run(std::uint64_t job_seed, std::size_t job) = 0;
  // One job of each job type, run untimed at the end of set-up.
  virtual std::vector<std::size_t> WarmUpJobs() const = 0;
  // Jobs re-run at one thread by the determinism spot check (empty: none).
  virtual std::vector<std::size_t> SpotCheckJobs() const { return {}; }
  virtual bool UsesPacketSim() const { return false; }
  // Monitored minus dark packetsim call on the same job, ms (0: no monitor).
  virtual double MonitorCostMs(std::size_t /*job*/) { return 0.0; }
};

struct PacketNet {
  std::unique_ptr<topo::Abccc> net;
  std::vector<routing::Route> routes;
  std::vector<std::vector<routing::Route>> candidates;
  std::size_t min_hops = 0;
  std::size_t min_hops_spray = 0;
  double duration = 0.0;
  double warmup = 0.0;
};

// Set-up of a packet-congested network: permutation, native routes, and the
// rotated digit-fixing candidates the spray jobs use.
PacketNet BuildPacketNet(topo::AbcccParams params, Rng& rng) {
  PacketNet p;
  p.net = Timed("topology.build", [&] { return std::make_unique<topo::Abccc>(params); });
  Count("topology.nodes", static_cast<double>(p.net->Network().NodeCount()));
  {
    Span s{"topology.csr"};
    p.net->Network().Csr();
  }
  const std::vector<sim::Flow> flows =
      Timed("traffic.generate", [&] { return sim::PermutationTraffic(*p.net, rng); });
  p.routes = Timed("routing.native", [&] { return sim::NativeRoutes(*p.net, flows); });
  Count("routing.route_links", static_cast<double>(RouteLinkTotal(p.routes)));
  p.min_hops = MinHops(p.routes);
  {
    Span s{"routing.multipath"};
    p.candidates.reserve(flows.size());
    for (const sim::Flow& f : flows) {
      p.candidates.push_back(routing::RotatedLevelOrderRoutes(*p.net, f.src, f.dst));
    }
  }
  p.min_hops_spray = std::numeric_limits<std::size_t>::max();
  for (const auto& set : p.candidates) {
    Count("routing.route_links", static_cast<double>(RouteLinkTotal(set)));
    p.min_hops_spray = std::min(p.min_hops_spray, MinHops(set));
  }
  return p;
}

// packet-congested: a seeded permutation on two ABCCC sizes, single-path or
// round-robin spray, loads across the knee with short queues.
class PacketCongested final : public Workload {
 public:
  PacketCongested(std::uint64_t seed, bool smoke) {
    Rng rng{seed};
    nets_[0] = BuildPacketNet(smoke ? topo::AbcccParams{3, 2, 2} : topo::AbcccParams{4, 4, 3},
                              rng);
    nets_[1] = BuildPacketNet(smoke ? topo::AbcccParams{2, 2, 2} : topo::AbcccParams{4, 3, 2},
                              rng);
    nets_[0].duration = smoke ? 60.0 : 50.0;
    nets_[0].warmup = 10.0;
    nets_[1].duration = smoke ? 60.0 : 120.0;
    nets_[1].warmup = smoke ? 10.0 : 20.0;
  }

  std::size_t CycleLength() const override { return 16; }
  // Both topologies and both routing modes, at the lightest load.
  std::vector<std::size_t> WarmUpJobs() const override { return {0, 1, 2, 3}; }
  // Both topologies, both routing modes and all four loads.
  std::vector<std::size_t> SpotCheckJobs() const override { return {0, 5, 10, 15}; }
  bool UsesPacketSim() const override { return true; }

  JobResult Run(std::uint64_t job_seed, std::size_t job) override {
    static constexpr double kLoads[] = {0.2, 0.4, 0.6, 0.8};
    JobResult out;
    Teardown teardown;
    {
      const PacketNet& p = nets_[job % 2];
      const bool spray = (job / 2) % 2 == 1;
      sim::PacketSimConfig config;
      config.offered_load = kLoads[(job / 4) % 4];
      config.duration = p.duration;
      config.warmup = p.warmup;
      config.queue_capacity = 16;
      config.seed = job_seed;
      sim::PacketSimResult r = Timed("packetsim.call", [&] {
        return spray ? sim::RunPacketSimMultipath(p.net->Network(), p.candidates, config)
                     : sim::RunPacketSim(p.net->Network(), p.routes, config);
      });
      Span glue{"bench.glue"};
      if (g_corrupt) ++r.delivered;
      Check check{out};
      CheckPacket(r, spray ? p.min_hops_spray : p.min_hops, check);
      DigestPacket(r, out.digest);
      teardown.emplace("bench.glue");
    }
    return out;
  }

 private:
  PacketNet nets_[2];
};

// fault-watch: the F24 cell — fault-free control and faulted run with the
// monitor on, then detection matching. Loads stay drop-free.
class FaultWatch final : public Workload {
 public:
  FaultWatch(std::uint64_t seed, bool smoke) {
    Rng rng{seed};
    std::unique_ptr<topo::Abccc> net = Timed("topology.build", [&] {
      return std::make_unique<topo::Abccc>(smoke ? topo::AbcccParams{4, 2, 2}
                                                 : topo::AbcccParams{4, 3, 2});
    });
    Count("topology.nodes", static_cast<double>(net->Network().NodeCount()));
    const graph::Graph& g = net->Network();
    {
      Span s{"topology.csr"};
      g.Csr();
    }
    // The loads must stay drop-free: redraw the permutation until the
    // busiest directed link carries at most kMaxLinkFlows flows, so the top
    // load keeps every link at or below 0.9 utilization (else keep the
    // least-loaded draw).
    std::vector<std::uint32_t> link_flows;
    std::uint32_t busiest = std::numeric_limits<std::uint32_t>::max();
    for (int draw = 0; draw < 32 && busiest > kMaxLinkFlows; ++draw) {
      const std::vector<sim::Flow> flows =
          Timed("traffic.generate", [&] { return sim::PermutationTraffic(*net, rng); });
      std::vector<routing::Route> routes =
          Timed("routing.native", [&] { return sim::NativeRoutes(*net, flows); });
      std::vector<std::uint32_t> load(2 * g.EdgeCount(), 0);
      for (const routing::Route& route : routes) {
        for (const std::uint64_t link : routing::RouteDirectedLinks(g, route)) ++load[link];
      }
      const std::uint32_t top = *std::max_element(load.begin(), load.end());
      if (top < busiest) {
        busiest = top;
        p_.routes = std::move(routes);
        link_flows = std::move(load);
      }
    }
    Count("routing.route_links", static_cast<double>(RouteLinkTotal(p_.routes)));
    p_.min_hops = MinHops(p_.routes);
    p_.net = std::move(net);
    // Targets from static route load: kill the busiest edge, then the
    // busiest transmitting switch off that edge, and degrade the busiest
    // edge touching neither.
    const auto edge_load = [&](graph::EdgeId e) {
      return std::max(link_flows[2 * e], link_flows[2 * e + 1]);
    };
    const auto edges = static_cast<graph::EdgeId>(g.EdgeCount());
    graph::EdgeId kill_edge = 0;
    for (graph::EdgeId e = 1; e < edges; ++e) {
      if (edge_load(e) > edge_load(kill_edge)) kill_edge = e;
    }
    const auto [ku, kv] = g.Endpoints(kill_edge);
    std::vector<std::uint64_t> node_tx(g.NodeCount(), 0);
    for (std::size_t link = 0; link < link_flows.size(); ++link) {
      const auto [u, v] = g.Endpoints(static_cast<graph::EdgeId>(link / 2));
      node_tx[static_cast<std::size_t>(link % 2 == 0 ? u : v)] += link_flows[link];
    }
    graph::NodeId kill_switch = graph::kInvalidNode;
    for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(g.NodeCount()); ++n) {
      if (!g.IsSwitch(n) || n == ku || n == kv) continue;
      if (kill_switch == graph::kInvalidNode || node_tx[n] > node_tx[kill_switch]) {
        kill_switch = n;
      }
    }
    graph::EdgeId degrade_edge = graph::kInvalidEdge;
    for (graph::EdgeId e = 0; e < edges; ++e) {
      const auto [u, v] = g.Endpoints(e);
      if (e == kill_edge || u == ku || u == kv || v == ku || v == kv ||
          u == kill_switch || v == kill_switch || edge_load(e) == 0) {
        continue;
      }
      if (degrade_edge == graph::kInvalidEdge || edge_load(e) > edge_load(degrade_edge)) {
        degrade_edge = e;
      }
    }
    // Fault times are multiples of both window widths.
    schedule_.DegradeLink(300.0, degrade_edge, 1)
        .KillLink(400.0, kill_edge)
        .KillNode(500.0, kill_switch);
  }

  std::size_t CycleLength() const override { return 6; }
  std::vector<std::size_t> WarmUpJobs() const override { return {0}; }
  std::vector<std::size_t> SpotCheckJobs() const override { return {0, 5}; }
  bool UsesPacketSim() const override { return true; }

  // F24 pairs one injection seed with every cell; the workload seed varies
  // the permutation. The detector floor is raised from the monitor default
  // (8) so Poisson dips on links carrying a few packets per window do not
  // fire on the control run; kills still fire within a few windows.
  static constexpr std::uint32_t kMaxLinkFlows = 9;
  static constexpr std::uint64_t kInjectionSeed = 0xdcf1035;
  static constexpr int kThresholdFloor = 20;

  static sim::PacketSimConfig Config(std::size_t job) {
    // Three loads put p50 inside the middle load's jobs, not on the edge
    // between two groups.
    static constexpr double kLoads[] = {0.05, 0.075, 0.10};
    static constexpr double kWidths[] = {20.0, 50.0};
    sim::PacketSimConfig config;
    config.offered_load = kLoads[job % 3];
    config.duration = 800.0;
    config.warmup = 100.0;
    config.queue_capacity = 64;
    config.seed = kInjectionSeed;
    config.monitor.enabled = true;
    config.monitor.window_width = kWidths[(job / 3) % 2];
    config.monitor.threshold_floor = kThresholdFloor;
    return config;
  }

  JobResult Run(std::uint64_t /*job_seed*/, std::size_t job) override {
    JobResult out;
    Teardown teardown;
    {
      const graph::Graph& g = p_.net->Network();
      sim::PacketSimConfig config = Config(job);
      const sim::PacketSimResult control =
          Timed("packetsim.call", [&] { return sim::RunPacketSim(g, p_.routes, config); });
      config.faults = schedule_;
      const sim::PacketSimResult faulted =
          Timed("packetsim.call", [&] { return sim::RunPacketSim(g, p_.routes, config); });
      std::vector<sim::DetectionOutcome> outcomes = Timed("failures.match", [&] {
        return sim::MatchDetections(g, schedule_, faulted.monitor);
      });
      Span glue{"bench.glue"};
      if (g_corrupt) outcomes.back().detected = false;
      Check check{out};
      CheckPacket(control, p_.min_hops, check);
      CheckPacket(faulted, p_.min_hops, check);
      check.That(control.monitor.enabled && faulted.monitor.enabled,
                 "fault: monitor result missing");
      std::size_t control_fires = 0;
      for (const obs::monitor::Alert& a : control.monitor.alerts) {
        control_fires += a.kind == obs::monitor::AlertKind::kFire;
      }
      check.That(control_fires == 0, "fault: alarm on the fault-free control");
      check.That(outcomes.size() == schedule_.events.size(),
                 "fault: one outcome per scheduled fault");
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const sim::DetectionOutcome& o = outcomes[i];
        const bool kill = schedule_.events[i].kind != sim::FaultKind::kLinkDegrade;
        if (kill) {
          check.That(o.detected && std::isfinite(o.ttd) && o.ttd >= 0.0 &&
                         o.detect_time >= schedule_.events[i].time,
                     "fault: a kill was not detected with finite TTD");
        }
      }
      DigestPacket(control, out.digest);
      DigestPacket(faulted, out.digest);
      for (const sim::DetectionOutcome& o : outcomes) {
        out.digest.U(o.detected);
        out.digest.D(o.detect_time);
      }
      teardown.emplace("bench.glue");
    }
    return out;
  }

  double MonitorCostMs(std::size_t job) override {
    sim::PacketSimConfig config = Config(job);
    sim::PacketSimConfig dark = config;
    dark.monitor.enabled = false;
    double monitored = std::numeric_limits<double>::infinity();
    double plain = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      auto t0 = Clock::now();
      sim::RunPacketSim(p_.net->Network(), p_.routes, config);
      monitored = std::min(monitored, MsSince(t0));
      t0 = Clock::now();
      sim::RunPacketSim(p_.net->Network(), p_.routes, dark);
      plain = std::min(plain, MsSince(t0));
    }
    return monitored - plain;
  }

 private:
  PacketNet p_;
  sim::FaultSchedule schedule_;
};

// flow-shuffle: F23 all-to-all coflows among W random workers (fluid
// max-min progression), with an F6 max-min permutation job after every
// seventh coflow. Two max-min jobs in a 17-job cycle put p50 and p90 inside
// a job class rather than on the edge between two.
class FlowShuffle final : public Workload {
 public:
  FlowShuffle(std::uint64_t /*seed*/, bool smoke) {
    const auto add = [&](std::unique_ptr<topo::Topology> net, const topo::Abccc* cube) {
      Count("topology.nodes", static_cast<double>(net->Network().NodeCount()));
      {
        Span s{"topology.csr"};
        net->Network().Csr();
      }
      nets_.push_back({std::move(net), cube});
    };
    for (const topo::AbcccParams params :
         smoke ? std::vector<topo::AbcccParams>{{3, 2, 2}}
               : std::vector<topo::AbcccParams>{{4, 3, 2}, {4, 3, 3}}) {
      auto net = Timed("topology.build", [&] { return std::make_unique<topo::Abccc>(params); });
      const topo::Abccc* cube = net.get();
      add(std::move(net), cube);
    }
    add(Timed("topology.build",
              [&] {
                return std::make_unique<topo::Bcube>(
                    topo::BcubeParams{smoke ? 3 : 4, smoke ? 2 : 3});
              }),
        nullptr);
    const std::vector<std::size_t> widths =
        smoke ? std::vector<std::size_t>{4, 8} : std::vector<std::size_t>{16, 24, 32};
    std::size_t fluid = 0;
    std::size_t maxmin = 0;
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      for (const std::size_t w : widths) {
        for (const bool balanced : {false, true}) {
          if (balanced && nets_[n].cube == nullptr) continue;
          cycle_.push_back({false, n, w, balanced});
          if (++fluid % (smoke ? 3 : 7) == 0) cycle_.push_back({true, maxmin++, 0, false});
        }
      }
    }
  }

  std::size_t CycleLength() const override { return cycle_.size(); }
  // The widest coflow of each (topology, routing) pair and each max-min
  // slot: the smallest jobs alone would leave set-up a few ms long.
  std::vector<std::size_t> WarmUpJobs() const override {
    std::map<std::tuple<bool, std::size_t, bool>, std::size_t> widest;
    for (std::size_t j = 0; j < cycle_.size(); ++j) {
      const JobSpec& s = cycle_[j];
      const auto [it, fresh] = widest.try_emplace({s.maxmin, s.net, s.balanced}, j);
      if (!fresh && s.workers > cycle_[it->second].workers) it->second = j;
    }
    std::vector<std::size_t> jobs;
    for (const auto& [type, job] : widest) jobs.push_back(job);
    std::sort(jobs.begin(), jobs.end());
    return jobs;
  }

  // The smallest job of each type (fluid single-path, fluid balanced,
  // max-min), since the spot check re-runs it at one thread.
  std::vector<std::size_t> SpotCheckJobs() const override {
    static constexpr std::pair<bool, bool> kTypes[] = {{false, false}, {false, true}, {true, false}};
    std::vector<std::size_t> jobs;
    for (const auto& [maxmin, balanced] : kTypes) {
      std::optional<std::size_t> pick;
      for (std::size_t j = 0; j < cycle_.size(); ++j) {
        if (cycle_[j].maxmin != maxmin || cycle_[j].balanced != balanced) continue;
        if (!pick || cycle_[j].workers < cycle_[*pick].workers) pick = j;
      }
      if (pick) jobs.push_back(*pick);
    }
    return jobs;
  }

  JobResult Run(std::uint64_t job_seed, std::size_t job) override {
    const JobSpec& spec = cycle_[job % cycle_.size()];
    Rng rng{job_seed};
    if (!spec.maxmin) return FluidJob(spec, rng);
    // Max-min slots rotate over the topologies from cycle to cycle.
    const std::size_t net = (job / cycle_.size() + spec.net) % nets_.size();
    return MaxMinJob(*nets_[net].net, rng);
  }

 private:
  struct Net {
    std::unique_ptr<topo::Topology> net;
    const topo::Abccc* cube;  // non-null: balanced routing applies
  };
  struct JobSpec {
    bool maxmin;
    std::size_t net;  // max-min jobs: the slot, rotated over nets_ in Run
    std::size_t workers;
    bool balanced;
  };

  JobResult FluidJob(const JobSpec& spec, Rng& rng) {
    const topo::Topology& net = *nets_[spec.net].net;
    const graph::Graph& g = net.Network();
    JobResult out;
    Teardown teardown;
    {
      std::optional<Span> glue{std::in_place, "bench.glue"};
      std::vector<graph::NodeId> workers(net.Servers().begin(), net.Servers().end());
      rng.Shuffle(workers);
      workers.resize(spec.workers);
      std::vector<sim::Flow> flows;
      for (const graph::NodeId src : workers) {
        for (const graph::NodeId dst : workers) {
          if (src != dst) flows.push_back({src, dst});
        }
      }
      const std::vector<double> bytes(flows.size(), 1.0);
      std::vector<std::vector<routing::Route>> candidates;
      glue.reset();
      std::vector<routing::Route> routes;
      if (spec.balanced) {
        candidates = Timed("routing.multipath", [&] {
          std::vector<std::vector<routing::Route>> sets;
          sets.reserve(flows.size());
          for (const sim::Flow& f : flows) {
            sets.push_back(routing::RotatedLevelOrderRoutes(*nets_[spec.net].cube, f.src, f.dst));
          }
          return sets;
        });
        routes = Timed("routing.assign",
                       [&] { return routing::AssignRoutes(g, candidates).routes; });
      } else {
        routes = Timed("routing.native", [&] { return sim::NativeRoutes(net, flows); });
      }
      sim::FluidResult r =
          Timed("fluid.call", [&] { return sim::FluidCompletionTimes(g, routes, bytes); });
      glue.emplace("bench.glue");
      Count("routing.route_links", static_cast<double>(RouteLinkTotal(routes)));
      if (g_corrupt) {
        for (double& t : r.finish_time) t *= 1e-3;
        r.makespan *= 1e-3;
      }
      Check check{out};
      check.That(r.finish_time.size() == flows.size(), "fluid: one finish time per flow");
      double latest = 0.0;
      for (const double t : r.finish_time) {
        check.That(std::isfinite(t) && t > 0.0, "fluid: a flow never finished");
        latest = std::max(latest, t);
      }
      check.That(r.makespan == latest, "fluid: makespan != last finish time");
      // NIC floor: each worker moves (W-1)·B out through its own links.
      double floor = 0.0;
      for (const graph::NodeId w : workers) {
        floor = std::max(floor, static_cast<double>(spec.workers - 1) /
                                    static_cast<double>(g.Degree(w)));
      }
      check.That(r.makespan >= floor * (1.0 - 1e-9), "fluid: makespan below the NIC floor");
      for (const double t : r.finish_time) out.digest.D(t);
      out.digest.D(r.makespan);
      out.digest.U(static_cast<std::uint64_t>(r.rate_recomputations));
      teardown.emplace("bench.glue");
    }
    return out;
  }

  JobResult MaxMinJob(const topo::Topology& net, Rng& rng) {
    const graph::Graph& g = net.Network();
    JobResult out;
    Teardown teardown;
    {
      const std::vector<sim::Flow> flows =
          Timed("traffic.generate", [&] { return sim::PermutationTraffic(net, rng); });
      const std::vector<routing::Route> routes =
          Timed("routing.native", [&] { return sim::NativeRoutes(net, flows); });
      sim::FlowSimResult r =
          Timed("flowsim.maxmin", [&] { return sim::MaxMinFairRates(g, routes); });
      Span glue{"bench.glue"};
      Count("routing.route_links", static_cast<double>(RouteLinkTotal(routes)));
      if (g_corrupt) r.rates.front() = 2.0;
      Check check{out};
      check.That(r.rates.size() == routes.size(), "maxmin: one rate per flow");
      // Feasibility: no directed hop carries more than its unit capacity.
      std::unordered_map<std::uint64_t, double> load;
      double sum = 0.0;
      for (std::size_t f = 0; f < routes.size() && f < r.rates.size(); ++f) {
        check.That(std::isfinite(r.rates[f]) && r.rates[f] > 0.0 && r.rates[f] <= 1.0 + 1e-9,
                   "maxmin: rate outside (0, 1]");
        sum += r.rates[f];
        const std::vector<graph::NodeId>& hops = routes[f].hops;
        for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
          const auto key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hops[h])) << 32) |
                           static_cast<std::uint32_t>(hops[h + 1]);
          load[key] += r.rates[f];
        }
      }
      for (const auto& [link, total] : load) {
        check.That(total <= 1.0 + 1e-9, "maxmin: a link is over capacity");
      }
      check.That(std::abs(sum - r.aggregate) <= 1e-6 * std::max(1.0, sum),
                 "maxmin: aggregate != sum of rates");
      for (const double rate : r.rates) out.digest.D(rate);
      out.digest.D(r.aggregate);
      out.digest.D(r.abt);
      out.digest.D(r.jain_fairness);
      teardown.emplace("bench.glue");
    }
    return out;
  }

  std::vector<Net> nets_;
  std::vector<JobSpec> cycle_;
};

// plan-query: capacity-planning queries over topo::MakeTopology specs (the
// build is part of every job), plus an implicit million-server cube query
// every eighth job.
class PlanQuery final : public Workload {
 public:
  PlanQuery(std::uint64_t /*seed*/, bool smoke) : smoke_(smoke) {
    // Each spec with its closed-form shape, derived here from the family
    // definitions rather than read back from the constructed networks.
    const auto fattree = [](int k) {
      const auto ku = static_cast<std::uint64_t>(k);
      return Shape{ku * ku * ku / 4, 5 * ku * ku / 4, 6};
    };
    const auto dcell = [](int n, int k) {
      std::uint64_t t = static_cast<std::uint64_t>(n);
      for (int l = 1; l <= k; ++l) t = t * (t + 1);
      // DCell routing: at most 2^(k+1)-1 server-to-server hops, <= 2 links each.
      return Shape{t, t / static_cast<std::uint64_t>(n), 2 * ((2 << k) - 1)};
    };
    if (smoke) {
      specs_ = {{"abccc:n=3,k=2,c=3", CubeShape({3, 3, 3}, 3)},
                {"bcube:n=3,k=2", CubeShape({3, 3, 3}, 4)},
                {"dcell:n=3,k=1", dcell(3, 1)},
                {"fattree:k=4", fattree(4)}};
    } else {
      specs_ = {{"abccc:n=8,k=3,c=3", CubeShape({8, 8, 8, 8}, 3)},
                {"gabccc:radices=8.8.8.4,c=3", CubeShape({8, 8, 8, 4}, 3)},
                {"bccc:n=4,k=4", CubeShape({4, 4, 4, 4, 4}, 2)},
                {"bcube:n=8,k=3", CubeShape({8, 8, 8, 8}, 5)},
                {"dcell:n=8,k=2", dcell(8, 2)},
                {"fattree:k=28", fattree(28)},
                {"abccc:n=4,k=5,c=3", CubeShape({4, 4, 4, 4, 4, 4}, 3)}};
    }
  }

  std::size_t CycleLength() const override { return specs_.size() + 1; }
  // Every spec builds through its own family's code: each is a job type.
  std::vector<std::size_t> WarmUpJobs() const override {
    std::vector<std::size_t> jobs(CycleLength());
    for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j] = j;
    return jobs;
  }

  JobResult Run(std::uint64_t job_seed, std::size_t job) override {
    Rng rng{job_seed};
    const std::size_t pos = job % CycleLength();
    return pos == specs_.size() ? ImplicitJob() : MaterializedJob(specs_[pos], rng);
  }

 private:
  struct Spec {
    std::string text;
    Shape shape;
  };

  JobResult MaterializedJob(const Spec& spec, Rng& rng) {
    const std::size_t pairs = smoke_ ? 16 : 64;
    const std::size_t blast_pairs = smoke_ ? 32 : 256;
    const std::size_t blast_switches = smoke_ ? 4 : 16;
    JobResult out;
    Teardown teardown;
    {
      std::unique_ptr<topo::Topology> net =
          Timed("topology.build", [&] { return topo::MakeTopology(spec.text); });
      const graph::Graph& g = net->Network();
      Count("topology.nodes", static_cast<double>(g.NodeCount()));
      {
        Span s{"topology.csr"};
        g.Csr();
      }
      metrics::ExactPathStats paths =
          Timed("metrics.exact_paths", [&] { return metrics::ExactServerPathStats(*net); });
      // The batched Dinic runs entirely inside the pool chunks of the
      // pair-cut call; their thread-summed time is the graph layer's share.
      const double chunk_before = Timed("bench.glue", ChunkMs);
      const metrics::PairCutStats cuts =
          Timed("metrics.pair_cuts", [&] { return metrics::SampledPairCuts(*net, pairs, rng); });
      Count("graph.dinic_ms", Timed("bench.glue", ChunkMs) - chunk_before);
      const double blast = Timed("metrics.fault_trials", [&] {
        return metrics::WorstSingleSwitchDisconnection(*net, blast_pairs, blast_switches, rng);
      });
      const topo::CapexReport cost =
          Timed("metrics.cost", [&] { return topo::EvaluateCost(*net); });
      Span glue{"bench.glue"};
      if (g_corrupt) paths.diameter += 1000;
      Check check{out};
      check.That(net->ServerCount() == spec.shape.servers, "plan: server count != closed form");
      check.That(net->SwitchCount() == spec.shape.switches, "plan: switch count != closed form");
      CheckPaths(paths, net->ServerCount(), spec.shape.diameter_bound, check);
      std::size_t ports = 0;
      for (const graph::NodeId s : g.Servers()) ports = std::max(ports, g.Degree(s));
      check.That(cuts.pairs == static_cast<std::int64_t>(pairs) &&
                     cuts.cuts.Count() == cuts.pairs,
                 "plan: pair-cut sample size");
      check.That(cuts.min_cut >= 1 && cuts.cuts.Max() <= static_cast<std::int64_t>(ports),
                 "plan: a min cut exceeds the server port count");
      check.That(blast >= 0.0 && blast <= 1.0, "plan: disconnection fraction outside [0, 1]");
      CheckCost(cost, net->ServerCount(), g.EdgeCount(), check);
      DigestPaths(paths, out.digest);
      for (const auto& [cut, n] : cuts.cuts.Buckets()) {
        out.digest.U(static_cast<std::uint64_t>(cut));
        out.digest.U(static_cast<std::uint64_t>(n));
      }
      out.digest.D(blast);
      out.digest.D(cost.total_usd);
      teardown.emplace("bench.glue");
    }
    return out;
  }

  JobResult ImplicitJob() {
    const std::vector<int> radices(smoke_ ? 4 : 5, smoke_ ? 4 : 16);
    const int k = static_cast<int>(radices.size()) - 1;
    const Shape shape = CubeShape(radices, 3);
    JobResult out;
    Teardown teardown;
    {
      const topo::ImplicitCube cube =
          Timed("topology.build", [&] { return topo::ImplicitCube::MakeAbccc(radices[0], k, 3); });
      Count("topology.nodes", static_cast<double>(cube.NodeCount()));
      metrics::ExactPathStats paths = Timed(
          "metrics.implicit_paths", [&] { return metrics::SymmetryReducedPathStats(cube); });
      const topo::CapexReport cost =
          Timed("metrics.cost", [&] { return topo::EvaluateCost(cube); });
      Span glue{"bench.glue"};
      if (g_corrupt) paths.pairs += 1;
      Check check{out};
      check.That(cube.ServerCount() == shape.servers, "implicit: server count != closed form");
      check.That(cube.SwitchCount() == shape.switches, "implicit: switch count != closed form");
      CheckPaths(paths, cube.ServerCount(), shape.diameter_bound, check);
      CheckCost(cost, cube.ServerCount(), cube.LinkCount(), check);
      DigestPaths(paths, out.digest);
      out.digest.D(cost.total_usd);
      teardown.emplace("bench.glue");
    }
    return out;
  }

  static void CheckPaths(const metrics::ExactPathStats& p, std::uint64_t servers,
                         int diameter_bound, Check& check) {
    check.That(p.connected, "paths: network reported disconnected");
    check.That(p.pairs == servers * (servers - 1), "paths: pairs != S(S-1)");
    std::uint64_t histogram = 0;
    for (const std::uint64_t n : p.pairs_at_distance) histogram += n;
    check.That(histogram == p.pairs, "paths: distance histogram != pairs");
    check.That(p.diameter >= 1 && p.diameter <= diameter_bound,
               "paths: diameter above the routing bound");
    check.That(p.radius <= p.diameter && p.average <= p.diameter && p.average >= 1.0,
               "paths: radius/average inconsistent with diameter");
  }

  static void CheckCost(const topo::CapexReport& cost, std::uint64_t servers,
                        std::uint64_t links, Check& check) {
    check.That(cost.servers == servers && cost.links == links,
               "cost: priced counts differ from the network");
    check.That(cost.nic_ports + cost.switch_ports == 2 * links,
               "cost: ports != two per link");
  }

  static void DigestPaths(const metrics::ExactPathStats& p, Digest& d) {
    d.U(static_cast<std::uint64_t>(p.diameter));
    d.U(static_cast<std::uint64_t>(p.radius));
    d.D(p.average);
    d.U(p.pairs);
    for (const std::uint64_t n : p.pairs_at_distance) d.U(n);
  }

  static double ChunkMs() {
    if (!g_trace.on) return 0.0;
    for (const obs::TimerRow& row : obs::TakeSnapshot().timers) {
      if (row.name == "parallel/chunk") return static_cast<double>(row.total_ns) / 1e6;
    }
    return 0.0;
  }

  bool smoke_;
  std::vector<Spec> specs_;
};

constexpr std::string_view kWorkloads[] = {"packet-congested", "fault-watch", "flow-shuffle",
                                           "plan-query"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool smoke) {
  if (name == "packet-congested") return std::make_unique<PacketCongested>(seed, smoke);
  if (name == "fault-watch") return std::make_unique<FaultWatch>(seed, smoke);
  if (name == "flow-shuffle") return std::make_unique<FlowShuffle>(seed, smoke);
  if (name == "plan-query") return std::make_unique<PlanQuery>(seed, smoke);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Driver.

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few reasons

  void Record(std::size_t job, const JobResult& r) {
    ++attempted;
    if (r.failure.empty()) return;
    ++failed;
    if (failures.size() < 5) failures.push_back("job " + std::to_string(job) + ": " + r.failure);
  }
};

JobResult RunGuarded(Workload& w, std::uint64_t seed, std::size_t job) {
  try {
    return w.Run(JobSeed(seed, job), job);
  } catch (const std::exception& e) {
    JobResult r;
    r.failure = std::string{"threw: "} + e.what();
    return r;
  }
}

// Untimed warm-up: one job of each job type, on inputs from kWarmUpSeed.
void WarmUp(Workload& w, Tally& tally) {
  for (const std::size_t job : w.WarmUpJobs()) {
    tally.Record(job, RunGuarded(w, kWarmUpSeed, job));
  }
  obs::Reset();
}

std::unique_ptr<Workload> SetUp(const std::string& name, std::uint64_t seed, bool smoke,
                                Tally& tally) {
  std::unique_ptr<Workload> w = MakeWorkload(name, seed, smoke);
  WarmUp(*w, tally);
  return w;
}

// Aggregates of a traced phase.
struct TraceTotals {
  LayerTimes layers;                   // benchmark spans + counts, summed
  std::map<std::string, double> obs;   // counters (raw) and timers (ms)
  double wall_ms = 0.0;
  double residual_ms = 0.0;            // sum of |wall - spans| over jobs
  double residual_worst = 0.0;         // max |wall - spans| / wall over jobs
  double balance_sum = 0.0;            // per-job mean/max shard events
  std::size_t balance_jobs = 0;
};

struct Phase {
  std::size_t jobs = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> cycle_digests;  // the first cycle, in job order
  TraceTotals trace;
};

void AbsorbObs(TraceTotals& t) {
  const obs::Snapshot snap = obs::TakeSnapshot();
  for (const obs::CounterRow& row : snap.counters) {
    t.obs[row.name] += static_cast<double>(row.value);
  }
  for (const obs::TimerRow& row : snap.timers) {
    t.obs[row.name + ".ms"] += static_cast<double>(row.total_ns) / 1e6;
  }
  for (const obs::HistogramRow& row : snap.histograms) {
    if (row.name == "packetsim/parallel/shard_events" && row.stats.count > 0 &&
        row.stats.max > 0) {
      t.balance_sum += row.stats.Mean() / static_cast<double>(row.stats.max);
      ++t.balance_jobs;
    }
  }
}

// Runs whole job cycles from first_job (a cycle boundary) until `seconds`
// have passed and at least min_jobs ran.
Phase RunPhase(Workload& w, std::uint64_t seed, std::size_t first_job, double seconds,
               std::size_t min_jobs, bool traced, Tally& tally) {
  Phase phase;
  const std::size_t cycle = w.CycleLength();
  // Never run past a hard cap, whatever the job cost.
  const double cap_s = 3.0 * std::max(seconds, 0.0) + 3.0;
  obs::Reset();
  obs::EnableSpans(traced);
  const auto start = Clock::now();
  for (std::size_t job = first_job;; ++job) {
    const double elapsed = MsSince(start) / 1e3;
    const std::size_t done = job - first_job;
    if (done % cycle == 0 && ((done >= min_jobs && elapsed >= seconds) || elapsed >= cap_s)) {
      break;
    }
    LayerTimes layers;
    g_trace.on = traced;
    g_trace.sink = &layers;
    const auto t0 = Clock::now();
    const JobResult r = RunGuarded(w, seed, job);
    const double wall = MsSince(t0);
    g_trace.on = false;
    tally.Record(job, r);
    phase.latency_ms.push_back(wall);
    if (job < cycle) phase.cycle_digests.push_back(r.digest.Value());
    if (traced) {
      TraceTotals& t = phase.trace;
      double spans = 0.0;
      for (const auto& [layer, ms] : layers.ms) {
        t.layers.ms[layer] += ms;
        spans += ms;
      }
      for (const auto& [name, v] : layers.count) t.layers.count[name] += v;
      t.wall_ms += wall;
      const double residual = std::abs(wall - spans);
      t.residual_ms += residual;
      t.residual_worst = std::max(t.residual_worst, residual / wall);
      AbsorbObs(t);
    }
    obs::Reset();
  }
  phase.elapsed_s = MsSince(start) / 1e3;
  phase.jobs = phase.latency_ms.size();
  obs::EnableSpans(false);
  return phase;
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The process high-water mark. getrusage's ru_maxrss keeps the parent's
// peak across exec (the launching interpreter's, here), so the kernel's
// per-address-space VmHWM is read first.
double PeakRssMb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::uint64_t CombinedDigest(const std::vector<std::uint64_t>& digests) {
  Digest d;
  for (const std::uint64_t v : digests) d.U(v);
  return d.Value();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metrics of a traced phase. Layer times are ms per job when the
// layer is called inside jobs, else ms per set-up (the traced set-up).
std::vector<Metric> LayerMetrics(const Phase& p, const LayerTimes& setup, double untraced_rate,
                                 double team_speedup, double monitor_cost_ms) {
  const TraceTotals& t = p.trace;
  const double jobs = static_cast<double>(p.jobs);
  const auto layer_ms = [&](std::string_view name) {
    const auto it = t.layers.ms.find(name);
    if (it != t.layers.ms.end()) return it->second / jobs;
    const auto s = setup.ms.find(name);
    return s == setup.ms.end() ? 0.0 : s->second;
  };
  const auto count = [&](std::string_view name) {
    const auto it = t.layers.count.find(name);
    if (it != t.layers.count.end()) return it->second / jobs;
    const auto s = setup.count.find(name);
    return s == setup.count.end() ? 0.0 : s->second;
  };
  const auto obs_total = [&](const std::string& name) {
    const auto it = t.obs.find(name);
    return it == t.obs.end() ? 0.0 : it->second;
  };
  const auto per_job = [&](const std::string& name) { return obs_total(name) / jobs; };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const double call = layer_ms("packetsim.call");
  const double setup_ms = per_job("packetsim/setup.ms");
  const double schedule_ms = per_job("packetsim/schedule.ms");
  const double fluid_ms = layer_ms("fluid.call");
  const double recomputes = per_job("fluid/rate_recomputations");
  const double batches = per_job("msbfs/batches");
  const double bottom_up = per_job("msbfs/levels_bottom_up");
  const double top_down = per_job("msbfs/levels_top_down");
  const double unit_solves = per_job("dinic/unit_solves");
  const double region_ms = per_job("parallel/region.ms");
  const double chunk_ms = per_job("parallel/chunk.ms");
  double layered = 0.0;
  for (const auto& [layer, ms] : t.layers.ms) {
    if (layer != "bench.glue") layered += ms;
  }
  const double traced_rate = jobs / p.elapsed_s;

  return {
      {"topology.build_ms", layer_ms("topology.build"), "ms"},
      {"topology.csr_ms", layer_ms("topology.csr"), "ms"},
      {"topology.nodes", count("topology.nodes"), "count"},
      {"routing.native_ms", layer_ms("routing.native"), "ms"},
      {"routing.multipath_ms", layer_ms("routing.multipath"), "ms"},
      {"routing.assign_ms", layer_ms("routing.assign"), "ms"},
      {"routing.route_links", count("routing.route_links"), "count"},
      {"traffic.generate_ms", layer_ms("traffic.generate"), "ms"},
      {"packetsim.call_ms", call, "ms"},
      {"packetsim.setup_ms", setup_ms, "ms"},
      {"packetsim.schedule_ms", schedule_ms, "ms"},
      {"packetsim.run_ms", per_job("packetsim/run.ms"), "ms"},
      {"packetsim.coordinate_ms", per_job("packetsim/coordinate.ms"), "ms"},
      {"packetsim.shard_ms", per_job("packetsim/shard.ms"), "ms"},
      {"packetsim.serial_share", ratio(setup_ms + schedule_ms, call), "ratio"},
      {"packetsim.events", per_job("packetsim/events"), "count"},
      {"packetsim.events_per_s", ratio(per_job("packetsim/events"), call / 1e3), "1/s"},
      {"packetsim.generated", per_job("packetsim/generated"), "count"},
      {"packetsim.dropped", per_job("packetsim/dropped"), "count"},
      {"packetsim.windows", per_job("packetsim/parallel/windows"), "count"},
      {"packetsim.handoffs", per_job("packetsim/parallel/handoffs"), "count"},
      {"packetsim.shard_balance",
       ratio(t.balance_sum, static_cast<double>(t.balance_jobs)), "ratio"},
      {"packetsim.team_speedup", team_speedup, "ratio"},
      {"monitor.cost_ms", monitor_cost_ms, "ms"},
      {"monitor.windows", per_job("monitor/windows"), "count"},
      {"monitor.alerts_fired", per_job("monitor/alerts_fired"), "count"},
      {"failures.match_ms", layer_ms("failures.match"), "ms"},
      {"fluid.call_ms", fluid_ms, "ms"},
      {"fluid.recomputations", recomputes, "count"},
      {"fluid.ms_per_recompute", ratio(fluid_ms, recomputes), "ms"},
      {"flowsim.maxmin_ms", layer_ms("flowsim.maxmin"), "ms"},
      {"flowsim.bottleneck_rounds", per_job("flowsim/bottleneck_rounds"), "count"},
      {"graph.msbfs_ms", per_job("msbfs/batch.ms"), "ms"},
      {"graph.msbfs_batches", batches, "count"},
      {"graph.msbfs_lane_fill", ratio(per_job("msbfs/lanes"), 64.0 * batches), "ratio"},
      {"graph.msbfs_bottom_up_fraction", ratio(bottom_up, bottom_up + top_down), "ratio"},
      {"graph.dinic_ms", count("graph.dinic_ms"), "ms"},
      {"graph.dinic_unit_solves", unit_solves, "count"},
      {"graph.dinic_reuse_fraction", ratio(per_job("dinic/reuse_hits"), unit_solves), "ratio"},
      {"metrics.exact_paths_ms", layer_ms("metrics.exact_paths"), "ms"},
      {"metrics.implicit_paths_ms", layer_ms("metrics.implicit_paths"), "ms"},
      {"metrics.pair_cuts_ms", layer_ms("metrics.pair_cuts"), "ms"},
      {"metrics.fault_trials_ms", layer_ms("metrics.fault_trials"), "ms"},
      {"metrics.cost_ms", layer_ms("metrics.cost"), "ms"},
      {"metrics.repaired_fraction",
       ratio(per_job("resilience/repair_cone_nodes"), per_job("resilience/repair_total_nodes")),
       "ratio"},
      {"parallel.region_ms", region_ms, "ms"},
      {"parallel.chunks", per_job("parallel/chunks"), "count"},
      {"parallel.busy_fraction", ratio(chunk_ms, region_ms * ThreadCount()), "ratio"},
      {"bench.job_ms", t.wall_ms / jobs, "ms"},
      {"bench.layer_ms", layered / jobs, "ms"},
      {"bench.glue_ms", layer_ms("bench.glue"), "ms"},
      {"bench.reconcile_error", t.residual_ms / t.wall_ms, "ratio"},
      {"bench.reconcile_worst_job", t.residual_worst, "ratio"},
      {"bench.trace_overhead", ratio(untraced_rate, traced_rate), "ratio"},
  };
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

// Strict --key=value parsing: unknown keys, missing keys and trailing
// garbage are errors.
bool ParseOptions(int argc, char** argv, Options& opt, std::string& error) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      error = "expected --key=value, got '" + arg + "'";
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    const auto flag = [&](bool& out) {
      if (value != "0" && value != "1") {
        error = "--" + key + " takes 0 or 1";
        return false;
      }
      out = value == "1";
      return true;
    };
    try {
      std::size_t used = 0;
      if (key == "workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "seed") {
        opt.seed = std::stoull(value, &used);
        have_seed = used == value.size() && value[0] != '-';
        if (!have_seed) error = "bad --seed";
      } else if (key == "seconds") {
        opt.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && opt.seconds > 0.0 && opt.seconds <= 600.0;
        if (!have_seconds) error = "--seconds must be in (0, 600]";
      } else if (key == "trace") {
        if (!flag(opt.trace)) return false;
      } else if (key == "smoke") {
        if (!flag(opt.smoke)) return false;
      } else if (key == "corrupt") {
        if (!flag(g_corrupt)) return false;
      } else {
        error = "unknown flag --" + key;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for --" + key;
      return false;
    }
    if (!error.empty()) return false;
  }
  if (!have_workload || !have_seed || !have_seconds) {
    error = "need --workload, --seed and --seconds";
    return false;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads)) {
    error = "unknown workload '" + opt.workload + "'";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!ParseOptions(argc, argv, opt, error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  Tally tally;
  std::vector<Metric> metrics;
  std::uint64_t digest = 0;
  std::size_t jobs_timed = 0;
  bool reconciled = true;
  bool enough_jobs = true;
  std::size_t spot_mismatches = 0;
  const std::size_t min_jobs = opt.smoke ? 1 : kMinJobs;

  if (!opt.trace) {
    // kRounds rounds of a fresh set-up followed by a timed segment on it.
    // Every set-up builds the same workload and jobs are pure functions of
    // (seed, index), so job indices continue across rounds; the set-ups
    // sample the host over the whole run, as the jobs do. Segment i ends
    // once the segments so far have timed (i+1)/rounds of --seconds, so
    // overruns at cycle boundaries do not add up.
    const int rounds = opt.smoke ? 1 : kRounds;
    const std::size_t segment_min_jobs = (min_jobs + rounds - 1) / rounds;
    std::vector<double> setups;
    Phase timed;
    for (int i = 0; i < rounds; ++i) {
      const auto t0 = Clock::now();
      const std::unique_ptr<Workload> w = SetUp(opt.workload, opt.seed, opt.smoke, tally);
      setups.push_back(MsSince(t0) / 1e3);
      const double segment_s = opt.seconds * (i + 1) / rounds - timed.elapsed_s;
      const Phase p =
          RunPhase(*w, opt.seed, timed.jobs, segment_s, segment_min_jobs, false, tally);
      timed.jobs += p.jobs;
      timed.elapsed_s += p.elapsed_s;
      timed.latency_ms.insert(timed.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
      if (i == 0) timed.cycle_digests = p.cycle_digests;
    }
    jobs_timed = timed.jobs;
    enough_jobs = timed.jobs >= min_jobs;
    digest = CombinedDigest(timed.cycle_digests);
    metrics = {
        {"jobs_per_s", static_cast<double>(timed.jobs) / timed.elapsed_s, "1/s"},
        {"job_p50_ms", Percentile(timed.latency_ms, 0.5), "ms"},
        {"job_p90_ms", Percentile(timed.latency_ms, 0.9), "ms"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Untraced reference for the trace overhead, then the traced pass.
    double untraced_rate = 0.0;
    std::vector<std::uint64_t> untraced_digests;
    {
      std::unique_ptr<Workload> w = SetUp(opt.workload, opt.seed, opt.smoke, tally);
      const Phase p = RunPhase(*w, opt.seed, 0, opt.seconds / 2, 1, false, tally);
      untraced_rate = static_cast<double>(p.jobs) / p.elapsed_s;
      untraced_digests = p.cycle_digests;
    }
    LayerTimes setup_layers;
    g_trace.on = true;
    g_trace.sink = &setup_layers;
    std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.seed, opt.smoke);
    g_trace.on = false;
    // Warmed like the untraced reference, so the overhead is not a cold start.
    WarmUp(*w, tally);
    const Phase p = RunPhase(*w, opt.seed, 0, opt.seconds / 2, 1, true, tally);
    jobs_timed = p.jobs;
    reconciled = p.trace.residual_ms <=
                 kReconcileShare * p.trace.wall_ms + kReconcileFloorMs * static_cast<double>(p.jobs);
    digest = CombinedDigest(p.cycle_digests);
    if (p.cycle_digests != untraced_digests) ++spot_mismatches;

    // Determinism spot check: the same job at pool size and at one thread
    // must give bit-identical results; the timing pairs give the speed-up.
    double pool_ms = 0.0;
    double one_ms = 0.0;
    double monitor_cost = 0.0;
    const std::vector<std::size_t> spot = w->SpotCheckJobs();
    for (const std::size_t job : spot) {
      auto t0 = Clock::now();
      const JobResult at_pool = RunGuarded(*w, opt.seed, job);
      pool_ms += MsSince(t0);
      SetThreadCount(1);
      t0 = Clock::now();
      const JobResult at_one = RunGuarded(*w, opt.seed, job);
      one_ms += MsSince(t0);
      SetThreadCount(0);
      tally.Record(job, at_pool);
      JobResult pair = at_one;
      if (pair.failure.empty() && (at_pool.digest.Value() != at_one.digest.Value() ||
                                   at_pool.digest.Value() != p.cycle_digests[job])) {
        pair.failure = "result differs between pool size and one thread";
        ++spot_mismatches;
      }
      tally.Record(job, pair);
      monitor_cost += w->MonitorCostMs(job) / static_cast<double>(spot.size());
      obs::Reset();
    }
    const double speedup = w->UsesPacketSim() && pool_ms > 0.0 ? one_ms / pool_ms : 0.0;
    metrics = LayerMetrics(p, setup_layers, untraced_rate, speedup, monitor_cost);
  }

  const bool correct = tally.failed == 0 && reconciled && enough_jobs && spot_mismatches == 0;
  std::cout << "perfbench: workload " << opt.workload << " seed " << opt.seed << ": "
            << jobs_timed << " timed jobs, " << tally.attempted << " attempted, "
            << tally.failed << " failed, digest " << Hex(digest) << "\n";
  for (const std::string& f : tally.failures) std::cout << "perfbench: failed " << f << "\n";
  if (!enough_jobs) {
    std::cout << "perfbench: the timed phase hit its time cap after " << jobs_timed
              << " jobs; percentiles need at least " << min_jobs << "\n";
  }
  if (!reconciled) {
    std::cout << "perfbench: layer spans and glue miss more than " << 100 * kReconcileShare
              << "% (+" << 1e3 * kReconcileFloorMs << " us per job) of the traced jobs' wall time\n";
  }
  std::ostringstream json;
  json << std::setprecision(std::numeric_limits<double>::max_digits10);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << tally.attempted << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << JsonString(metrics[i].name) << ": {\"value\": "
         << (std::isfinite(metrics[i].value) ? metrics[i].value : 0.0)
         << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  json << "}, \"result_digest\": \"" << Hex(digest) << "\", \"timed_jobs\": " << jobs_timed
       << ", \"reconciled\": " << (reconciled ? "true" : "false")
       << ", \"determinism_mismatches\": " << spot_mismatches
       << ", \"failures\": [";
  for (std::size_t i = 0; i < tally.failures.size(); ++i) {
    json << (i ? ", " : "") << JsonString(tally.failures[i]);
  }
  json << "], \"manifest\": {\"pool_threads\": " << ThreadCount()
       << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << JsonString(kCompiler) << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
