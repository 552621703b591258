// Differential lockdown of the sharded packet simulator (sim/packetsim.cc):
// RunPacketSim must produce a byte-identical PacketSimResult — counts,
// latency samples, utilizations, breakdown, obs histograms — to the serial
// reference RunPacketSimSerial at every DCN_THREADS, with the flight
// recorder on or off, across all supported topology families, random graphs,
// failure sets, and adversarial same-timestamp workloads. Simultaneous
// events are common here (service completions are birth times plus integer
// service counts), so these tests exercise the documented (time, key, kind,
// id) tie-break order for real, not as a corner case. Both engines are also
// held to an independent FIFO oracle that reads only the recorded per-hop
// timestamps, so a queue bug the two engines shared would still fail.
#include "sim/packetsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "routing/route.h"
#include "sim/traffic.h"
#include "topology/factory.h"

namespace dcn::sim {
namespace {

namespace flight = obs::flight;
using graph::Graph;
using graph::NodeKind;
using routing::Route;

class PacketSimParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight::Disable();
    obs::Reset();
  }
  void TearDown() override {
    flight::Disable();
    obs::Reset();
    SetThreadCount(0);
    unsetenv("DCN_THREADS");
  }
};

// Exact (==) multiset equality. SampleSet sorts lazily in place and Mean()
// sums in storage order, so both sides are forced into sorted order first
// (via Min()); after that, bit-equal sums and percentiles hold iff the two
// engines produced the identical samples.
void ExpectSameSamples(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.Count(), b.Count());
  if (a.Count() == 0) return;
  EXPECT_EQ(a.Min(), b.Min());  // sorts both
  EXPECT_EQ(a.Mean(), b.Mean());
  EXPECT_EQ(a.Max(), b.Max());
  EXPECT_EQ(a.Percentile(0.25), b.Percentile(0.25));
  EXPECT_EQ(a.Percentile(0.5), b.Percentile(0.5));
  EXPECT_EQ(a.Percentile(0.99), b.Percentile(0.99));
}

void ExpectSameResult(const PacketSimResult& a, const PacketSimResult& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.max_link_utilization, b.max_link_utilization);
  EXPECT_EQ(a.mean_link_utilization, b.mean_link_utilization);
  ExpectSameSamples(a.latency, b.latency);
  ASSERT_EQ(a.breakdown.enabled, b.breakdown.enabled);
  if (a.breakdown.enabled) {
    ExpectSameSamples(a.breakdown.total, b.breakdown.total);
    ExpectSameSamples(a.breakdown.queueing, b.breakdown.queueing);
    EXPECT_EQ(a.breakdown.hops.Buckets(), b.breakdown.hops.Buckets());
  }
}

std::vector<Route> PermutationRoutes(const topo::Topology& net,
                                     std::uint64_t seed) {
  Rng rng{seed};
  return NativeRoutes(net, PermutationTraffic(net, rng));
}


// The per-run obs counters and histograms the sharded engine reconstructs
// from per-member partials; deltas must match the serial engine's exactly.
struct ObsReadout {
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t depth_count = 0;
  std::int64_t depth_sum = 0;
  std::uint64_t hops_count = 0;
  std::int64_t hops_sum = 0;
};

ObsReadout TakeObsReadout() {
  ObsReadout r;
  r.events = obs::CounterValue("packetsim/events");
  r.generated = obs::CounterValue("packetsim/generated");
  r.delivered = obs::CounterValue("packetsim/delivered");
  r.dropped = obs::CounterValue("packetsim/dropped");
  const obs::Snapshot snap = obs::TakeSnapshot();
  for (const auto& [name, h] : snap.histograms) {
    if (name == "packetsim/queue_depth") {
      r.depth_count = h.count;
      r.depth_sum = h.sum;
    } else if (name == "packetsim/hops") {
      r.hops_count = h.count;
      r.hops_sum = h.sum;
    }
  }
  return r;
}

void ExpectSameObs(const ObsReadout& a, const ObsReadout& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.depth_count, b.depth_count);
  EXPECT_EQ(a.depth_sum, b.depth_sum);
  EXPECT_EQ(a.hops_count, b.hops_count);
  EXPECT_EQ(a.hops_sum, b.hops_sum);
}

// The replayed record stream must be the serial engine's call-for-call:
// same packets, same hop timestamps, same drop/delivery flags.
void ExpectSameRecords(const flight::RunSnapshot& got_run,
                       const flight::RunSnapshot& want_run) {
  EXPECT_EQ(got_run.sampling_skipped, want_run.sampling_skipped);
  ASSERT_EQ(got_run.packets.size(), want_run.packets.size());
  for (std::size_t p = 0; p < got_run.packets.size(); ++p) {
    const flight::PacketRecord& got = got_run.packets[p];
    const flight::PacketRecord& want = want_run.packets[p];
    ASSERT_EQ(got.packet, want.packet);
    EXPECT_EQ(got.source, want.source);
    EXPECT_EQ(got.born, want.born);
    EXPECT_EQ(got.measured, want.measured);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.completed, want.completed);
    ASSERT_EQ(got.hops.size(), want.hops.size());
    for (std::size_t h = 0; h < got.hops.size(); ++h) {
      EXPECT_EQ(got.hops[h].link, want.hops[h].link);
      EXPECT_EQ(got.hops[h].enqueue, want.hops[h].enqueue);
      EXPECT_EQ(got.hops[h].start, want.hops[h].start);
      EXPECT_EQ(got.hops[h].depart, want.hops[h].depart);
      EXPECT_EQ(got.hops[h].dropped, want.hops[h].dropped);
    }
  }
  EXPECT_EQ(got_run.lanes, want_run.lanes);
}

// Independent FIFO oracle for the per-link output queues. It reads only the
// flight recorder's per-hop timestamps (every packet sampled) and checks
// each directed link against the queue discipline itself: unit service, one
// packet in service at a time, first in first out, work-conserving, and
// drop-tail at queue_capacity. It shares no code with the link stores.
struct FifoAudit {
  std::size_t hops = 0;   // accepted hops
  std::size_t drops = 0;
  std::size_t links = 0;  // directed links that saw a packet
  std::size_t violations = 0;
  std::string first;      // the first violation, for the failure message
};

FifoAudit AuditLinkQueues(const flight::RunSnapshot& run, int capacity) {
  struct LinkLog {
    std::vector<flight::HopRecord> accepted;
    std::vector<double> drops;
  };
  std::map<std::uint64_t, LinkLog> logs;
  for (const flight::PacketRecord& packet : run.packets) {
    for (const flight::HopRecord& hop : packet.hops) {
      LinkLog& log = logs[hop.link];
      if (hop.dropped) {
        log.drops.push_back(hop.enqueue);
      } else {
        log.accepted.push_back(hop);
      }
    }
  }
  FifoAudit audit;
  for (auto& [link, log] : logs) {
    const auto flag = [&](const char* what, double t) {
      if (audit.violations++ == 0) {
        audit.first = "link " + std::to_string(link) + " at t=" +
                      std::to_string(t) + ": " + what;
      }
    };
    std::vector<flight::HopRecord>& hops = log.accepted;
    std::sort(hops.begin(), hops.end(),
              [](const flight::HopRecord& a, const flight::HopRecord& b) {
                return a.start < b.start;
              });
    std::vector<double> enqueues;
    std::vector<double> departs;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      const flight::HopRecord& hop = hops[i];
      if (hop.depart != hop.start + 1.0) {
        flag("service is not one time unit", hop.start);
      }
      double ready = hop.enqueue;
      if (i > 0) {
        const flight::HopRecord& prev = hops[i - 1];
        if (hop.start < prev.depart) flag("service intervals overlap", hop.start);
        if (hop.enqueue < prev.enqueue) flag("served out of FIFO order", hop.start);
        ready = std::max(ready, prev.depart);
      }
      if (hop.start != ready) flag("not work-conserving", hop.start);
      enqueues.push_back(hop.enqueue);
      departs.push_back(hop.depart);
    }
    std::sort(enqueues.begin(), enqueues.end());
    std::sort(departs.begin(), departs.end());
    // Accepted hops holding a slot at time t: enqueue <= t < depart. A hop
    // that departs exactly at t may still hold its slot at a same-instant
    // event (one instant's events run in key order), so the drop check also
    // counts depart == t and the acceptance check does not.
    const auto queued = [&](double t, bool with_departing) {
      const auto joined =
          std::upper_bound(enqueues.begin(), enqueues.end(), t) - enqueues.begin();
      const auto left =
          (with_departing ? std::lower_bound(departs.begin(), departs.end(), t)
                          : std::upper_bound(departs.begin(), departs.end(), t)) -
          departs.begin();
      return joined - left;
    };
    for (const flight::HopRecord& hop : hops) {
      if (queued(hop.enqueue, false) > capacity) {
        flag("accepted into a full queue", hop.enqueue);
      }
    }
    for (const double t : log.drops) {
      if (queued(t, true) < capacity) flag("dropped with room in the queue", t);
    }
    audit.hops += hops.size();
    audit.drops += log.drops.size();
    ++audit.links;
  }
  return audit;
}

TEST_F(PacketSimParallelTest, AllFamiliesMatchSerialReferenceAtEveryThreadCount) {
  PacketSimConfig config;
  config.offered_load = 0.7;  // congested: simultaneous timestamps abound
  config.duration = 150;
  config.warmup = 30;
  config.queue_capacity = 8;
  for (const std::string& spec : topo::SupportedSpecs()) {
    SCOPED_TRACE(spec);
    const std::unique_ptr<topo::Topology> net = topo::MakeTopology(spec);
    const std::vector<Route> routes = PermutationRoutes(*net, 0x6001);

    SetThreadCount(1);
    obs::Reset();
    const PacketSimResult serial =
        RunPacketSimSerial(net->Network(), routes, config);
    const ObsReadout serial_obs = TakeObsReadout();

    for (int threads : {1, 3, 7}) {
      SCOPED_TRACE(threads);
      SetThreadCount(threads);
      obs::Reset();
      const PacketSimResult sharded =
          RunPacketSim(net->Network(), routes, config);
      ExpectSameResult(sharded, serial);
      ExpectSameObs(TakeObsReadout(), serial_obs);
    }
  }
}

TEST_F(PacketSimParallelTest, RecorderOnStaysByteIdenticalAndNonPerturbing) {
  PacketSimConfig config;
  config.offered_load = 0.8;
  config.duration = 200;
  config.warmup = 40;
  config.queue_capacity = 4;  // force drops through the recorder path too
  const std::unique_ptr<topo::Topology> net =
      topo::MakeTopology("abccc:n=4,k=2,c=3");
  const std::vector<Route> routes = PermutationRoutes(*net, 0x6002);

  SetThreadCount(1);
  const PacketSimResult dark = RunPacketSimSerial(net->Network(), routes, config);

  flight::Config fc;
  fc.sample_rate = 0.4;
  fc.latency_breakdown = true;
  flight::Enable(fc);
  obs::Reset();
  const PacketSimResult serial =
      RunPacketSimSerial(net->Network(), routes, config);
  const std::vector<flight::RunSnapshot> serial_runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(serial_runs.size(), 1u);
  EXPECT_FALSE(serial_runs[0].packets.empty());

  for (int threads : {1, 2, 3, 4, 7, 8}) {
    SCOPED_TRACE(threads);
    SetThreadCount(threads);
    obs::Reset();
    const PacketSimResult sharded = RunPacketSim(net->Network(), routes, config);
    ExpectSameResult(sharded, serial);
    // Non-perturbing: identical to the recorder-off run (breakdown aside).
    EXPECT_EQ(sharded.delivered, dark.delivered);
    EXPECT_EQ(sharded.dropped, dark.dropped);
    ExpectSameSamples(sharded.latency, dark.latency);
    const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
    ASSERT_EQ(runs.size(), 1u);
    ExpectSameRecords(runs[0], serial_runs[0]);
  }
}

TEST_F(PacketSimParallelTest, MidRunFaultsMatchSerialReferenceOnEveryShard) {
  // A mid-run schedule with a kill, degrades, restores and a node kill on
  // the busiest edge of each quarter of the edge range, so at 2, 3 and 7
  // threads the ops land on links of different members. The sharded engine
  // advances each link's capacity ops from that link's own cursor, the
  // serial loop from one time-ordered cursor; they must agree byte for
  // byte, recorder off and on.
  PacketSimConfig config;
  config.offered_load = 0.7;
  config.duration = 240;
  config.warmup = 30;
  config.queue_capacity = 6;
  const std::unique_ptr<topo::Topology> net =
      topo::MakeTopology("abccc:n=4,k=2,c=3");
  const Graph& g = net->Network();
  const std::vector<Route> routes = PermutationRoutes(*net, 0x6004);
  std::vector<std::uint32_t> flows(g.EdgeCount(), 0);
  for (const Route& route : routes) {
    for (const std::uint64_t link : routing::RouteDirectedLinks(g, route)) {
      ++flows[link / 2];
    }
  }
  std::array<graph::EdgeId, 4> busiest{};
  for (std::size_t q = 0; q < busiest.size(); ++q) {
    const auto first = flows.begin() +
                       static_cast<std::ptrdiff_t>(q * flows.size() / 4);
    const auto last = flows.begin() +
                      static_cast<std::ptrdiff_t>((q + 1) * flows.size() / 4);
    busiest[q] = static_cast<graph::EdgeId>(
        std::max_element(first, last) - flows.begin());
    ASSERT_GT(flows[static_cast<std::size_t>(busiest[q])], 0u);
  }
  const std::size_t link_count = 2 * g.EdgeCount();
  for (const std::size_t threads : {2u, 3u, 7u}) {
    // The engine's block partition: link L belongs to L * team / links.
    EXPECT_NE(2 * static_cast<std::size_t>(busiest[0]) * threads / link_count,
              2 * static_cast<std::size_t>(busiest[3]) * threads / link_count);
  }

  // Kill busiest[0] exactly at the instant a packet joins it in the
  // fault-free run, before every other op: that enqueue must already see
  // the kill (the serial loop's `time <= now` rule).
  flight::Config fc;
  fc.sample_rate = 1.0;
  fc.latency_breakdown = true;
  flight::Enable(fc);
  SetThreadCount(1);
  const PacketSimResult fault_free = RunPacketSimSerial(g, routes, config);
  // The earliest hop onto `edge` at or after `from` (accepted ones only
  // when asked).
  const auto enqueue_onto = [&](const flight::RunSnapshot& run,
                                graph::EdgeId edge, double from,
                                bool accepted_only) {
    const flight::HopRecord* found = nullptr;
    for (const flight::PacketRecord& packet : run.packets) {
      for (const flight::HopRecord& hop : packet.hops) {
        if (hop.link / 2 == static_cast<std::uint64_t>(edge) &&
            hop.enqueue >= from && !(accepted_only && hop.dropped) &&
            (found == nullptr || hop.enqueue < found->enqueue)) {
          found = &hop;
        }
      }
    }
    return found;
  };
  double kill_at = 0.0;
  {
    const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
    ASSERT_EQ(runs.size(), 1u);
    const flight::HopRecord* hop =
        enqueue_onto(runs[0], busiest[0], 60.0, true);
    ASSERT_NE(hop, nullptr);
    kill_at = hop->enqueue;
  }
  ASSERT_LT(kill_at, 90.0);
  const graph::NodeId kill_node = [&] {
    const auto [u, v] = g.Endpoints(busiest[3]);
    return g.IsSwitch(u) ? u : v;
  }();
  config.faults.KillLink(kill_at, busiest[0])
      .DegradeLink(90.0, busiest[1], 1)
      .DegradeLink(110.0, busiest[2], 0)
      .RestoreLink(110.0, busiest[2])  // same instant: the later entry wins
      .KillNode(120.0, kill_node)
      .RestoreLink(150.0, busiest[0])
      .RestoreLink(170.0, busiest[1]);

  for (const bool recorder : {false, true}) {
    SCOPED_TRACE(recorder);
    if (recorder) {
      flight::Enable(fc);
    } else {
      flight::Disable();
    }
    SetThreadCount(1);
    obs::Reset();
    const PacketSimResult serial = RunPacketSimSerial(g, routes, config);
    const ObsReadout serial_obs = TakeObsReadout();
    EXPECT_GT(serial.dropped, fault_free.dropped);
    std::vector<flight::RunSnapshot> serial_runs;
    if (recorder) {
      serial_runs = flight::TakeRunsSnapshot();
      ASSERT_EQ(serial_runs.size(), 1u);
      const flight::HopRecord* hop =
          enqueue_onto(serial_runs[0], busiest[0], kill_at, false);
      ASSERT_NE(hop, nullptr);
      EXPECT_EQ(hop->enqueue, kill_at);
      EXPECT_TRUE(hop->dropped);
    }
    for (int threads : {2, 3, 7}) {
      SCOPED_TRACE(threads);
      SetThreadCount(threads);
      obs::Reset();
      ExpectSameResult(RunPacketSim(g, routes, config), serial);
      ExpectSameObs(TakeObsReadout(), serial_obs);
      if (recorder) {
        const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
        ASSERT_EQ(runs.size(), 1u);
        ExpectSameRecords(runs[0], serial_runs[0]);
      }
    }
  }
}

TEST_F(PacketSimParallelTest, LinkQueuesPassIndependentFifoOracle) {
  PacketSimConfig config;
  config.offered_load = 0.7;  // congested enough to fill queues and drop
  config.duration = 300;
  config.warmup = 50;
  config.queue_capacity = 4;
  const std::unique_ptr<topo::Topology> net =
      topo::MakeTopology("abccc:n=3,k=1,c=2");
  const std::vector<Route> routes = PermutationRoutes(*net, 20260806);
  flight::Config fc;
  fc.sample_rate = 1.0;
  flight::Enable(fc);

  const auto audit = [&](const PacketSimResult& result) {
    const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
    ASSERT_EQ(runs.size(), 1u);
    ASSERT_EQ(runs[0].sampling_skipped, 0u);
    ASSERT_EQ(runs[0].packets.size(), result.generated);
    const FifoAudit fifo = AuditLinkQueues(runs[0], config.queue_capacity);
    EXPECT_EQ(fifo.violations, 0u) << fifo.first;
    // Not vacuous: many links, thousands of hops, and the drop-tail rule hit.
    EXPECT_GT(fifo.links, 30u);
    EXPECT_GT(fifo.hops, 10000u);
    EXPECT_GT(fifo.drops, 1000u);
  };

  SetThreadCount(1);
  obs::Reset();
  audit(RunPacketSimSerial(net->Network(), routes, config));
  for (int threads : {1, 3, 7}) {
    SCOPED_TRACE(threads);
    SetThreadCount(threads);
    obs::Reset();
    audit(RunPacketSim(net->Network(), routes, config));
  }
}

TEST_F(PacketSimParallelTest, RandomGraphsMatchSerialReference) {
  // Random connected server/switch graphs with BFS routes — no topology
  // family structure to lean on.
  for (std::uint64_t graph_seed : {11u, 29u, 47u}) {
    SCOPED_TRACE(graph_seed);
    Rng rng{graph_seed};
    Graph g;
    constexpr std::size_t kSwitches = 12;
    constexpr std::size_t kServers = 16;
    for (std::size_t i = 0; i < kSwitches; ++i) g.AddNode(NodeKind::kSwitch);
    for (std::size_t s = 0; s < kSwitches; ++s) {
      g.AddEdge(static_cast<graph::NodeId>(s),
                static_cast<graph::NodeId>((s + 1) % kSwitches));  // ring
    }
    for (std::size_t c = 0; c < kSwitches; ++c) {  // random chords
      const auto u = static_cast<graph::NodeId>(rng.NextUint64(kSwitches));
      const auto v = static_cast<graph::NodeId>(rng.NextUint64(kSwitches));
      if (u != v) g.AddEdge(u, v);
    }
    std::vector<graph::NodeId> servers;
    for (std::size_t i = 0; i < kServers; ++i) {
      const graph::NodeId server = g.AddNode(NodeKind::kServer);
      g.AddEdge(server, static_cast<graph::NodeId>(rng.NextUint64(kSwitches)));
      servers.push_back(server);
    }
    std::vector<Route> routes;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const graph::NodeId dst = servers[(i + 5) % servers.size()];
      if (servers[i] == dst) continue;
      Route route{graph::ShortestPath(g, servers[i], dst)};
      if (!route.Empty()) routes.push_back(std::move(route));
    }
    ASSERT_GE(routes.size(), 4u);

    PacketSimConfig config;
    config.offered_load = 0.9;
    config.duration = 180;
    config.warmup = 20;
    config.queue_capacity = 6;
    SetThreadCount(1);
    const PacketSimResult serial = RunPacketSimSerial(g, routes, config);
    for (int threads : {2, 3, 7}) {
      SCOPED_TRACE(threads);
      SetThreadCount(threads);
      ExpectSameResult(RunPacketSim(g, routes, config), serial);
    }
  }
}

TEST_F(PacketSimParallelTest, SeededFuzzOverTopologyLoadFailuresAndShards) {
  // Randomized sweep over (topology, load, failure set, mid-run fault
  // schedule, shard count). Routes are shortest live paths around the killed
  // edges; the sharded engine must agree with the serial reference
  // byte-for-byte, and with itself across repeat runs (documented tie-break
  // order, not luck).
  const std::vector<std::string> specs = {"abccc:n=4,k=2,c=3", "bcube:n=4,k=2",
                                          "dcell:n=4,k=1"};
  const double loads[] = {0.3, 0.7, 1.2};
  const int shard_counts[] = {2, 3, 5, 7};
  Rng fuzz{0xfadedcab};
  for (int iter = 0; iter < 8; ++iter) {
    SCOPED_TRACE(iter);
    const std::unique_ptr<topo::Topology> net =
        topo::MakeTopology(specs[iter % specs.size()]);
    const Graph& g = net->Network();
    graph::FailureSet failures{g};
    const std::size_t kills = fuzz.NextUint64(4);
    for (std::size_t k = 0; k < kills; ++k) {
      failures.KillEdge(static_cast<graph::EdgeId>(fuzz.NextUint64(g.EdgeCount())));
    }
    Rng traffic{fuzz.NextUint64(~0ull)};
    const std::vector<Flow> flows = PermutationTraffic(*net, traffic);
    std::vector<Route> routes;
    for (const Flow& flow : flows) {
      Route route{graph::ShortestPath(g, flow.src, flow.dst, &failures)};
      if (!route.Empty()) routes.push_back(std::move(route));
    }
    if (routes.size() < 4) continue;  // fuzz disconnected too much

    PacketSimConfig config;
    config.offered_load = loads[iter % 3];
    config.duration = 120;
    config.warmup = 25;
    config.queue_capacity = 1 + static_cast<int>(fuzz.NextUint64(8));
    config.seed = fuzz.NextUint64(~0ull);
    // A random mid-run fault schedule, drawn from its own stream so that the
    // fuzz's other draws do not depend on it: kills, degrades, restores and
    // node kills at random times, a quarter of them at the same instant as
    // the op before.
    Rng chaos{config.seed ^ 0xfa175eedull};
    const std::size_t fault_count = chaos.NextUint64(9);
    double at = 0.0;
    for (std::size_t f = 0; f < fault_count; ++f) {
      if (chaos.NextUint64(4) != 0) at = chaos.NextDouble() * config.duration;
      const auto edge =
          static_cast<graph::EdgeId>(chaos.NextUint64(g.EdgeCount()));
      switch (chaos.NextUint64(4)) {
        case 0:
          config.faults.KillLink(at, edge);
          break;
        case 1:
          config.faults.DegradeLink(
              at, edge,
              static_cast<int>(chaos.NextUint64(
                  static_cast<std::uint64_t>(config.queue_capacity) + 1)));
          break;
        case 2:
          config.faults.RestoreLink(at, edge);
          break;
        default:
          config.faults.KillNode(
              at, static_cast<graph::NodeId>(chaos.NextUint64(g.NodeCount())));
          break;
      }
    }

    SetThreadCount(1);
    const PacketSimResult serial = RunPacketSimSerial(g, routes, config);
    const int threads = shard_counts[iter % 4];
    SetThreadCount(threads);
    const PacketSimResult first = RunPacketSim(g, routes, config);
    ExpectSameResult(first, serial);
    // Re-run at the same shard count: the order is fixed, not incidental.
    ExpectSameResult(RunPacketSim(g, routes, config), serial);
  }
}

TEST_F(PacketSimParallelTest, ZeroDelayPingPongHandoffsResolveDeterministically) {
  // Two servers joined by two parallel links, each source bouncing packets
  // over and back: every depart hands off to the reverse link at the very
  // same timestamp, and at load 1.0 the two directions contend for full
  // queues — maximal same-instant cross-shard traffic. The documented order
  // (depart before its own handoff, links by id) must make every thread
  // count agree with the serial reference.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kServer);  // 1
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);  // parallel edge: 0->1->0 stays link-simple
  const std::vector<Route> routes = {Route{{0, 1, 0}}, Route{{1, 0, 1}}};
  PacketSimConfig config;
  config.offered_load = 1.0;
  config.duration = 400;
  config.warmup = 50;
  config.queue_capacity = 2;
  SetThreadCount(1);
  const PacketSimResult serial = RunPacketSimSerial(g, routes, config);
  EXPECT_GT(serial.dropped, 0u);  // ties decide who drops; order must be fixed
  for (int threads : {1, 2, 3, 7}) {
    SCOPED_TRACE(threads);
    SetThreadCount(threads);
    ExpectSameResult(RunPacketSim(g, routes, config), serial);
  }
}

TEST_F(PacketSimParallelTest, EmptyTrafficRunMatchesAndCountsSourceRetirement) {
  // A load so low that no source fires inside the window: zero packets, but
  // the serial loop still pops one retirement event per source — the sharded
  // engine must report the identical event count and empty statistics.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kSwitch);  // 1
  g.AddNode(NodeKind::kServer);  // 2
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const std::vector<Route> routes = {Route{{0, 1, 2}}, Route{{2, 1, 0}}};
  PacketSimConfig config;
  config.offered_load = 1e-9;
  config.duration = 10;
  config.warmup = 1;
  SetThreadCount(1);
  obs::Reset();
  const PacketSimResult serial = RunPacketSimSerial(g, routes, config);
  const ObsReadout serial_obs = TakeObsReadout();
  ASSERT_EQ(serial.generated, 0u);
  EXPECT_EQ(serial.latency.Count(), 0u);
  EXPECT_EQ(serial_obs.events, routes.size());  // one retirement pop each
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    SetThreadCount(threads);
    obs::Reset();
    ExpectSameResult(RunPacketSim(g, routes, config), serial);
    ExpectSameObs(TakeObsReadout(), serial_obs);
  }
  // Recorder on over an empty run: still identical, still zero records.
  flight::Config fc;
  fc.sample_rate = 1.0;
  fc.latency_breakdown = true;
  flight::Enable(fc);
  obs::Reset();
  SetThreadCount(3);
  const PacketSimResult lit = RunPacketSim(g, routes, config);
  EXPECT_EQ(lit.generated, 0u);
  EXPECT_TRUE(lit.breakdown.enabled);
  EXPECT_EQ(lit.breakdown.total.Count(), 0u);
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].packets.empty());
}

TEST_F(PacketSimParallelTest, MultipathSprayMatchesSerialUnderBothPolicies) {
  const std::unique_ptr<topo::Topology> net =
      topo::MakeTopology("bcube:n=4,k=2");
  Rng rng{0x6003};
  const std::vector<Flow> flows = PermutationTraffic(*net, rng);
  // Two candidate routes per source: the native route and a BFS route.
  std::vector<std::vector<Route>> candidates;
  for (const Flow& flow : flows) {
    std::vector<Route> set;
    set.push_back(Route{net->Route(flow.src, flow.dst)});
    Route bfs{graph::ShortestPath(net->Network(), flow.src, flow.dst)};
    if (!bfs.Empty()) set.push_back(std::move(bfs));
    candidates.push_back(std::move(set));
  }
  PacketSimConfig config;
  config.offered_load = 0.8;
  config.duration = 150;
  config.warmup = 30;
  for (const SprayPolicy policy :
       {SprayPolicy::kRoundRobin, SprayPolicy::kRandomPerPacket}) {
    SCOPED_TRACE(static_cast<int>(policy));
    SetThreadCount(1);
    const PacketSimResult serial = RunPacketSimMultipathSerial(
        net->Network(), candidates, config, policy);
    for (int threads : {1, 3, 7}) {
      SCOPED_TRACE(threads);
      SetThreadCount(threads);
      ExpectSameResult(
          RunPacketSimMultipath(net->Network(), candidates, config, policy),
          serial);
    }
  }
}

}  // namespace
}  // namespace dcn::sim
