// Packet-level discrete-event simulator.
//
// Store-and-forward, FIFO output queues per directed link, unit service time
// per packet per link (time is measured in packet transmission times),
// drop-tail when a queue is full. Sources emit Poisson traffic along fixed,
// precomputed routes. This complements the flow-level model: it exposes
// queueing latency and loss vs offered load (experiment F9), which max-min
// fairness abstracts away.
//
// Determinism contract (see DESIGN.md "Sharded packet simulator"):
// simultaneous events are ordered by a STABLE KEY, not by scheduling order —
// the directed-link id for departs (at most one pending depart per link) and
// link_count + source for generate events (at most one pending per source).
// A forwarded arrival executes inside its parent depart event, i.e. at the
// parent's (time, key) position; a depart precedes the arrival it hands off.
// Simultaneous timestamps are COMMON under congestion (service completions
// are birth times plus integer counts of the unit service time, so queueing
// chains synchronize), which is why the contract is spelled out: every entry
// point below pops the identical (time, key) total order, so RunPacketSim
// (sharded, conservative-lookahead windows of one service time between
// barriers) and RunPacketSimSerial (reference event loop) are byte-identical
// to each other at any DCN_THREADS setting, with the flight recorder on or
// off.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "graph/graph.h"
#include "obs/flight.h"
#include "obs/monitor.h"
#include "obs/rollup.h"
#include "obs/sketch.h"
#include "routing/route.h"
#include "sim/failures.h"

namespace dcn::sim {

struct PacketSimConfig {
  // Packets per time unit injected by EACH route's source. 1.0 saturates a
  // source NIC.
  double offered_load = 0.5;
  double duration = 1000.0;  // generation window, in packet service times
  double warmup = 200.0;     // packets born before this are not measured
  int queue_capacity = 16;   // packets per directed-link queue (incl. in service)
  std::uint64_t seed = 0xdcf1035;
  // Mid-run fault schedule (sim/failures.h): capacity changes applied in
  // event-time order by every engine. Faults never touch the injection RNG,
  // so an empty schedule leaves the run byte-identical to one without fault
  // support; drain-then-dead semantics (capacity checked at enqueue only).
  FaultSchedule faults;
  // Online health monitor (obs/monitor.h). When enabled, per-directed-link
  // "tx"/"drops" windows feed integer EWMA/CUSUM detectors during the run;
  // the alert log lands in PacketSimResult::monitor and on the run's record
  // in the run store (obs/flight.h) for --alerts-json / trace export. Purely
  // observational: the packet event order and every pre-existing result
  // field are byte-identical with the monitor on or off.
  obs::monitor::MonitorConfig monitor;
};

// Always-on bounded telemetry (obs/sketch.h, obs/rollup.h), computed by
// every engine at the same merge points: the sketches fill in the serial
// engine's delivery order (their integer bucket merges are commutative
// anyway), the per-element summaries from the exact post-run per-link
// transmit and per-route delivery counts. Byte-identical across
// RunPacketSim / RunPacketSimSerial and at any DCN_THREADS, with or without
// any flight-recorder flag. O(buckets + K) export however much traffic ran.
struct PacketTelemetry {
  static constexpr std::size_t kTopK = 16;
  obs::QuantileSketch latency;   // end-to-end, measured delivered packets
  // latency / (hops * service time): 1.0 is an uncongested path, the
  // packet-level analogue of FCT slowdown.
  obs::QuantileSketch slowdown;
  obs::HeavyHitters hot_links{kTopK};      // packets transmitted per directed link
  obs::HeavyHitters hot_switches{kTopK};   // ... per transmitting switch
  obs::HeavyHitters elephant_flows{kTopK}; // measured deliveries per route
  // Transmit counts aggregated link -> transmitting node -> tier
  // (0 server, 1 switch) -> fabric.
  obs::Rollup links = obs::MakeLinkRollup();
};

struct PacketSimResult {
  std::uint64_t generated = 0;
  std::uint64_t measured = 0;   // generated after warmup
  std::uint64_t delivered = 0;  // of the measured packets
  std::uint64_t dropped = 0;    // of the measured packets
  SampleSet latency;            // end-to-end, measured packets only
  // Busiest directed link: packets it transmitted divided by the generation
  // window (can slightly exceed 1.0 because queued packets drain after the
  // window closes).
  double max_link_utilization = 0.0;
  // Mean over directed links that carried at least one packet.
  double mean_link_utilization = 0.0;
  // Deepest any output queue ever got (including the packet in service).
  int max_queue_depth = 0;
  // Queueing vs serialization decomposition over every delivered measured
  // packet. Populated only when the flight recorder's latency breakdown is
  // on (obs/flight.h, --latency-breakdown); enabled == false otherwise.
  obs::flight::LatencyBreakdown breakdown;
  // Bounded sketches/heavy hitters/rollups; always populated, also merged
  // into the obs registry ("packetsim/latency", "packetsim/hot_links", ...).
  PacketTelemetry telemetry;
  // Online-monitor verdicts (alert log, per-window recovery aggregates).
  // Populated only when config.monitor.enabled; bit-identical at any
  // DCN_THREADS for a fixed config — the acceptance bar for F24.
  obs::monitor::MonitorResult monitor;
  double DeliveredFraction() const {
    return measured == 0 ? 0.0
                         : static_cast<double>(delivered) / static_cast<double>(measured);
  }
};

// Runs the simulation until every generated packet is delivered or dropped.
// Routes must be valid and non-empty; a route of a single hop (src == dst)
// is rejected. This is the sharded engine: directed links are partitioned
// into TeamSize() contiguous blocks that advance window-by-window between
// barriers; the result is byte-identical at any DCN_THREADS (and to
// RunPacketSimSerial). A team of one dispatches straight to the serial loop
// — same bytes, none of the window overhead.
PacketSimResult RunPacketSim(const graph::Graph& graph,
                             const std::vector<routing::Route>& routes,
                             const PacketSimConfig& config = {});

// How a multipath source spreads packets over its candidate routes.
enum class SprayPolicy {
  kRoundRobin,       // cycle deterministically through the candidates
  kRandomPerPacket,  // uniform independent choice per packet
};

// Multipath variant: each source owns a set of candidate routes (e.g. the
// rotations from routing/multipath.h) and sprays packets across them — the
// packet-level counterpart of flow-level load balancing (F11/F14). Every
// candidate set must be non-empty; all routes share their set's source.
PacketSimResult RunPacketSimMultipath(
    const graph::Graph& graph,
    const std::vector<std::vector<routing::Route>>& candidates,
    const PacketSimConfig& config = {},
    SprayPolicy policy = SprayPolicy::kRoundRobin);

// Single-threaded reference event loop (one binary heap popping the
// documented (time, key) order); RunPacketSim runs it for a team of one. The
// differential suite in tests/test_packetsim_parallel.cc pins RunPacketSim
// to this bit-for-bit and holds both to an independent FIFO oracle over the
// recorded per-hop timestamps.
PacketSimResult RunPacketSimSerial(const graph::Graph& graph,
                                   const std::vector<routing::Route>& routes,
                                   const PacketSimConfig& config = {});
PacketSimResult RunPacketSimMultipathSerial(
    const graph::Graph& graph,
    const std::vector<std::vector<routing::Route>>& candidates,
    const PacketSimConfig& config = {},
    SprayPolicy policy = SprayPolicy::kRoundRobin);

}  // namespace dcn::sim
