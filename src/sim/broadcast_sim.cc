#include "sim/broadcast_sim.h"

#include <algorithm>
#include <array>
#include <deque>
#include <queue>
#include <string>
#include <unordered_map>

#include "common/error.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/rollup.h"
#include "obs/sketch.h"
#include "routing/route.h"

namespace dcn::sim {

namespace flight = obs::flight;

namespace {

constexpr double kServiceTime = 1.0;

// A copy in flight: message id, destination server, and its 2-link segment
// (parent -> via -> child), expressed as directed link ids.
struct Copy {
  std::uint32_t message = 0;
  graph::NodeId child = graph::kInvalidNode;
  std::uint64_t first_link = 0;   // parent -> via
  std::uint64_t second_link = 0;  // via -> child
  std::uint8_t hop = 0;           // 0 or 1
  // Flight-recorder record index; sampling is per copy (pool index), with
  // the message id carried as the record's source field.
  std::uint32_t rec = flight::Recorder::kNotSampled;
};

struct MessageState {
  double born = 0.0;
  bool measured = false;
  std::uint32_t outstanding = 0;  // deliveries still pending (incl. queued)
  double last_delivery = 0.0;
  bool dropped_any = false;
};

enum class EventKind : std::uint8_t { kGenerate, kDepart };

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kGenerate;
  std::uint64_t payload = 0;  // directed link id for kDepart
  std::uint64_t seq = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct LinkQueue {
  std::deque<std::uint32_t> copies;  // indices into the copy pool
  std::uint64_t transmitted = 0;
};

std::uint64_t DirectedLink(const graph::CsrView& csr, graph::NodeId from,
                           graph::NodeId to) {
  const graph::EdgeId edge = csr.FindEdge(from, to);
  DCN_REQUIRE(edge != graph::kInvalidEdge,
              "broadcast tree edge missing from the graph");
  const auto [u, v] = csr.Endpoints(edge);
  return static_cast<std::uint64_t>(edge) * 2 + (from == u ? 0 : 1);
}

}  // namespace

BroadcastSimResult RunBroadcastSim(const graph::Graph& graph,
                                   const routing::SpanningTree& tree,
                                   const BroadcastSimConfig& config) {
  DCN_REQUIRE(config.message_rate > 0, "message_rate must be positive");
  DCN_REQUIRE(config.duration > config.warmup && config.warmup >= 0,
              "need 0 <= warmup < duration");
  DCN_REQUIRE(config.queue_capacity >= 1, "queue capacity must be >= 1");
  DCN_REQUIRE(tree.CoveredCount() >= 2, "broadcast tree covers nothing");

  // children[s]: tree children of server s, with precomputed link segments.
  struct ChildSegment {
    graph::NodeId child;
    std::uint64_t first_link;
    std::uint64_t second_link;
  };
  std::unordered_map<graph::NodeId, std::vector<ChildSegment>> children;
  std::uint32_t receivers = 0;
  const graph::CsrView& csr = graph.Csr();
  for (graph::NodeId server = 0;
       static_cast<std::size_t>(server) < tree.parent.size(); ++server) {
    if (tree.parent[server] == graph::kInvalidNode) continue;
    DCN_REQUIRE(tree.via[server] != graph::kInvalidNode,
                "broadcast sim requires switch-relayed tree edges");
    children[tree.parent[server]].push_back(
        ChildSegment{server, DirectedLink(csr, tree.parent[server], tree.via[server]),
                     DirectedLink(csr, tree.via[server], server)});
    ++receivers;
  }
  DCN_ASSERT(receivers + 1 == tree.CoveredCount());

  std::vector<LinkQueue> links(graph.EdgeCount() * 2);
  std::vector<Copy> pool;
  std::vector<MessageState> messages;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  std::uint64_t seq = 0;
  Rng rng{config.seed};
  BroadcastSimResult result;

  // Mid-run faults + online monitor (sim/failures.h, obs/monitor.h): same
  // drain-then-dead capacity semantics and obs::WindowOf window attribution
  // as sim/packetsim.cc. Neither touches `rng`.
  const std::size_t link_count = graph.EdgeCount() * 2;
  const std::vector<LinkCapOp> fault_ops =
      config.faults.Empty()
          ? std::vector<LinkCapOp>{}
          : ExpandFaultSchedule(graph, config.faults, config.queue_capacity);
  std::vector<std::int32_t> caps;
  if (!fault_ops.empty()) caps.assign(link_count, config.queue_capacity);
  std::size_t fault_cursor = 0;
  LinkHealthHarness mon(graph, link_count, config.monitor, config.duration);

  // Flight recorder: observes copies (the unit that queues on links), never
  // draws from `rng` — byte-identical results with the recorder on or off.
  flight::RunScope flight_run{
      "broadcast", config.duration, graph.EdgeCount() * 2,
      [&csr](std::uint64_t link) {
        const auto [u, v] = csr.Endpoints(static_cast<graph::EdgeId>(link / 2));
        return link % 2 == 0 ? std::to_string(u) + "->" + std::to_string(v)
                             : std::to_string(v) + "->" + std::to_string(u);
      }};
  flight::Recorder* const fr = flight_run.recorder();
  const bool fr_sample = fr != nullptr && fr->SamplingOn();
  const bool fr_ts = fr != nullptr && fr->TimeSeriesOn();
  std::int64_t fr_in_flight = 0;
  std::uint64_t obs_deliveries = 0;
  std::uint64_t obs_drops = 0;
  // Local telemetry accumulators (obs/sketch.h); the event loop only pays
  // integer bucket increments and the registry merge happens once, post-run,
  // from this thread.
  obs::QuantileSketch delivery_sketch;
  obs::QuantileSketch completion_sketch;

  auto schedule = [&](double time, EventKind kind, std::uint64_t payload) {
    events.push(Event{time, kind, payload, seq++});
  };

  auto enqueue = [&](std::uint32_t copy_id, std::uint64_t link, double now) {
    LinkQueue& q = links[link];
    const std::int32_t cap = caps.empty() ? config.queue_capacity : caps[link];
    if (static_cast<int>(q.copies.size()) >= cap) {
      MessageState& message = messages[pool[copy_id].message];
      message.dropped_any = true;
      --message.outstanding;
      if (message.measured) ++result.copies_dropped;
      ++obs_drops;
      if (mon.on()) mon.CountDrop(mon.WindowIndex(now), link);
      if (fr_sample) fr->PacketDropped(pool[copy_id].rec, link, now);
      if (fr_ts) fr->InFlight(now, --fr_in_flight);
      return;
    }
    q.copies.push_back(copy_id);
    result.max_queue_depth =
        std::max(result.max_queue_depth, static_cast<int>(q.copies.size()));
    const bool service_now = q.copies.size() == 1;
    if (fr_ts) fr->LinkQueueDepth(link, now, static_cast<int>(q.copies.size()));
    if (fr_sample) fr->HopEnqueue(pool[copy_id].rec, link, now, service_now);
    if (service_now) {
      schedule(now + kServiceTime, EventKind::kDepart, link);
    }
  };

  // A server holds the message: replicate to its children.
  auto replicate = [&](std::uint32_t message_id, graph::NodeId holder, double now) {
    const auto it = children.find(holder);
    if (it == children.end()) return;
    for (const ChildSegment& segment : it->second) {
      const auto copy_id = static_cast<std::uint32_t>(pool.size());
      Copy copy{message_id, segment.child, segment.first_link,
                segment.second_link, 0};
      if (fr_sample) {
        copy.rec = fr->PacketBorn(copy_id, message_id, now,
                                  messages[message_id].measured);
      }
      pool.push_back(copy);
      if (fr_ts) fr->InFlight(now, ++fr_in_flight);
      enqueue(copy_id, segment.first_link, now);
    }
  };

  schedule(rng.NextExponential(config.message_rate), EventKind::kGenerate, 0);

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    const double now = event.time;
    while (fault_cursor < fault_ops.size() &&
           fault_ops[fault_cursor].time <= now) {
      caps[fault_ops[fault_cursor].link] = fault_ops[fault_cursor].capacity;
      ++fault_cursor;
    }
    if (mon.on()) mon.AdvanceTo(mon.WindowIndex(now));

    if (event.kind == EventKind::kGenerate) {
      if (now < config.duration) {
        const auto message_id = static_cast<std::uint32_t>(messages.size());
        messages.push_back(
            MessageState{now, now >= config.warmup, receivers, now, false});
        ++result.messages;
        if (messages.back().measured) ++result.measured;
        replicate(message_id, tree.root, now);
        schedule(now + rng.NextExponential(config.message_rate),
                 EventKind::kGenerate, 0);
      }
      continue;
    }

    LinkQueue& q = links[event.payload];
    DCN_ASSERT(!q.copies.empty());
    const std::uint32_t copy_id = q.copies.front();
    q.copies.pop_front();
    ++q.transmitted;
    if (mon.on()) mon.CountTx(mon.WindowIndex(now), event.payload);
    if (fr_ts) fr->LinkTransmit(event.payload, now);
    if (fr_sample) fr->HopDepart(pool[copy_id].rec, now);
    if (!q.copies.empty()) {
      schedule(now + kServiceTime, EventKind::kDepart, event.payload);
      if (fr_sample) fr->HopServiceStart(pool[q.copies.front()].rec, now);
    }

    Copy& copy = pool[copy_id];
    if (copy.hop == 0) {
      copy.hop = 1;
      enqueue(copy_id, copy.second_link, now);
      continue;
    }
    // Delivered to copy.child.
    ++obs_deliveries;
    if (fr_sample) fr->PacketDelivered(copy.rec, now);
    if (fr_ts) fr->InFlight(now, --fr_in_flight);
    MessageState& message = messages[copy.message];
    --message.outstanding;
    message.last_delivery = now;
    if (message.measured) {
      result.delivery_latency.Add(now - message.born);
      delivery_sketch.Add(now - message.born);
      if (mon.on()) mon.AddDelivery(now, now - message.born);
      if (message.outstanding == 0 && !message.dropped_any) {
        ++result.complete;
        result.completion_latency.Add(now - message.born);
        completion_sketch.Add(now - message.born);
      }
    }
    replicate(copy.message, copy.child, now);
  }

  double busiest = 0.0;
  for (const LinkQueue& q : links) {
    if (q.transmitted == 0) continue;
    busiest = std::max(busiest, static_cast<double>(q.transmitted) * kServiceTime /
                                    config.duration);
  }
  result.max_link_utilization = busiest;

  // Exact counts determined by (graph, tree, config): the merged obs readout
  // is as reproducible as the simulation.
  static obs::Counter& c_runs = obs::GetCounter("broadcast/runs");
  static obs::Counter& c_messages = obs::GetCounter("broadcast/messages");
  static obs::Counter& c_deliveries = obs::GetCounter("broadcast/deliveries");
  static obs::Counter& c_drops = obs::GetCounter("broadcast/copies_dropped");
  c_runs.Add(1);
  c_messages.Add(result.messages);
  c_deliveries.Add(obs_deliveries);
  c_drops.Add(obs_drops);

  // Bounded telemetry: latency sketches plus per-link transmit summaries
  // (hot links / hot relays and the link->node->tier->fabric rollup), all
  // exact functions of the run and merged from this one thread (the
  // heavy-hitter determinism contract in obs/sketch.h).
  constexpr std::size_t kTopK = 16;
  obs::HeavyHitters hot_links{kTopK};
  obs::HeavyHitters hot_switches{kTopK};
  obs::Rollup link_rollup = obs::MakeLinkRollup();
  for (std::size_t link = 0; link < links.size(); ++link) {
    const std::uint64_t tx = links[link].transmitted;
    if (tx == 0) continue;
    const auto [u, v] = csr.Endpoints(static_cast<graph::EdgeId>(link / 2));
    const graph::NodeId tail = link % 2 == 0 ? u : v;  // the transmitter
    const std::int64_t tier = csr.IsSwitch(tail) ? 1 : 0;
    hot_links.Add(static_cast<std::int64_t>(link), tx);
    if (tier == 1) hot_switches.Add(static_cast<std::int64_t>(tail), tx);
    const std::array<std::int64_t, 4> groups{static_cast<std::int64_t>(link),
                                             static_cast<std::int64_t>(tail),
                                             tier, 0};
    link_rollup.Add(groups, static_cast<std::int64_t>(tx));
  }
  static obs::SketchMetric& s_delivery =
      obs::GetQuantileSketch("broadcast/delivery_latency");
  static obs::SketchMetric& s_completion =
      obs::GetQuantileSketch("broadcast/completion_latency");
  static obs::HeavyHittersMetric& h_links =
      obs::GetHeavyHitters("broadcast/hot_links", kTopK);
  static obs::HeavyHittersMetric& h_switches =
      obs::GetHeavyHitters("broadcast/hot_switches", kTopK);
  static obs::RollupMetric& r_links =
      obs::GetRollup("broadcast/links", obs::LinkRollupLevels());
  s_delivery.Merge(delivery_sketch);
  s_completion.Merge(completion_sketch);
  h_links.Merge(hot_links);
  h_switches.Merge(hot_switches);
  r_links.Merge(link_rollup);
  if (mon.on()) {
    result.monitor = mon.Finish();
    obs::monitor::PublishRun("broadcast", config.faults.events.size(),
                             result.monitor);
  }
  return result;
}

}  // namespace dcn::sim
