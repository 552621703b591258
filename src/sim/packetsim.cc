#include "sim/packetsim.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "sim/link_store.h"

namespace dcn::sim {

namespace flight = obs::flight;

namespace {

constexpr double kServiceTime = 1.0;
constexpr double kNever = std::numeric_limits<double>::infinity();

struct Packet {
  std::uint32_t route = 0;
  std::uint32_t hop = 0;  // index into the route's directed-link sequence
  double born = 0.0;
  // Flight-recorder record index; kNotSampled (the overwhelmingly common
  // case) when this packet's lifecycle is not being captured. Lives in what
  // was padding, so the pool's layout is unchanged. Used by the serial
  // engine only; the sharded engine resolves records at replay time.
  std::uint32_t rec = flight::Recorder::kNotSampled;
  bool measured = false;
};

// ---------------------------------------------------------------------------
// Route flattening + config validation, shared by every engine.

struct RoutePlan {
  std::vector<std::vector<std::uint64_t>> route_links;
  std::vector<std::size_t> offset;  // candidates of source s: [offset[s], offset[s+1])
  std::size_t longest_route = 0;
};

RoutePlan FlattenRoutes(const graph::Graph& graph,
                        const std::vector<std::vector<routing::Route>>& candidates,
                        const PacketSimConfig& config) {
  DCN_REQUIRE(config.offered_load > 0, "offered_load must be positive");
  DCN_REQUIRE(config.duration > config.warmup && config.warmup >= 0,
              "need 0 <= warmup < duration");
  DCN_REQUIRE(config.queue_capacity >= 1, "queue capacity must be >= 1");
  DCN_REQUIRE(!candidates.empty(), "packet sim needs at least one source");

  // Flatten every candidate route to its directed-link sequence; sources
  // index their candidates through (offset, count). The CSR view plus shared
  // epoch scratch keeps this setup loop allocation-light even with thousands
  // of candidate routes.
  const graph::CsrView& csr = graph.Csr();
  graph::EpochMarks used_links;
  RoutePlan plan;
  plan.offset.assign(candidates.size() + 1, 0);
  OBS_SPAN("packetsim/setup");
  for (std::size_t source = 0; source < candidates.size(); ++source) {
    DCN_REQUIRE(!candidates[source].empty(),
                "every source needs at least one candidate route");
    for (const routing::Route& route : candidates[source]) {
      DCN_REQUIRE(route.LinkCount() >= 1,
                  "packet sim routes must traverse at least one link");
      DCN_REQUIRE(route.Src() == candidates[source].front().Src(),
                  "a source's candidate routes must share their origin");
      plan.route_links.emplace_back();
      routing::RouteDirectedLinksInto(csr, route, used_links,
                                      plan.route_links.back());
    }
    plan.offset[source + 1] = plan.route_links.size();
  }
  for (const std::vector<std::uint64_t>& links : plan.route_links) {
    plan.longest_route = std::max(plan.longest_route, links.size());
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Injection schedule. Source arrival processes never consume randomness at
// depart events, so the complete injection sequence — birth times, spray
// picks, packet ids — is a pure function of (config, candidates) and can be
// precomputed serially. A mini-heap over sources replays the exact order the
// serial event loop pops generate events in ((time, key) with one pending
// generate per source), so the shared RNG stream is consumed draw-for-draw
// identically and the schedule is byte-identical to the serial engine's.
// The (time, source) pairs are unique, so every min-heap pops them in that
// same order.

// Overwrites the top of a min-heap with `entry` and sifts it down once: one
// pass where a pop and a push would take two.
template <typename T>
void ReplaceTop(std::vector<T>& heap, const T& entry) {
  const std::size_t n = heap.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
    if (!(heap[child] < entry)) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = entry;
}

struct Injection {
  double time = 0.0;
  std::uint32_t source = 0;
  std::uint32_t route = 0;
};

struct InjectionSchedule {
  std::vector<Injection> injections;  // emission order == packet id
  // Every generate-event pop the serial loop would count, including the final
  // past-duration pop that retires each source.
  std::uint64_t generate_events = 0;
};

InjectionSchedule BuildInjections(const RoutePlan& plan, std::size_t sources,
                                  const PacketSimConfig& config,
                                  SprayPolicy policy) {
  OBS_SPAN("packetsim/schedule");
  InjectionSchedule schedule;
  Rng rng{config.seed};
  using Entry = std::pair<double, std::uint32_t>;  // (time, source)
  std::vector<Entry> heap;
  heap.reserve(sources);
  for (std::uint32_t source = 0; source < sources; ++source) {
    heap.push_back({rng.NextExponential(config.offered_load), source});
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<Entry>());
  std::vector<std::size_t> next_candidate(sources, 0);
  while (!heap.empty() && heap.front().first < config.duration) {
    const auto [now, source] = heap.front();
    ++schedule.generate_events;
    const std::size_t span = plan.offset[source + 1] - plan.offset[source];
    std::size_t pick = 0;
    if (span > 1) {
      if (policy == SprayPolicy::kRoundRobin) {
        pick = next_candidate[source];
        next_candidate[source] = (pick + 1) % span;
      } else {
        pick = rng.NextUint64(span);
      }
    }
    schedule.injections.push_back(
        {now, source,
         static_cast<std::uint32_t>(plan.offset[source] + pick)});
    ReplaceTop(heap, Entry{now + rng.NextExponential(config.offered_load),
                           source});
  }
  // The earliest arrival is past `duration`, so every remaining source
  // retires: one pop each, no draw.
  schedule.generate_events += heap.size();
  return schedule;
}

// ---------------------------------------------------------------------------
// Locally accumulated obs statistics, flushed into the sharded registry once
// at the end — the hot event loop stays byte-for-byte the computation it was.

struct ObsLocals {
  std::uint64_t events = 0;
  std::vector<std::uint64_t> queue_depth;  // index: depth after push
  std::vector<std::uint64_t> hops;         // index: delivered hop count
};

// One delivered measured packet into the result sketches. Called at the
// exact same logical point by every engine: inline at delivery in the serial
// loop, and from member 0's (time, key)-merged replay of each window in the
// sharded loop — and since sketch adds are integer bucket increments, the
// readouts are identical either way.
void AddDeliveryTelemetry(PacketTelemetry& telemetry, double latency,
                          std::uint32_t hops) {
  telemetry.latency.Add(latency);
  telemetry.slowdown.Add(latency /
                         (static_cast<double>(hops) * kServiceTime));
}

// Post-run per-element summaries from the exact transmit / delivery counts —
// pure functions of state both engines agree on byte-for-byte.
void FinalizeTelemetry(PacketTelemetry& telemetry, const graph::CsrView& csr,
                       const RingLinkStore& links,
                       const std::vector<std::uint64_t>& flow_delivered) {
  FoldLinkTransmits(csr, links, telemetry.hot_links, telemetry.hot_switches,
                    telemetry.links);
  for (std::size_t route = 0; route < flow_delivered.size(); ++route) {
    if (flow_delivered[route] != 0) {
      telemetry.elephant_flows.Add(static_cast<std::int64_t>(route),
                                   flow_delivered[route]);
    }
  }
}

void FlushObs(const PacketSimResult& result, const ObsLocals& obs) {
  // Every value is an exact count determined by (graph, routes, config), so
  // merged obs readouts are as reproducible as the simulation itself.
  static obs::Counter& c_runs = obs::GetCounter("packetsim/runs");
  static obs::Counter& c_events = obs::GetCounter("packetsim/events");
  static obs::Counter& c_generated = obs::GetCounter("packetsim/generated");
  static obs::Counter& c_delivered = obs::GetCounter("packetsim/delivered");
  static obs::Counter& c_dropped = obs::GetCounter("packetsim/dropped");
  static obs::Gauge& g_depth = obs::GetGauge("packetsim/max_queue_depth");
  static obs::Histogram& h_depth = obs::GetHistogram("packetsim/queue_depth");
  static obs::Histogram& h_hops = obs::GetHistogram("packetsim/hops");
  c_runs.Add(1);
  c_events.Add(obs.events);
  c_generated.Add(result.generated);
  c_delivered.Add(result.delivered);
  c_dropped.Add(result.dropped);
  g_depth.Set(result.max_queue_depth);
  for (std::size_t depth = 0; depth < obs.queue_depth.size(); ++depth) {
    h_depth.Add(static_cast<std::int64_t>(depth), obs.queue_depth[depth]);
  }
  for (std::size_t hops = 0; hops < obs.hops.size(); ++hops) {
    h_hops.Add(static_cast<std::int64_t>(hops), obs.hops[hops]);
  }
  // Telemetry merges run here on the calling thread: sketch/rollup merges are
  // order-free, and feeding the heavy hitters from one thread per run is the
  // determinism contract in obs/sketch.h.
  static obs::SketchMetric& s_latency = obs::GetQuantileSketch("packetsim/latency");
  static obs::SketchMetric& s_slowdown =
      obs::GetQuantileSketch("packetsim/slowdown");
  static obs::HeavyHittersMetric& h_links =
      obs::GetHeavyHitters("packetsim/hot_links", PacketTelemetry::kTopK);
  static obs::HeavyHittersMetric& h_switches =
      obs::GetHeavyHitters("packetsim/hot_switches", PacketTelemetry::kTopK);
  static obs::HeavyHittersMetric& h_flows =
      obs::GetHeavyHitters("packetsim/elephant_flows", PacketTelemetry::kTopK);
  static obs::RollupMetric& r_links =
      obs::GetRollup("packetsim/links", obs::LinkRollupLevels());
  s_latency.Merge(result.telemetry.latency);
  s_slowdown.Merge(result.telemetry.slowdown);
  h_links.Merge(result.telemetry.hot_links);
  h_switches.Merge(result.telemetry.hot_switches);
  h_flows.Merge(result.telemetry.elephant_flows);
  r_links.Merge(result.telemetry.links);
}

// ---------------------------------------------------------------------------
// Serial engine: the reference event loop, and the team-of-one path.

enum class EventKind : std::uint8_t { kGenerate, kDepart };

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kGenerate;
  std::uint64_t payload = 0;  // route source or directed-link index
  // Stable tie-break key (see packetsim.h): the directed link for departs,
  // link_count + source for generates. At most one depart per link and one
  // generate per source is ever pending, so (time, key) is a strict total
  // order over the queue contents — and unlike an arrival sequence number it
  // is a pure function of the event itself, which is what lets the sharded
  // engine reproduce the exact same order.
  std::uint64_t key = 0;
};

// (time, key) descending for std::priority_queue's max-heap convention —
// pops come out (time, key) ascending. (A 4-ary implicit heap was measured
// here and lost to the binary heap: at this simulator's in-flight event
// counts — a few thousand, the whole heap L2-resident — the extra
// min-of-4-children comparisons cost more than the halved sift depth saves.)
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.key > b.key;
  }
};

PacketSimResult RunPacketSimSerialImpl(
    const graph::Graph& graph,
    const std::vector<std::vector<routing::Route>>& candidates,
    const PacketSimConfig& config, SprayPolicy policy) {
  const RoutePlan plan = FlattenRoutes(graph, candidates, config);
  std::vector<std::size_t> next_candidate(candidates.size(), 0);

  const std::size_t link_count = graph.EdgeCount() * 2;
  RingLinkStore links(link_count, config.queue_capacity);
  std::vector<Packet> pool;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  Rng rng{config.seed};
  PacketSimResult result;

  // Mid-run faults: per-directed-link capacity ops applied in time order.
  // Capacity is consulted only at enqueue (drain-then-dead), so an empty
  // schedule leaves every branch below untouched. Faults never draw from
  // `rng`, so the injection stream is identical with or without them.
  const std::vector<LinkCapOp> fault_ops =
      config.faults.Empty()
          ? std::vector<LinkCapOp>{}
          : ExpandFaultSchedule(graph, config.faults, config.queue_capacity);
  std::vector<std::int32_t> caps;
  if (!fault_ops.empty()) caps.assign(link_count, config.queue_capacity);
  std::size_t fault_cursor = 0;

  // Online health monitor (obs/monitor.h): per-link tx/drop counts bucketed
  // into fixed windows by obs::WindowOf — the same attribution rule the
  // sharded engine uses — and stepped at window boundaries. Observational
  // only; inactive unless config.monitor.enabled.
  LinkHealthHarness mon(graph, link_count, config.monitor, config.duration);

  // Flight recorder (obs/flight.h): purely observational. Sampling decisions
  // come from an RNG stream forked off the recorder's own salt — never from
  // `rng` — so results below are byte-identical with the recorder on or off.
  flight::RunScope flight_run{"packetsim", config.duration, link_count,
                              LaneNamer(graph.Csr())};
  flight::Recorder* const fr = flight_run.recorder();
  const bool fr_sample = fr != nullptr && fr->SamplingOn();
  const bool fr_ts = fr != nullptr && fr->TimeSeriesOn();
  const bool fr_bd = fr != nullptr && fr->BreakdownOn();
  std::int64_t fr_in_flight = 0;

  auto schedule = [&](double time, EventKind kind, std::uint64_t payload) {
    const std::uint64_t key =
        kind == EventKind::kDepart ? payload : link_count + payload;
    events.push(Event{time, kind, payload, key});
  };

  ObsLocals obs;
  obs.queue_depth.assign(static_cast<std::size_t>(config.queue_capacity) + 1, 0);
  obs.hops.assign(plan.longest_route + 1, 0);
  std::vector<std::uint64_t> flow_delivered(plan.route_links.size(), 0);

  // On enqueue, a packet either joins the FIFO (starting service if the link
  // was idle) or is dropped.
  auto enqueue = [&](std::uint32_t packet, std::uint64_t link, double now) {
    const std::int32_t cap =
        caps.empty() ? config.queue_capacity : caps[link];
    if (links.Size(link) >= cap) {
      if (pool[packet].measured) ++result.dropped;
      if (mon.on()) mon.CountDrop(mon.WindowIndex(now), link);
      if (fr_sample) fr->PacketDropped(pool[packet].rec, link, now);
      if (fr_ts) fr->InFlight(now, --fr_in_flight);
      return;
    }
    links.Push(link, packet);
    ++obs.queue_depth[static_cast<std::size_t>(links.Size(link))];
    result.max_queue_depth = std::max(result.max_queue_depth, links.Size(link));
    const bool service_now = links.Size(link) == 1;
    if (fr_ts) fr->LinkQueueDepth(link, now, links.Size(link));
    if (fr_sample) fr->HopEnqueue(pool[packet].rec, link, now, service_now);
    if (service_now) {
      schedule(now + kServiceTime, EventKind::kDepart, link);
    }
  };

  // Prime one generator per source; each fires a Poisson stream until
  // `duration`.
  for (std::size_t source = 0; source < candidates.size(); ++source) {
    schedule(rng.NextExponential(config.offered_load), EventKind::kGenerate,
             source);
  }

  OBS_SPAN("packetsim/run");
  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    ++obs.events;
    const double now = event.time;
    while (fault_cursor < fault_ops.size() &&
           fault_ops[fault_cursor].time <= now) {
      caps[fault_ops[fault_cursor].link] = fault_ops[fault_cursor].capacity;
      ++fault_cursor;
    }
    if (mon.on()) mon.AdvanceTo(mon.WindowIndex(now));

    if (event.kind == EventKind::kGenerate) {
      const auto source = static_cast<std::size_t>(event.payload);
      if (now < config.duration) {
        const std::size_t span = plan.offset[source + 1] - plan.offset[source];
        std::size_t pick = 0;
        if (span > 1) {
          if (policy == SprayPolicy::kRoundRobin) {
            pick = next_candidate[source];
            next_candidate[source] = (pick + 1) % span;
          } else {
            pick = rng.NextUint64(span);
          }
        }
        const auto r = static_cast<std::uint32_t>(plan.offset[source] + pick);
        const auto id = static_cast<std::uint32_t>(pool.size());
        Packet packet;
        packet.route = r;
        packet.born = now;
        packet.measured = now >= config.warmup;
        if (fr_sample) {
          packet.rec = fr->PacketBorn(id, static_cast<std::uint32_t>(source),
                                      now, packet.measured);
        }
        pool.push_back(packet);
        ++result.generated;
        if (packet.measured) ++result.measured;
        if (fr_ts) fr->InFlight(now, ++fr_in_flight);
        enqueue(id, plan.route_links[r][0], now);
        schedule(now + rng.NextExponential(config.offered_load),
                 EventKind::kGenerate, source);
      }
      continue;
    }

    // kDepart: the head of this link's queue finished transmission.
    DCN_ASSERT(!links.Empty(event.payload));
    const std::uint32_t id = links.PopFront(event.payload);
    if (mon.on()) mon.CountTx(mon.WindowIndex(now), event.payload);
    if (fr_ts) fr->LinkTransmit(event.payload, now);
    if (fr_sample) fr->HopDepart(pool[id].rec, now);
    if (!links.Empty(event.payload)) {
      schedule(now + kServiceTime, EventKind::kDepart, event.payload);
      if (fr_sample) fr->HopServiceStart(pool[links.Front(event.payload)].rec, now);
    }

    Packet& packet = pool[id];
    ++packet.hop;
    if (packet.hop == plan.route_links[packet.route].size()) {
      ++obs.hops[packet.hop];
      if (packet.measured) {
        ++result.delivered;
        ++flow_delivered[packet.route];
        const double latency = now - packet.born;
        result.latency.Add(latency);
        AddDeliveryTelemetry(result.telemetry, latency, packet.hop);
        if (mon.on()) mon.AddDelivery(now, latency);
        if (fr_bd) fr->Delivery(latency, static_cast<int>(packet.hop));
      }
      if (fr_sample) fr->PacketDelivered(packet.rec, now);
      if (fr_ts) fr->InFlight(now, --fr_in_flight);
    } else {
      enqueue(id, plan.route_links[packet.route][packet.hop], now);
    }
  }

  const LinkUtilization utilization =
      FoldLinkUtilization(links, kServiceTime, config.duration);
  result.max_link_utilization = utilization.max;
  result.mean_link_utilization = utilization.mean;

  DCN_ASSERT(result.delivered + result.dropped <= result.measured);
  if (fr_bd) result.breakdown = fr->Breakdown();
  FinalizeTelemetry(result.telemetry, graph.Csr(), links, flow_delivered);
  FlushObs(result, obs);
  if (mon.on()) {
    result.monitor = mon.Finish();
    flight_run.Publish(result.monitor, config.faults.events.size());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Sharded engine. Directed links are partitioned into contiguous blocks, one
// per team member (links are adjacency-ordered, so a block approximates a
// switch domain). Unit service time is the conservative lookahead: every
// event scheduled from inside the window [w, w+1) lands at or beyond w+1, so
// the window's events across all shards are causally closed, and each window
// costs every member two barrier arrivals:
//
//   Resolve  split my pending departs into this window's and later ones,
//            read each due depart's head packet, and post its handoff to
//            the next link's owner in a per-(member, member) outbox row.
//   -- barrier: every outbox row is final --
//   Apply    group my due departs, the arrivals handed to me and the
//            injections entering at my links by link, then run each link's
//            group in (time, key, kind, id) order.
//   -- barrier: the window is applied --
//   Next     every member computes the next window from `mins` and its own
//            copy of the injection cursor, so all reach the same value;
//            member 0 also replays the finished window's deliveries and
//            flight ops, merged back into the serial engine's order, into
//            the order-sensitive sinks (SampleSet, sketches, monitor,
//            recorder) while the others resolve the next window.
//
// Only each link's order is observable: a link's queue and capacity are
// touched by that link's own events alone, and everything else an event
// writes is an integer tally, a minimum, the state of the packet it carries,
// or a record member 0 re-sorts by a strict total order. So a member runs its
// links in any order, sorting only each link's handful of events, and the
// result is byte-identical for any team size — including 1, which is also
// byte-identical to the serial engine above because it pops the very same
// (time, key) order.

constexpr std::uint8_t kDepartEvent = 0;   // head of `link` finished service
constexpr std::uint8_t kArrivalEvent = 1;  // handoff onto `link`
constexpr std::uint8_t kInjectEvent = 2;   // new packet enters at `link`

struct ShardEvent {
  double time = 0.0;
  // Stable key: the link for departs, the *upstream* link for arrivals (an
  // arrival happens inside its parent depart event), link_count + source for
  // injections.
  std::uint64_t key = 0;
  std::uint64_t link = 0;  // link the event applies to
  std::uint32_t id = 0;    // packet id == injection index
  std::uint8_t kind = kDepartEvent;
};

// The documented processing order: time, then stable key, then kind (a depart
// precedes the arrival it hands off, mirroring the serial engine's inline
// forwarding), then packet id (only reachable when a source emits two packets
// at the exact same instant).
bool EventBefore(const ShardEvent& a, const ShardEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.key != b.key) return a.key < b.key;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.id < b.id;
}

struct PendingDepart {
  double time = 0.0;
  std::uint64_t link = 0;
};

// A delivered measured packet: drives result.latency.Add and the breakdown in
// the serial engine's exact order once merged across members.
struct DeliveryRec {
  double time = 0.0;
  std::uint64_t key = 0;
  double latency = 0.0;
  std::uint32_t hops = 0;
  std::uint32_t route = 0;
};

// Buffered flight-recorder call. `sub` fixes the intra-event call sequence to
// the serial engine's: depart events emit Transmit(0), HopDepart(1),
// ServiceStart(2), Delivered(3), InFlight(4) and their forwarded arrival's
// enqueue ops at 5/6; injections emit Born(0), InFlight(1) and enqueue ops at
// 2/3. The recorder itself is single-threaded and order-sensitive, so members
// only buffer; member 0 replays the (time, key, sub, id) merge.
enum class FlightOpKind : std::uint8_t {
  kBorn,
  kEnqueue,
  kServiceStart,
  kHopDepart,
  kDropped,
  kDelivered,
  kTransmit,
  kQueueDepth,
  kInFlight,
};

struct FlightOp {
  double time = 0.0;
  std::uint64_t key = 0;
  std::uint32_t sub = 0;
  FlightOpKind op = FlightOpKind::kBorn;
  std::uint32_t id = 0;    // packet, where applicable
  std::uint64_t link = 0;  // link (or source for kBorn)
  std::int32_t arg = 0;    // depth / ±in-flight delta / bool flag
};

bool OpBefore(const FlightOp& a, const FlightOp& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.key != b.key) return a.key < b.key;
  if (a.sub != b.sub) return a.sub < b.sub;
  return a.id < b.id;
}

// Per-member state. Members only ever mutate their own block of links, their
// own buffers, and their own outbox row; everything crossing members is
// either read-only for the phase or separated by a barrier.
struct Member {
  // All future departs of my links. From the resolve phase until the
  // window's events are placed, the window's due departs sit at the tail.
  std::vector<PendingDepart> pending;
  std::vector<ShardEvent> events;  // this window's work, grouped by link
  std::vector<std::uint64_t> touched;  // my links with events this window
  std::vector<std::vector<ShardEvent>> outbox;  // by destination member
  std::vector<DeliveryRec> deliveries;
  std::vector<FlightOp> ops;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t handoffs = 0;   // cross-link forwards posted while resolving
  std::uint64_t processed = 0;  // events applied
  int max_depth = 0;
  std::vector<std::uint64_t> depth_hist;
  std::vector<std::uint64_t> hops_hist;
};

PacketSimResult RunPacketSimMultipathSharded(
    const graph::Graph& graph,
    const std::vector<std::vector<routing::Route>>& candidates,
    const PacketSimConfig& config, SprayPolicy policy) {
  const RoutePlan plan = FlattenRoutes(graph, candidates, config);
  const std::size_t link_count = graph.EdgeCount() * 2;
  const InjectionSchedule schedule =
      BuildInjections(plan, candidates.size(), config, policy);
  const std::vector<Injection>& injections = schedule.injections;
  const std::size_t packet_count = injections.size();

  RingLinkStore store(link_count, config.queue_capacity);
  std::vector<Packet> pool(packet_count);
  PacketSimResult result;
  result.generated = packet_count;
  for (const Injection& inj : injections) {
    if (inj.time >= config.warmup) ++result.measured;
  }

  // Mid-run faults. A link's capacity is read only at its own enqueues, so
  // each link needs only its own ops in order: fault_ops is re-sorted
  // stably by link (each link keeps its (time, schedule) order), and the
  // link's owner advances the link's cursor before each of its events by the
  // serial loop's `time <= now` rule. Every enqueue then sees the serial
  // engine's capacity, with no time order needed across links.
  std::vector<LinkCapOp> fault_ops =
      config.faults.Empty()
          ? std::vector<LinkCapOp>{}
          : ExpandFaultSchedule(graph, config.faults, config.queue_capacity);
  std::stable_sort(fault_ops.begin(), fault_ops.end(),
                   [](const LinkCapOp& a, const LinkCapOp& b) {
                     return a.link < b.link;
                   });
  std::vector<std::int32_t> caps;
  std::vector<std::size_t> cap_next;  // per link: index of its next op
  if (!fault_ops.empty()) {
    caps.assign(link_count, config.queue_capacity);
    cap_next.assign(link_count, fault_ops.size());
    for (std::size_t i = fault_ops.size(); i-- > 0;) {
      cap_next[fault_ops[i].link] = i;
    }
  }
  auto apply_cap_ops = [&](std::uint64_t link, double now) {
    std::size_t& i = cap_next[link];
    while (i < fault_ops.size() && fault_ops[i].link == link &&
           fault_ops[i].time <= now) {
      caps[link] = fault_ops[i++].capacity;
    }
  };

  // Online health monitor. Members count departs/drops for their own link
  // block into per-window matrices (barrier-separated from member 0's
  // reads); member 0 steps a window's detectors once no remaining event can
  // touch it — every future event's time is >= `next`, so windows strictly
  // before WindowOf(next) are final. Window attribution uses the same
  // obs::WindowOf rule as the serial engine.
  LinkHealthHarness mon(graph, link_count, config.monitor, config.duration);
  const bool mon_on = mon.on();
  const double mon_width = mon_on ? mon.width() : 1.0;
  const std::uint32_t mon_windows = mon_on ? mon.window_count() : 0;
  std::vector<std::uint32_t> win_tx(
      mon_on ? static_cast<std::size_t>(mon_windows) * link_count : 0, 0);
  std::vector<std::uint32_t> win_drop(win_tx.size(), 0);

  flight::RunScope flight_run{"packetsim", config.duration, link_count,
                              LaneNamer(graph.Csr())};
  flight::Recorder* const fr = flight_run.recorder();
  const bool fr_sample = fr != nullptr && fr->SamplingOn();
  const bool fr_ts = fr != nullptr && fr->TimeSeriesOn();
  const bool fr_bd = fr != nullptr && fr->BreakdownOn();
  // Which packets the recorder would sample; written by the injecting member,
  // read by later windows' depart owners (barrier-separated). Pre-filtering
  // keeps op buffers proportional to the sampled traffic.
  std::vector<std::uint8_t> sampled(fr_sample ? packet_count : 0, 0);

  const int team = TeamSize();
  const auto team_u = static_cast<std::uint64_t>(team);
  // Contiguous block partition of directed links across members.
  auto owner_of = [&](std::uint64_t link) {
    return link_count == 0 ? 0 : static_cast<int>(link * team_u / link_count);
  };

  std::vector<Member> members(static_cast<std::size_t>(team));
  for (Member& m : members) {
    m.outbox.resize(static_cast<std::size_t>(team));
    m.depth_hist.assign(static_cast<std::size_t>(config.queue_capacity) + 1, 0);
    m.hops_hist.assign(plan.longest_route + 1, 0);
  }
  // Per directed link: the window's event count, then its group's fill
  // cursor in the owner's `events`; zero between windows. Only the link's
  // owner touches its entry.
  std::vector<std::uint32_t> slot(link_count, 0);
  // Earliest pending depart per member: written in the apply phase, read by
  // every member after the window's end barrier.
  std::vector<double> mins(static_cast<std::size_t>(team), kNever);
  // The next window's start: the earliest pending depart or injection. Every
  // member calls this with its own injection cursor, and all agree.
  auto earliest = [&](std::size_t cursor) {
    double next = cursor < packet_count ? injections[cursor].time : kNever;
    for (const double t : mins) next = std::min(next, t);
    return next;
  };

  // Replay state, member 0's alone during the run.
  std::uint64_t rounds = 0;
  std::int64_t fr_in_flight = 0;
  std::vector<std::uint32_t> rec_of(fr_sample ? packet_count : 0,
                                    flight::Recorder::kNotSampled);
  std::vector<DeliveryRec> merge_deliveries;
  std::vector<FlightOp> merge_ops;
  std::vector<std::uint64_t> flow_delivered(plan.route_links.size(), 0);

  // Member 0, right after a window's end barrier: feed the window's
  // deliveries and flight ops to the order-sensitive sinks in the serial
  // engine's order, then step the monitor windows that lie before `next`.
  // The other members are resolving the next window meanwhile; they write
  // their buffers again only after its outbox barrier.
  auto replay = [&](double next) {
    OBS_SPAN("packetsim/coordinate");
    ++rounds;
    merge_deliveries.clear();
    for (Member& m : members) {
      merge_deliveries.insert(merge_deliveries.end(), m.deliveries.begin(),
                              m.deliveries.end());
      m.deliveries.clear();
    }
    std::sort(merge_deliveries.begin(), merge_deliveries.end(),
              [](const DeliveryRec& a, const DeliveryRec& b) {
                return a.time != b.time ? a.time < b.time : a.key < b.key;
              });
    for (const DeliveryRec& d : merge_deliveries) {
      result.latency.Add(d.latency);
      ++flow_delivered[d.route];
      AddDeliveryTelemetry(result.telemetry, d.latency, d.hops);
      if (mon_on) mon.AddDelivery(d.time, d.latency);
      if (fr_bd) fr->Delivery(d.latency, static_cast<int>(d.hops));
    }
    if (fr != nullptr) {
      merge_ops.clear();
      for (Member& m : members) {
        merge_ops.insert(merge_ops.end(), m.ops.begin(), m.ops.end());
        m.ops.clear();
      }
      std::sort(merge_ops.begin(), merge_ops.end(), OpBefore);
      for (const FlightOp& op : merge_ops) {
        switch (op.op) {
          case FlightOpKind::kBorn:
            rec_of[op.id] =
                fr->PacketBorn(op.id, static_cast<std::uint32_t>(op.link),
                               op.time, op.arg != 0);
            break;
          case FlightOpKind::kEnqueue:
            fr->HopEnqueue(rec_of[op.id], op.link, op.time, op.arg != 0);
            break;
          case FlightOpKind::kServiceStart:
            fr->HopServiceStart(rec_of[op.id], op.time);
            break;
          case FlightOpKind::kHopDepart:
            fr->HopDepart(rec_of[op.id], op.time);
            break;
          case FlightOpKind::kDropped:
            fr->PacketDropped(rec_of[op.id], op.link, op.time);
            break;
          case FlightOpKind::kDelivered:
            fr->PacketDelivered(rec_of[op.id], op.time);
            break;
          case FlightOpKind::kTransmit:
            fr->LinkTransmit(op.link, op.time);
            break;
          case FlightOpKind::kQueueDepth:
            fr->LinkQueueDepth(op.link, op.time, op.arg);
            break;
          case FlightOpKind::kInFlight:
            fr_in_flight += op.arg;
            fr->InFlight(op.time, fr_in_flight);
            break;
        }
      }
    }
    if (mon_on) {
      // Windows strictly before the earliest remaining event are final.
      const std::uint32_t safe =
          next == kNever
              ? mon_windows
              : std::min(mon_windows, obs::WindowOf(next, mon_width));
      while (mon.Stepped() < safe) {
        const auto w = static_cast<std::size_t>(mon.Stepped());
        mon.StepFrom(win_tx.data() + w * link_count,
                     win_drop.data() + w * link_count);
      }
    }
  };

  OBS_SPAN("packetsim/run");
  RunTeam(team, [&](int me, SpinBarrier& barrier) {
    OBS_SPAN("packetsim/shard");
    Member& m = members[static_cast<std::size_t>(me)];

    // Enqueue `id` onto `e.link` (or drop), exactly the serial engine's
    // logic, with flight calls buffered at sub_base/sub_base+1.
    auto apply_enqueue = [&](const ShardEvent& e, std::uint32_t sub_base) {
      const std::uint32_t id = e.id;
      const std::int32_t cap_limit =
          caps.empty() ? config.queue_capacity : caps[e.link];
      if (store.Size(e.link) >= cap_limit) {
        if (pool[id].measured) ++m.dropped;
        if (mon_on) {
          const std::uint32_t w = obs::WindowOf(e.time, mon_width);
          if (w < mon_windows) {
            ++win_drop[static_cast<std::size_t>(w) * link_count + e.link];
          }
        }
        if (fr_sample && sampled[id] != 0) {
          m.ops.push_back({e.time, e.key, sub_base, FlightOpKind::kDropped, id,
                           e.link, 0});
        }
        if (fr_ts) {
          m.ops.push_back(
              {e.time, e.key, sub_base + 1, FlightOpKind::kInFlight, 0, 0, -1});
        }
        return;
      }
      store.Push(e.link, id);
      const int depth = store.Size(e.link);
      ++m.depth_hist[static_cast<std::size_t>(depth)];
      m.max_depth = std::max(m.max_depth, depth);
      const bool service_now = depth == 1;
      if (fr_ts) {
        m.ops.push_back({e.time, e.key, sub_base, FlightOpKind::kQueueDepth, 0,
                         e.link, depth});
      }
      if (fr_sample && sampled[id] != 0) {
        m.ops.push_back({e.time, e.key, sub_base + 1, FlightOpKind::kEnqueue,
                         id, e.link, service_now ? 1 : 0});
      }
      if (service_now) m.pending.push_back({e.time + kServiceTime, e.link});
    };

    // The one event kind that does more than enqueue: pop the head, start
    // the next packet's service, deliver or leave the forward to the
    // matching kArrivalEvent (possibly on another member).
    auto apply_depart = [&](const ShardEvent& e) {
      const std::uint32_t id = store.PopFront(e.link);
      DCN_ASSERT(id == e.id);
      if (mon_on) {
        const std::uint32_t w = obs::WindowOf(e.time, mon_width);
        if (w < mon_windows) {
          ++win_tx[static_cast<std::size_t>(w) * link_count + e.link];
        }
      }
      if (fr_ts) {
        m.ops.push_back(
            {e.time, e.key, 0, FlightOpKind::kTransmit, 0, e.link, 0});
      }
      if (fr_sample && sampled[id] != 0) {
        m.ops.push_back({e.time, e.key, 1, FlightOpKind::kHopDepart, id, 0, 0});
      }
      if (!store.Empty(e.link)) {
        m.pending.push_back({e.time + kServiceTime, e.link});
        const std::uint32_t front = store.Front(e.link);
        if (fr_sample && sampled[front] != 0) {
          m.ops.push_back(
              {e.time, e.key, 2, FlightOpKind::kServiceStart, front, 0, 0});
        }
      }
      Packet& p = pool[id];
      ++p.hop;
      if (p.hop == plan.route_links[p.route].size()) {
        ++m.hops_hist[p.hop];
        if (p.measured) {
          ++m.delivered;
          m.deliveries.push_back(
              {e.time, e.key, e.time - p.born, p.hop, p.route});
        }
        if (fr_sample && sampled[id] != 0) {
          m.ops.push_back(
              {e.time, e.key, 3, FlightOpKind::kDelivered, id, 0, 0});
        }
        if (fr_ts) {
          m.ops.push_back(
              {e.time, e.key, 4, FlightOpKind::kInFlight, 0, 0, -1});
        }
      }
    };

    auto apply_inject = [&](const ShardEvent& e) {
      const Injection& inj = injections[e.id];
      Packet p;
      p.route = inj.route;
      p.born = e.time;
      p.measured = e.time >= config.warmup;
      pool[e.id] = p;
      if (fr_sample) {
        const bool would = fr->WouldSample(e.id);
        sampled[e.id] = would ? 1 : 0;
        if (would) {
          m.ops.push_back({e.time, e.key, 0, FlightOpKind::kBorn, e.id,
                           inj.source, p.measured ? 1 : 0});
        }
      }
      if (fr_ts) {
        m.ops.push_back({e.time, e.key, 1, FlightOpKind::kInFlight, 0, 0, 1});
      }
      apply_enqueue(e, 2);
    };

    std::size_t cursor = 0;  // my copy of the injection cursor
    for (double next = earliest(cursor); next != kNever;) {
      const double w_hi = next + kServiceTime;
      const std::size_t inj_begin = cursor;
      while (cursor < packet_count && injections[cursor].time < w_hi) {
        ++cursor;
      }

      // Resolve (read-only on shared state): move the departs due in this
      // window behind the later ones, read each due depart's head packet and
      // post the handoff to the next link's owner. A head stays put until
      // its link's depart is applied: same-window arrivals join the FIFO
      // tail, never the head.
      for (std::vector<ShardEvent>& row : m.outbox) row.clear();
      const auto kept = static_cast<std::size_t>(
          std::partition(m.pending.begin(), m.pending.end(),
                         [w_hi](const PendingDepart& d) {
                           return d.time >= w_hi;
                         }) -
          m.pending.begin());
      for (std::size_t i = kept; i < m.pending.size(); ++i) {
        const PendingDepart& d = m.pending[i];
        DCN_ASSERT(!store.Empty(d.link));
        const std::uint32_t id = store.Front(d.link);
        const Packet& p = pool[id];
        const std::vector<std::uint64_t>& links = plan.route_links[p.route];
        if (p.hop + 1 < links.size()) {
          const std::uint64_t dest = links[p.hop + 1];
          m.outbox[static_cast<std::size_t>(owner_of(dest))].push_back(
              {d.time, d.link, dest, id, kArrivalEvent});
          ++m.handoffs;
        }
      }

      barrier.Arrive();  // every outbox row is final

      // Every event of the window that applies to my links: my due departs,
      // the arrivals handed to me and the injections entering at my links.
      auto for_each_event = [&](auto&& visit) {
        for (std::size_t i = kept; i < m.pending.size(); ++i) {
          const PendingDepart& d = m.pending[i];
          visit(ShardEvent{d.time, d.link, d.link, store.Front(d.link),
                           kDepartEvent});
        }
        for (const Member& from : members) {
          for (const ShardEvent& e : from.outbox[static_cast<std::size_t>(me)]) {
            visit(e);
          }
        }
        for (std::size_t i = inj_begin; i < cursor; ++i) {
          const Injection& inj = injections[i];
          const std::uint64_t first = plan.route_links[inj.route][0];
          if (owner_of(first) != me) continue;
          visit(ShardEvent{inj.time, link_count + inj.source, first,
                           static_cast<std::uint32_t>(i), kInjectEvent});
        }
      };

      // Apply: count my events per link, give each touched link a slot
      // range in `events`, place every event straight into its link's range,
      // then run the links one by one, each group in the documented (time,
      // key, kind, id) order.
      for_each_event([&](const ShardEvent& e) {
        if (slot[e.link]++ == 0) m.touched.push_back(e.link);
      });
      std::uint32_t total = 0;
      for (const std::uint64_t link : m.touched) {
        const std::uint32_t count = slot[link];
        slot[link] = total;
        total += count;
      }
      m.events.resize(total);
      for_each_event([&](const ShardEvent& e) {
        m.events[slot[e.link]++] = e;
      });
      m.pending.resize(kept);
      m.processed += total;

      auto group = m.events.begin();
      for (const std::uint64_t link : m.touched) {
        const auto group_end = m.events.begin() + slot[link];
        slot[link] = 0;
        std::sort(group, group_end, EventBefore);  // one link's few events
        for (; group != group_end; ++group) {
          const ShardEvent& e = *group;
          if (!caps.empty()) apply_cap_ops(e.link, e.time);
          if (e.kind == kDepartEvent) {
            apply_depart(e);
          } else if (e.kind == kArrivalEvent) {
            apply_enqueue(e, 5);
          } else {
            apply_inject(e);
          }
        }
      }
      m.touched.clear();

      double min_next = kNever;
      for (const PendingDepart& d : m.pending) {
        min_next = std::min(min_next, d.time);
      }
      mins[static_cast<std::size_t>(me)] = min_next;

      barrier.Arrive();  // every member's window is applied

      // `mins` is final until the next outbox barrier, after which it is
      // rewritten; every member reads it here, before arriving there.
      next = earliest(cursor);
      if (me == 0) replay(next);
    }
  });

  for (const Member& m : members) {
    result.delivered += m.delivered;
    result.dropped += m.dropped;
    result.max_queue_depth = std::max(result.max_queue_depth, m.max_depth);
  }

  const LinkUtilization utilization =
      FoldLinkUtilization(store, kServiceTime, config.duration);
  result.max_link_utilization = utilization.max;
  result.mean_link_utilization = utilization.mean;

  DCN_ASSERT(result.delivered + result.dropped <= result.measured);
  if (fr_bd) result.breakdown = fr->Breakdown();
  FinalizeTelemetry(result.telemetry, graph.Csr(), store, flow_delivered);

  ObsLocals obs;
  // Exact pop-count parity with the serial loop: one event per generate pop
  // (retirements included) plus one per depart.
  obs.events = schedule.generate_events + utilization.transmitted;
  obs.queue_depth.assign(static_cast<std::size_t>(config.queue_capacity) + 1, 0);
  obs.hops.assign(plan.longest_route + 1, 0);
  for (const Member& m : members) {
    for (std::size_t d = 0; d < obs.queue_depth.size(); ++d) {
      obs.queue_depth[d] += m.depth_hist[d];
    }
    for (std::size_t h = 0; h < obs.hops.size(); ++h) {
      obs.hops[h] += m.hops_hist[h];
    }
  }
  FlushObs(result, obs);

  // Shard diagnostics. windows/handoffs are pure functions of the workload
  // (identical at any team size); the per-member event histogram and team
  // gauge intentionally depend on DCN_THREADS — its *sum* is still invariant.
  static obs::Counter& c_windows = obs::GetCounter("packetsim/parallel/windows");
  static obs::Counter& c_handoffs =
      obs::GetCounter("packetsim/parallel/handoffs");
  static obs::Gauge& g_team = obs::GetGauge("packetsim/parallel/team");
  static obs::Histogram& h_shard =
      obs::GetHistogram("packetsim/parallel/shard_events");
  c_windows.Add(rounds);
  std::uint64_t handoffs = 0;
  for (const Member& m : members) handoffs += m.handoffs;
  c_handoffs.Add(handoffs);
  g_team.Set(team);
  for (const Member& m : members) {
    h_shard.Add(static_cast<std::int64_t>(m.processed));
  }
  if (mon_on) {
    // The last window's replay saw next == kNever and stepped every
    // remaining window, so Finish() only moves the result out.
    result.monitor = mon.Finish();
    flight_run.Publish(result.monitor, config.faults.events.size());
  }
  return result;
}

std::vector<std::vector<routing::Route>> SingletonCandidates(
    const std::vector<routing::Route>& routes) {
  std::vector<std::vector<routing::Route>> singleton;
  singleton.reserve(routes.size());
  for (const routing::Route& route : routes) {
    singleton.push_back({route});
  }
  return singleton;
}

}  // namespace

PacketSimResult RunPacketSimMultipath(
    const graph::Graph& graph,
    const std::vector<std::vector<routing::Route>>& candidates,
    const PacketSimConfig& config, SprayPolicy policy) {
  // A team of one gains nothing from windows, sorting, and barriers, so
  // dispatch to the plain event loop — byte-identical by the determinism
  // contract (packetsim.h), and a single-core host pays no shard overhead.
  if (TeamSize() == 1) {
    return RunPacketSimSerialImpl(graph, candidates, config, policy);
  }
  return RunPacketSimMultipathSharded(graph, candidates, config, policy);
}

PacketSimResult RunPacketSim(const graph::Graph& graph,
                             const std::vector<routing::Route>& routes,
                             const PacketSimConfig& config) {
  return RunPacketSimMultipath(graph, SingletonCandidates(routes), config);
}

PacketSimResult RunPacketSimMultipathSerial(
    const graph::Graph& graph,
    const std::vector<std::vector<routing::Route>>& candidates,
    const PacketSimConfig& config, SprayPolicy policy) {
  return RunPacketSimSerialImpl(graph, candidates, config, policy);
}

PacketSimResult RunPacketSimSerial(const graph::Graph& graph,
                                   const std::vector<routing::Route>& routes,
                                   const PacketSimConfig& config) {
  return RunPacketSimMultipathSerial(graph, SingletonCandidates(routes),
                                     config);
}

}  // namespace dcn::sim
