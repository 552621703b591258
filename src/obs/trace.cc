#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <ostream>
#include <sstream>

#include "obs/export.h"

namespace dcn::obs {

namespace {

// Microseconds with nanosecond precision, as a decimal literal.
std::string Us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

// Flight timestamps are simulated time, written directly as microseconds
// with the same 3-decimal precision the span events use.
std::string SimUs(double t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", t < 0 ? 0.0 : t);
  return buf;
}

// One serialized flight event plus its ordering key. Events within a run are
// sorted (tid, ts, kind, dur desc, seq) so per-lane X timestamps are monotone
// and flow starts precede finishes at equal timestamps.
struct FlightEvent {
  std::uint64_t tid = 0;
  double ts = 0.0;
  int kind = 0;  // 0 = X, 1 = flow start, 2 = flow finish
  double dur = 0.0;
  std::size_t seq = 0;
  std::string json;
};

void EmitFlightRun(std::ostream& out, const flight::RunSnapshot& run,
                   const std::function<void()>& comma) {
  const int pid = 100 + run.run;
  comma();
  out << R"({"ph": "M", "name": "process_name", "pid": )" << pid
      << R"(, "tid": 0, "ts": 0, "args": {"name": "flight:)"
      << JsonEscape(run.sim) << " run " << run.run << R"("}})";
  for (const auto& [link, lane] : run.lanes) {
    comma();
    out << R"({"ph": "M", "name": "thread_name", "pid": )" << pid
        << R"(, "tid": )" << link << R"(, "ts": 0, "args": {"name": ")"
        << JsonEscape(lane) << R"("}})";
  }

  std::vector<FlightEvent> events;
  for (const flight::PacketRecord& packet : run.packets) {
    if (packet.hops.empty()) continue;
    const std::string name = "pkt" + std::to_string(packet.packet);
    // Globally unique flow id: runs are capped at max_sampled_per_run
    // records, far below this stride.
    const std::uint64_t flow_id =
        static_cast<std::uint64_t>(run.run) * 100000000ull + packet.packet;
    for (std::size_t h = 0; h < packet.hops.size(); ++h) {
      const flight::HopRecord& hop = packet.hops[h];
      FlightEvent event;
      event.tid = hop.link;
      event.ts = hop.enqueue;
      event.dur = hop.depart - hop.enqueue;
      event.seq = events.size();
      std::ostringstream json;
      json << R"({"ph": "X", "name": ")" << name
           << R"(", "cat": "flight", "pid": )" << pid << R"(, "tid": )"
           << hop.link << R"(, "ts": )" << SimUs(hop.enqueue)
           << R"(, "dur": )" << SimUs(event.dur) << R"(, "args": {"packet": )"
           << packet.packet << R"(, "source": )" << packet.source
           << R"(, "hop": )" << h << R"(, "wait": )"
           << SimUs(hop.start - hop.enqueue) << R"(, "service": )"
           << SimUs(hop.depart - hop.start) << R"(, "measured": )"
           << (packet.measured ? "true" : "false");
      if (hop.dropped) json << R"(, "dropped": true)";
      json << "}}";
      event.json = json.str();
      events.push_back(std::move(event));
    }
    const flight::HopRecord& first = packet.hops.front();
    const flight::HopRecord& last = packet.hops.back();
    FlightEvent start;
    start.tid = first.link;
    start.ts = first.enqueue;
    start.kind = 1;
    start.seq = events.size();
    std::ostringstream start_json;
    start_json << R"({"ph": "s", "name": ")" << name
               << R"(", "cat": "flight", "id": )" << flow_id
               << R"(, "pid": )" << pid << R"(, "tid": )" << first.link
               << R"(, "ts": )" << SimUs(first.enqueue) << "}";
    start.json = start_json.str();
    events.push_back(std::move(start));
    FlightEvent finish;
    finish.tid = last.link;
    finish.ts = packet.completed;
    finish.kind = 2;
    finish.seq = events.size();
    std::ostringstream finish_json;
    finish_json << R"({"ph": "f", "bp": "e", "name": ")" << name
                << R"(", "cat": "flight", "id": )" << flow_id
                << R"(, "pid": )" << pid << R"(, "tid": )" << last.link
                << R"(, "ts": )" << SimUs(packet.completed) << "}";
    finish.json = finish_json.str();
    events.push_back(std::move(finish));
  }

  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.dur != b.dur) return a.dur > b.dur;
              return a.seq < b.seq;
            });
  for (const FlightEvent& event : events) {
    comma();
    out << event.json;
  }
}

// Monitor alert args carry the detector's Q16.16 internals; the trace viewer
// only needs enough precision to read them, not bit-exact round-trips.
std::string FromQ16(std::int64_t q) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(q) / 65536.0);
  return buf;
}

void EmitMonitorRun(std::ostream& out, const monitor::MonitorRunSnapshot& run,
                    const std::function<void()>& comma) {
  if (run.result.alerts.empty()) return;
  const int pid = 900 + run.run;
  comma();
  out << R"({"ph": "M", "name": "process_name", "pid": )" << pid
      << R"(, "tid": 0, "ts": 0, "args": {"name": "monitor:)"
      << JsonEscape(run.sim) << " run " << run.run << R"("}})";
  for (const monitor::Alert& alert : run.result.alerts) {
    const bool fire = alert.kind == monitor::AlertKind::kFire;
    const monitor::EntityInfo& entity = run.result.entities[alert.entity];
    const char* entity_kind =
        entity.kind == monitor::EntityKind::kLink ? "link" : "node";
    comma();
    out << R"({"ph": "i", "name": ")" << (fire ? "alert:fire" : "alert:clear")
        << R"(", "cat": "monitor", "s": "p", "pid": )" << pid << R"(, "tid": )"
        << alert.entity << R"(, "ts": )" << SimUs(alert.time)
        << R"(, "args": {"entity": ")" << entity_kind << ':' << entity.key
        << R"(", "signal": ")"
        << JsonEscape(run.result.signals[alert.signal]) << R"(", "value": )"
        << alert.value << R"(, "baseline": )" << FromQ16(alert.baseline_q)
        << R"(, "cusum": )" << FromQ16(alert.cusum_q) << "}}";
  }
}

}  // namespace

void WriteChromeTrace(std::ostream& out, const Snapshot& snapshot) {
  WriteChromeTrace(out, snapshot, {});
}

void WriteChromeTrace(std::ostream& out, const Snapshot& snapshot,
                      const std::vector<flight::RunSnapshot>& runs) {
  WriteChromeTrace(out, snapshot, runs, {});
}

void WriteChromeTrace(
    std::ostream& out, const Snapshot& snapshot,
    const std::vector<flight::RunSnapshot>& runs,
    const std::vector<monitor::MonitorRunSnapshot>& monitors) {
  out << "[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [tid, name] : snapshot.threads) {
    comma();
    out << R"({"ph": "M", "name": "thread_name", "pid": 1, "tid": )" << tid
        << R"(, "ts": 0, "args": {"name": ")" << JsonEscape(name) << R"("}})";
  }
  for (const TraceEvent& event : snapshot.trace) {
    comma();
    out << R"({"ph": "X", "name": ")"
        << JsonEscape(snapshot.span_names[event.site])
        << R"(", "cat": "obs", "pid": 1, "tid": )" << event.tid
        << R"(, "ts": )" << Us(event.start_ns) << R"(, "dur": )"
        << Us(event.dur_ns) << "}";
  }
  for (const flight::RunSnapshot& run : runs) {
    EmitFlightRun(out, run, comma);
  }
  for (const monitor::MonitorRunSnapshot& run : monitors) {
    EmitMonitorRun(out, run, comma);
  }
  out << "\n]\n";
}

void WriteChromeTraceFile(const std::string& path) {
  const Snapshot snapshot = TakeSnapshot();
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  const std::vector<monitor::MonitorRunSnapshot> monitors =
      monitor::SnapshotRuns();
  WriteFile(path, "trace", [&](std::ostream& out) {
    WriteChromeTrace(out, snapshot, runs, monitors);
  });
}

}  // namespace dcn::obs
