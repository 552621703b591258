// Chrome trace-event JSON export for the spans captured by obs/obs.h and the
// packet lifecycles captured by obs/flight.h.
//
// The emitted document is the trace-event "JSON array format": a top-level
// array holding one `ph:"M"` thread_name metadata event per thread lane
// followed by `ph:"X"` complete events (name/cat/pid/tid/ts/dur, ts and dur
// in microseconds) sorted so per-lane timestamps are monotone. Load the file
// in chrome://tracing or https://ui.perfetto.dev; pool workers appear as
// their own lanes ("pool-worker-N"), so region/chunk spans visualize pool
// occupancy directly. scripts/validate_trace.py asserts this schema.
//
// Flight-recorder runs (obs/flight.h) add one process per run that has
// something to draw — a sampled packet or a monitor alert — with pid = 100 +
// run id, named "flight:<sim> run <r>" by a `process_name` metadata event.
// Its thread lanes are the directed links a sampled packet touched. Each
// sampled hop becomes a `cat:"flight"` X event (ts = enqueue, dur = time on
// the link, args = {packet, source, hop, wait, service, measured[,
// dropped]}); each sampled packet additionally gets one flow-start
// (`ph:"s"`) at its first enqueue and one flow-finish (`ph:"f"`, bp:"e") at
// delivery or drop, with a matching id, so the packet's path renders as
// arrows across link lanes. Flight timestamps are simulated time written as
// microseconds.
//
// A monitored run's alert transitions (obs/monitor.h) are `ph:"i"` instant
// events in the same process: name "alert:fire" / "alert:clear", cat
// "monitor", scope "p" (process), ts = the alert's window-close time in
// simulated microseconds, tid = the monitored entity's index, args =
// {entity, signal, value, baseline, cusum}. A link entity's index is its
// directed-link id, so a link's alerts share the tid of its flight lane.
#pragma once

#include <iosfwd>
#include <vector>

#include "obs/flight.h"
#include "obs/obs.h"

namespace dcn::obs {

// Serializes a snapshot's span events and the runs' flight and alert events.
// Emits a valid (possibly empty) array even when capture was never enabled.
void WriteChromeTrace(std::ostream& out, const Snapshot& snapshot,
                      const std::vector<flight::RunSnapshot>& runs);

}  // namespace dcn::obs
