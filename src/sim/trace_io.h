// Flight-recorder persistence: the versioned compact binary trace format
// (DESIGN.md §11) and its parser.
//
// A trace file is a self-contained snapshot of one run's causal record:
// the trace ring (events with sequence ids and cause links), the span
// table (the machine's completed layer scopes, obs/scope.h, with the
// layer names as its name table), and enough header metadata
// (format version, clock rate, drop accounting) for offline tools to
// reconstruct timelines without the simulator.  Serialization is
// deterministic — equal machine states produce byte-identical blobs, so
// trace files can be diffed and golden-tested exactly like metrics
// snapshots (obs/export.h).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/scope.h"
#include "obs/timeseries.h"
#include "sim/trace.h"

namespace hn::sim {

class Machine;

/// Binary trace format version.  Bump on any layout change.  v2 appended
/// the originating core to every event (SMP provenance); v3 appends a
/// length-prefixed time-series section (an embedded HNTSERIE blob,
/// obs/timeseries.h; length 0 when the run sampled nothing) after the
/// span table.  The parser reads v3 only and rejects any other version.
inline constexpr u32 kTraceFormatVersion = 3;

/// 8-byte file magic: "HNTRACE\0".
inline constexpr char kTraceMagic[8] = {'H', 'N', 'T', 'R', 'A', 'C', 'E', 0};

/// Parsed contents of a trace file — everything offline tools need.
struct TraceData {
  u32 version = kTraceFormatVersion;
  double cpu_ghz = 0.0;       // simulated clock: cycles / (cpu_ghz*1000) = µs
  u64 seq_end = 0;            // one past the last stamped sequence id
  u64 first_seq = 0;          // oldest event the ring retained
  u64 trace_dropped = 0;      // events evicted from the trace ring
  u64 span_dropped = 0;       // scopes evicted from the scope ring
  std::vector<TraceEvent> events;        // chronological
  std::vector<std::string> span_names;   // indexed by ScopeEvent::name_id
  std::vector<obs::ScopeEvent> spans;    // completion order
  /// v3 time-series section; empty tracks = the run sampled nothing.
  obs::TimeSeriesData timeseries;
};

/// Serialize the trace ring plus (optionally) a scope ring into the
/// binary format.  `scopes` may be null for an empty span table;
/// `timeseries` may be null (or empty) for a zero-length v3 section.
[[nodiscard]] std::vector<u8> serialize_trace(
    const Trace& trace, const obs::ScopeStack* scopes, double cpu_ghz,
    const obs::TimeSeriesData* timeseries = nullptr);

/// Convenience: snapshot `machine`'s trace + scopes with its clock rate.
/// When the machine's time-series sampler is armed, the sampled stream
/// embeds as the v3 section (flushed to the machine's current bus-order
/// instant), so Perfetto counter tracks ride along with the span export.
[[nodiscard]] std::vector<u8> capture_trace(Machine& machine);

/// Snapshot `machine`'s sampled time series as a standalone HNTSERIE
/// blob (the --timeseries-out artifact): stream flushed to the current
/// bus-order instant, cpu_ghz stamped from the timing model.  Empty
/// vector when the sampler was never armed.
[[nodiscard]] std::vector<u8> capture_timeseries(Machine& machine);

/// Parse a binary trace blob.  Returns Invalid with a diagnostic on bad
/// magic, unknown version, or truncation.
Status parse_trace(const std::vector<u8>& blob, TraceData& out);

}  // namespace hn::sim
