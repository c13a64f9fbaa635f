// Flight-recorder analysis: causal-chain reconstruction, the
// detection-latency attribution report, the Chrome trace-event exporter,
// and the dump/diff renderers behind tools/hypernel_trace.cpp.
//
// All renderers return deterministic strings — equal TraceData produce
// byte-identical output, so reports can be golden-tested and compared
// across --jobs counts and fast-path/--reference executions.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "sim/trace_io.h"

namespace hn::sim {

/// One reconstructed write→detect→verdict chain, walked backward from a
/// kVerdict event through its cause links.  Segment durations telescope:
/// consecutive chain-event timestamp deltas, so their sum is exactly the
/// end-to-end detection latency (verdict.at - bus_write.at).
///
/// The bus-snoop / FIFO / bitmap stages run in MBM hardware concurrently
/// with the CPU, so their CPU-timeline segments are 0 in the synchronous
/// detection model; the *modeled* FIFO residency (queue wait + translator
/// service, off the CPU critical path) is reported separately from the
/// kMbmFifo event's a/b payload.
struct DetectionChain {
  bool complete = false;  // all of bus_write/fifo/detect/irq/verdict found
  bool has_pt_write = false;
  bool has_irq = false;
  TraceEvent pt_write{};   // optional chain root (kernel PT descriptor write)
  TraceEvent bus_write{};  // kBusWrite: the monitored store on the bus
  TraceEvent fifo{};       // kMbmFifo: snooper capture accepted
  TraceEvent detect{};     // kMbmDetect: bitmap bit matched
  TraceEvent irq{};        // kIrq: delivery to Hypersec
  TraceEvent verdict{};    // kVerdict: security-app verdict
  // CPU-timeline segments (cycles); sum == end_to_end when complete.
  Cycles bus_snoop = 0;      // fifo.at - bus_write.at
  Cycles fifo_residency = 0; // detect.at - fifo.at (0: concurrent hardware)
  Cycles bitmap_check = 0;   // detect.at - fifo.at (synchronous model: 0)
  Cycles irq_delivery = 0;   // irq.at - detect.at
  Cycles verifier = 0;       // verdict.at - irq.at
  Cycles end_to_end = 0;     // verdict.at - bus_write.at
  // Modeled concurrent MBM pipeline (not on the CPU critical path).
  Cycles mbm_queue_wait = 0;  // fifo.a
  Cycles mbm_service = 0;     // fifo.b
};

struct AttributionReport {
  std::vector<DetectionChain> chains;  // one per kVerdict, trace order
  u64 verdicts_total = 0;
  u64 verdicts_benign = 0;        // kVerdict b == 0
  u64 verdicts_alert = 0;         // kVerdict b == 1
  u64 verdicts_unattributed = 0;  // kVerdict b == 2
  u64 broken_chains = 0;          // upstream link evicted from the ring
  /// Any event in the trace carries a nonzero core id — i.e. this is a
  /// genuinely SMP trace.  Gates the core= chain tags and the per-core
  /// attribution table (single-core traces render as before).
  bool smp_trace = false;
};

/// Walk every kVerdict event's cause links back to its bus write (and
/// optional PT-write root), pairing each detection with the kIrq event it
/// raised, and split the end-to-end latency into segments.
[[nodiscard]] AttributionReport build_attribution(const TraceData& data);

/// Render the attribution report as text (the `hypernel_trace report`
/// output): per-chain breakdowns plus aggregate min/avg/max.
[[nodiscard]] std::string render_attribution(const AttributionReport& report,
                                             double cpu_ghz);

/// Export as Chrome trace-event JSON (catapult / Perfetto "JSON Array
/// Format" wrapped in {"traceEvents": ...}).  Trace events become instant
/// events on tid 1, spans duration events on tid 2, and cause links flow
/// arrows — all on one simulated-µs timeline, records sorted by ts.
[[nodiscard]] std::string export_chrome_json(const TraceData& data);

/// Render the sampled time series (the `hypernel_trace timeline`
/// output): one row per sampling window with per-core utilization, MBM
/// FIFO occupancy vs. snooped-write traffic, and p50/p95/p99
/// detection-latency percentiles over the chains whose monitored store
/// falls in that window (attribution comes from build_attribution on the
/// same trace, so the per-window percentiles and the closing totals line
/// telescope to the attribution report's end-to-end sums — the
/// timeline/attribution cross-check test pins this).  Works on a full v3
/// trace or a TraceData holding only a parsed HNTSERIE section.
[[nodiscard]] std::string render_timeline(const TraceData& data);

/// Render events as text, one line per event (the `hypernel_trace dump`
/// output).  Empty `kind_filter` keeps everything; otherwise only events
/// whose kind_name matches.
[[nodiscard]] std::string render_dump(const TraceData& data,
                                      std::string_view kind_filter);

/// Compare two traces: first divergence (if any) plus per-kind counts.
[[nodiscard]] std::string render_diff(const TraceData& a, const TraceData& b);

}  // namespace hn::sim
