// The per-detector scorecard harness: every scenario in the attack
// library runs under every detector configuration (plus one benign
// false-positive probe per detector), and the results are graded against
// the library's declared ground truth.
//
// Outputs are deterministic by construction: cells fan out over
// exec::run_sharded (index-ordered merge), every graded quantity is a
// pure function of simulated state (alert counts, simulated-cycle
// latencies, causal-trace attribution), and the JSON renders in a fixed
// order.  Two scorecards with equal options are byte-identical at any
// --jobs value — the scorecard tests pin exactly this.
#pragma once

#include <string>
#include <vector>

#include "attacks/scenario.h"
#include "fuzz/executor.h"

namespace hn::attacks {

struct ScorecardOptions {
  /// Worker threads for cell evaluation (0 = hardware concurrency).
  /// Never changes the scorecard, only wall-clock.
  unsigned jobs = 1;
  /// Capture the causal flight recorder per cell and require every
  /// detection to be attributable to a bus write through the cause chain.
  bool trace_attribution = true;
  /// Turn on the host clock per cell and merge the layer reports into
  /// Scorecard::profile.  Reporting only, never part of the digest.
  bool profile = false;
  /// Enable the metrics registry per cell and fold the snapshots (cell
  /// order) into Scorecard::metrics.  Reporting only, never part of the
  /// digest.
  bool collect_metrics = false;
  /// Simulated core count for every cell.  At >1 the SMP cross-core
  /// scenarios (smp_scenario_library) join the matrix and the JSON echoes
  /// the count; at 1 the scorecard is byte-identical to the pre-SMP one.
  unsigned cores = 1;
  /// Non-zero = sample time-series tracks every N simulated cycles on the
  /// cell that produces Scorecard::sample_trace, returning the stream in
  /// Scorecard::sample_timeseries.  Host-side only: the JSON and digest
  /// are unchanged at any value — the scorecard tests pin this.
  Cycles sample_cycles = 0;
};

/// One (scenario x detector-config) cell, graded.
struct ScorecardCell {
  std::string scenario;
  AttackFamily family = AttackFamily::kCount;
  std::string config;         // detector configuration (== SecurityApp name)
  bool intended = false;      // this config hosts the intended detector
  bool tamper_skipped = false;  // the tamper op could not run (no target)
  bool detected = false;        // any alert at/after the tamper
  bool expected_seen = false;   // the declared AlertKind, from the
                                // intended detector, at/after the tamper
  u64 alerts = 0;         // total alerts over the run
  u64 setup_alerts = 0;   // alerts before the tamper: setup must be silent
  bool has_latency = false;
  Cycles latency = 0;     // first alert at/after the tamper - tamper start
  /// Detection causally linked to a bus write in the flight recorder
  /// (always false with trace_attribution off).
  bool attributed = false;
};

/// The benign false-positive probe for one detector configuration.
struct BenignCell {
  std::string config;
  u64 alerts = 0;  // every one is a false positive
  u64 events = 0;  // monitor events processed (work done staying silent)
};

/// Per-detector rollup over the cells.
struct DetectorSummary {
  std::string detector;
  u64 intended_cells = 0;
  u64 hits = 0;    // intended cells with the declared alert seen
  u64 misses = 0;  // intended cells without it
  u64 cross_detections = 0;  // non-intended cells that still detected
  u64 false_positives = 0;   // benign-probe alerts + setup-phase alerts
  u64 mean_latency = 0;      // cycles, integer mean over hits
};

struct Scorecard {
  std::vector<ScorecardCell> cells;  // scenario-major, config-minor order
  std::vector<BenignCell> benign;
  std::vector<DetectorSummary> summary;
  bool all_intended_hit = false;
  bool zero_false_positives = false;
  /// With trace_attribution: every hit carries a causal chain.
  bool all_hits_attributed = false;
  std::string json;  // the full deterministic report
  u64 digest = 0;    // FNV-1a over the JSON bytes
  /// Flight-recorder blob of the first intended hit (cell order), for
  /// artifact upload / offline rendering.  Empty with trace_attribution
  /// off.  Not part of the digest contract.
  std::vector<u8> sample_trace;
  /// Sampled HNTSERIE stream of the same first-intended-hit cell
  /// (ScorecardOptions::sample_cycles).  Like sample_trace, an artifact —
  /// not part of the digest contract.
  std::vector<u8> sample_timeseries;
  /// Merged per-cell layer reports (ScorecardOptions::profile).
  /// Host wall clock — never part of the digest contract.
  obs::LayerReport profile;
  /// Per-cell metrics folded in cell order
  /// (ScorecardOptions::collect_metrics).  Not part of the digest.
  obs::Snapshot metrics;

  [[nodiscard]] bool ok(bool require_attribution) const {
    return all_intended_hit && zero_false_positives &&
           (!require_attribution || all_hits_attributed);
  }
};

/// The detector configurations the scorecard exercises, named after the
/// SecurityApp each hosts.
[[nodiscard]] std::vector<fuzz::FuzzConfigSpec> detector_configs();

/// Run the full (scenario x detector) matrix plus benign probes.
[[nodiscard]] Scorecard run_scorecard(const ScorecardOptions& options = {});

/// Human-readable table (the CI step summary): one row per detector plus
/// the per-cell grid.
[[nodiscard]] std::string render_scorecard(const Scorecard& score);

}  // namespace hn::attacks
