// Executes one op sequence against one system configuration, producing
// the evidence both oracles consume:
//
//   * per-step records (normalized op outcome + cheap functional digest +
//     cumulative alert/event counts) for the differential oracle;
//   * a final full FunctionalFingerprint;
//   * invariant violations found *during* the run: Hypersec::audit()
//     failures, forged operations that were accepted, direct PT writes
//     that did not fault, and attack writes that raised no alert in a
//     monitored configuration (detection completeness).
//
// The executor keeps its own shadow of the coarse kernel state (paths
// created, pids alive, mappings, modules, channels) purely to *interpret*
// op parameters; all truth lives in the simulated kernel.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "fuzz/ops.h"
#include "hypernel/fingerprint.h"
#include "hypernel/system.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "secapps/object_monitor.h"

namespace hn::fuzz {

/// One cell of the configuration matrix.  Spec -> SystemConfig is pure, so
/// a spec names a reproducible system.
struct FuzzConfigSpec {
  std::string name;
  hypernel::Mode mode = hypernel::Mode::kHypernel;
  /// Attach the ObjectIntegrityMonitor (Hypernel mode only).
  bool monitor = false;
  secapps::Granularity granularity = secapps::Granularity::kSensitiveFields;
  /// Attach the nested-kernel InvariantChecker (Hypernel mode only).
  bool invariant_checker = false;
  /// Attach the kernel-CFI monitor (Hypernel mode only).  Its dentry-op
  /// watch auto-disables when the object monitor is co-installed (one
  /// owner per monitored word).
  bool cfi_monitor = false;
  // Hardware knobs (0 / default-preserving values mean "stock").
  unsigned tlb_entries = 0;
  bool cache_enabled = true;
  u64 cache_size_bytes = 0;
  Cycles l1_miss_fill = 0;
  /// 2 MiB section linear map (Native/KVM only: Hypersec requires 4 KiB).
  bool use_sections = false;
  /// Off = host-side reference mode (TLB lookups scan the array, the
  /// Hypersec audit rescans every time).  Results are bit-identical
  /// either way; the fast-path differential test runs the corpus with
  /// this forced off.
  bool host_fast_path = true;
  /// Simulated core count (sim::MachineConfig::cores).  A differential
  /// dimension like the mode matrix: 1 reproduces every pre-SMP digest
  /// bit-for-bit; >1 adds the deterministic SMP machinery (DESIGN.md §15).
  unsigned cores = 1;

  [[nodiscard]] hypernel::SystemConfig system_config() const;
  [[nodiscard]] bool monitored() const {
    return monitor && mode == hypernel::Mode::kHypernel;
  }
  [[nodiscard]] bool has_invariant_checker() const {
    return invariant_checker && mode == hypernel::Mode::kHypernel;
  }
  [[nodiscard]] bool has_cfi_monitor() const {
    return cfi_monitor && mode == hypernel::Mode::kHypernel;
  }
  /// Any security app installed (alert/event counters are live).
  [[nodiscard]] bool any_detector() const {
    return monitored() || has_invariant_checker() || has_cfi_monitor();
  }
};

struct StepRecord {
  u64 result = 0;        // normalized op outcome (compared differentially)
  u64 state_digest = 0;  // cheap functional digest after the op
  u64 alerts = 0;        // cumulative integrity alerts
  u64 events = 0;        // cumulative monitor events
};

/// One tamper write as the executor performed it: the raw material for
/// the scorecard's per-attack detection-latency attribution.
struct AttackRecord {
  u64 step = 0;            // op index in the sequence
  OpKind kind = OpKind::kCreat;
  Cycles at = 0;           // simulated cycles just before the tamper write
  bool expected = false;   // an installed detector's policy must alert
};

/// One detector alert, flattened across every installed security app.
struct AlertRecord {
  std::string detector;    // SecurityApp::name()
  secapps::AlertKind kind = secapps::AlertKind::kCount;
  PhysAddr pa = 0;
  Cycles at = 0;
};

struct RunResult {
  std::string config;
  bool build_failed = false;   // System::create failed (always a finding)
  std::string build_error;
  std::vector<StepRecord> steps;
  hypernel::FunctionalFingerprint fingerprint;
  /// Invariant-oracle findings, each prefixed "step N: ".
  std::vector<std::string> violations;
  u64 attacks_expected = 0;    // attack writes that policy says must alert
  /// Every tamper write performed, in execution order.
  std::vector<AttackRecord> attacks;
  /// Every alert raised by any installed detector (scorecard evidence).
  std::vector<AlertRecord> alert_log;
  /// Rendered sim::Trace of the step selected by ExecutorOptions::trace_step.
  std::vector<std::string> trace;
  /// Metrics snapshot of the run (ExecutorOptions::collect_metrics).
  obs::Snapshot metrics;
  /// Serialized flight-recorder trace of the whole run
  /// (ExecutorOptions::capture_trace; format in sim/trace_io.h).
  std::vector<u8> trace_blob;
  /// Serialized HNTSERIE time-series stream of the whole run
  /// (ExecutorOptions::sample_cycles; format in obs/timeseries.h).
  /// Bit-identical across --jobs and fast-path/reference — the matrix
  /// determinism test pins these axes.
  std::vector<u8> timeseries_blob;
  /// Per-layer self time of the run on both clocks
  /// (ExecutorOptions::profile), the host clock from the start of boot.
  /// Host wall clock is nondeterministic: never folded into digests.
  obs::LayerReport profile;
};

struct ExecutorOptions {
  /// Test-only verifier-bypass hook: CPU attack writes go straight to
  /// physical memory (cache line flushed first), invisible to the bus
  /// snooper.  Functionally identical in every configuration; in a
  /// monitored configuration the detection-completeness oracle must
  /// catch the silence.  Exists to prove the oracle has teeth.
  bool inject_bypass = false;
  /// Run Hypersec::audit() every N steps (and always after the last).
  unsigned audit_stride = 1;
  /// When set, enable machine tracing around this step index and return
  /// its events (via Trace::sequence()/since()) in RunResult::trace.
  u64 trace_step = ~0ull;
  /// Enable the observability registry for the run and return its
  /// snapshot in RunResult::metrics.
  bool collect_metrics = false;
  /// Record the causal flight recorder for the whole run and return the
  /// serialized blob in RunResult::trace_blob.  Implies the registry
  /// (layer scopes are interleaved on the exported timeline).
  bool capture_trace = false;
  /// Turn on the machine's host clock for the run and return its layer
  /// report in RunResult::profile.  Host-only: results are unchanged.
  bool profile = false;
  /// Non-zero = sample every enrolled time-series track every N simulated
  /// cycles and return the serialized stream in
  /// RunResult::timeseries_blob.  Tracks probe always-live accumulators
  /// (not registry handles), so sampling needs no registry.  The sampler
  /// arms when the op phase starts.  Host-side only — never part of
  /// simulated state or any digest.
  Cycles sample_cycles = 0;
};

/// Run `ops` under `spec`.  Deterministic: same (spec, ops, options) give
/// a byte-identical RunResult.
[[nodiscard]] RunResult run_sequence(const FuzzConfigSpec& spec,
                                     std::span<const Op> ops,
                                     const ExecutorOptions& options = {});

}  // namespace hn::fuzz
