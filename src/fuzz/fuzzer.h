// Campaign driver: ties generator, executor, oracles and shrinker into
// the deterministic fuzzing loop `hypernel_fuzz` and the regression tests
// drive.
//
// For every sequence index the driver derives a sequence seed, generates
// ops, runs them under every matrix configuration (reference first, run
// twice to pin determinism), and evaluates both oracles.  On failure it
// shrinks to a minimal reproducer, captures the failing step's machine
// trace, and renders the replay command.
//
// Sequences are independent universes (one sim::Machine per run, seed
// derived from the index), so evaluation fans out across `jobs` worker
// threads via exec::run_sharded; results merge on the calling thread in
// index order, which keeps every output — log lines, digests, failure
// details, summary counts — byte-identical at any job count.  Shrinking
// and trace capture always happen on the merging thread.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "exec/sharded_runner.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "fuzz/shrink.h"

namespace hn::fuzz {

/// The configuration matrix.  `quick` covers the three modes plus both
/// monitoring granularities; `full` adds the hardware-knob sweep (tiny
/// TLB, disabled cache, small cache, slow DRAM, 2 MiB sections).
[[nodiscard]] std::vector<FuzzConfigSpec> build_matrix(bool full);

struct FuzzOptions {
  u64 seed = 1;
  u64 sequences = 10;
  u64 ops = 40;
  bool full_matrix = false;
  bool attacks = true;
  bool forged = true;
  /// Mix in the control-flow / page-table attack kinds (GeneratorOptions::
  /// extended_attacks).  Off by default: historic seeds keep their meaning.
  bool extended_attacks = false;
  /// Structured attack scenarios (src/attacks) used as generator seeds:
  /// when non-empty, each sequence splices one whole program from the pool
  /// at a seed-chosen offset.
  std::vector<std::vector<Op>> scenario_pool;
  bool shrink = true;
  bool inject_bypass = false;  // test-only verifier-bypass hook
  unsigned audit_stride = 1;
  u64 max_failures = 3;  // stop collecting details after this many
  /// Worker threads evaluating sequences.  1 (the library default) runs
  /// everything on the calling thread; 0 means hardware concurrency.
  /// The job count never changes results, only wall-clock.
  unsigned jobs = 1;
  /// Stop the campaign at the first failing sequence (cooperative
  /// cancellation of the remaining shards).
  bool fail_fast = false;
  /// Off = run every configuration in host-side reference mode
  /// (sim::MachineConfig::host_fast_path: no TLB bucket index, no audit
  /// memo).  Never changes results — the campaign digest must be
  /// identical either way.
  bool host_fast_path = true;
  /// Simulated core count for every configuration in the matrix (1 =
  /// pre-SMP behaviour, bit-identical digests).
  unsigned cores = 1;
  /// Turn on the host clock on every run and merge the layer reports
  /// (index order) into CampaignResult::profile.  Host wall clock — never
  /// part of digests or verdicts.
  bool profile = false;
  /// Collect per-run observability metrics and fold them (index order)
  /// into CampaignResult::metrics.  Purely additive: never changes
  /// digests, verdicts or simulated cycles.
  bool collect_metrics = false;
  /// Capture causal flight-recorder traces (sim/trace_io.h): one blob per
  /// failure (the minimal reproducer, reference configuration) and one
  /// campaign-representative blob in CampaignResult::trace_blob.  Capture
  /// happens via deterministic reruns on the merging thread, so blobs are
  /// byte-identical at any `jobs` value and never perturb digests.
  bool capture_trace = false;
  /// Non-zero = sample time-series tracks every N simulated cycles
  /// (ExecutorOptions::sample_cycles) and produce one campaign-
  /// representative stream in CampaignResult::timeseries_blob via a
  /// deterministic rerun on the merging thread (like capture_trace).
  /// Never perturbs digests or verdicts.
  Cycles sample_cycles = 0;
};

struct SequenceFailure {
  u64 index = 0;
  u64 sequence_seed = 0;
  std::vector<Op> ops;  // minimal reproducer (original if shrinking off)
  std::vector<std::string> findings;
  ShrinkStats shrink_stats;
  u64 trace_step = ~0ull;
  std::string trace_config;
  std::vector<std::string> trace;  // failing step's machine trace
  /// Serialized causal trace of the minimal reproducer under the
  /// reference configuration (FuzzOptions::capture_trace).
  std::vector<u8> trace_blob;
  std::string replay;              // command line reproducing the failure
};

struct CampaignResult {
  u64 sequences_run = 0;
  u64 failures = 0;
  /// FNV fold of every run's functional hash + cycles, in order: two
  /// campaigns with equal options must produce equal digests (the
  /// determinism contract `--seed=N` promises).
  u64 corpus_digest = 0;
  /// Per-sequence digests and verdicts (1 = failed), index-ordered.
  /// Equal options must produce equal vectors at any `jobs` value — the
  /// cross-thread determinism regression test pins exactly this.
  std::vector<u64> sequence_digests;
  std::vector<u8> sequence_verdicts;
  std::vector<SequenceFailure> failure_details;
  /// Host-side execution stats of the fan-out (wall time, per-worker
  /// throughput).  Reporting only — never part of the determinism
  /// contract, so tools print it to stderr.
  exec::ShardReport exec;
  /// Campaign-wide metrics fold (FuzzOptions::collect_metrics): every
  /// run's snapshot merged in (sequence, matrix) order.  Merge is
  /// commutative and associative, so the result is identical at any
  /// `jobs` value — the campaign determinism test pins this too.
  obs::Snapshot metrics;
  /// Campaign-representative causal trace (FuzzOptions::capture_trace):
  /// the first failure's reproducer trace, or a rerun of sequence 0 under
  /// the reference configuration when the campaign is clean.
  std::vector<u8> trace_blob;
  /// Campaign-representative sampled time series (FuzzOptions::
  /// sample_cycles): sequence 0 under the reference configuration, rerun
  /// on the merging thread so the blob is byte-identical at any `jobs`.
  std::vector<u8> timeseries_blob;
  /// Campaign-wide layer fold (FuzzOptions::profile): every run of every
  /// sequence, determinism re-runs included, plus each sequence's
  /// uncovered wall in `other`, so at jobs == 1 the host column sums to
  /// the campaign's exec wall.  Host wall clock, reporting only.
  obs::LayerReport profile;

  [[nodiscard]] bool ok() const { return failures == 0; }
};

/// Run one sequence (by seed) across `specs`; runs[0] is the reference
/// and is executed twice to assert bit-exact determinism.  Exposed for
/// the regression corpus and for `--replay`.
[[nodiscard]] OracleReport run_sequence_seed(u64 sequence_seed,
                                             const GeneratorOptions& gen,
                                             std::span<const FuzzConfigSpec> specs,
                                             const ExecutorOptions& exec,
                                             std::vector<RunResult>* runs = nullptr);

/// Full campaign.  `log` (optional) receives progress and failure reports.
[[nodiscard]] CampaignResult run_campaign(const FuzzOptions& options,
                                          std::ostream* log = nullptr);

}  // namespace hn::fuzz
