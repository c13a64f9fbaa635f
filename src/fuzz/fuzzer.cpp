#include "fuzz/fuzzer.h"

#include <algorithm>
#include <utility>

#include "exec/sharded_runner.h"
#include "fuzz/shrink.h"

namespace hn::fuzz {
namespace {

/// Bit-exact comparison of two runs of the same configuration: every
/// step field and the full fingerprint including cycles must match.
bool identical_runs(const RunResult& a, const RunResult& b) {
  if (a.build_failed != b.build_failed) return false;
  if (a.steps.size() != b.steps.size()) return false;
  for (size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].result != b.steps[i].result ||
        a.steps[i].state_digest != b.steps[i].state_digest ||
        a.steps[i].alerts != b.steps[i].alerts ||
        a.steps[i].events != b.steps[i].events) {
      return false;
    }
  }
  return a.fingerprint.functional_hash() == b.fingerprint.functional_hash() &&
         a.fingerprint.cycles == b.fingerprint.cycles &&
         a.fingerprint.alerts == b.fingerprint.alerts &&
         a.fingerprint.monitor_events == b.fingerprint.monitor_events &&
         a.violations == b.violations;
}

/// Run `ops` across `specs`, check the oracles, and re-run the reference
/// configuration.  `profile`, when given, folds every run's layer report,
/// the re-run's included.
OracleReport check_ops(std::span<const Op> ops,
                       std::span<const FuzzConfigSpec> specs,
                       const ExecutorOptions& exec,
                       std::vector<RunResult>* runs_out,
                       obs::LayerReport* profile = nullptr) {
  std::vector<RunResult> runs;
  runs.reserve(specs.size());
  for (const FuzzConfigSpec& spec : specs) {
    runs.push_back(run_sequence(spec, ops, exec));
  }
  OracleReport report = check_sequence(ops, specs, runs);
  // Determinism pin: the reference configuration replayed from scratch
  // must be bit-exact, cycles included.
  const RunResult rerun = run_sequence(specs[0], ops, exec);
  if (!identical_runs(runs[0], rerun)) {
    report.findings.push_back("[" + specs[0].name +
                              "] re-run was not bit-identical (simulator "
                              "nondeterminism)");
  }
  if (profile != nullptr) {
    for (const RunResult& run : runs) profile->merge(run.profile);
    profile->merge(rerun.profile);
  }
  if (runs_out != nullptr) *runs_out = std::move(runs);
  return report;
}

}  // namespace

std::vector<FuzzConfigSpec> build_matrix(bool full) {
  using hypernel::Mode;
  std::vector<FuzzConfigSpec> specs;
  // Reference first: Hypernel with the word-granularity monitor is the
  // paper's headline configuration and exercises every oracle.
  specs.push_back({.name = "hypernel-word",
                   .mode = Mode::kHypernel,
                   .monitor = true,
                   .granularity = secapps::Granularity::kSensitiveFields});
  specs.push_back({.name = "native", .mode = Mode::kNative});
  specs.push_back({.name = "kvm", .mode = Mode::kKvmGuest});
  specs.push_back({.name = "hypernel-object",
                   .mode = Mode::kHypernel,
                   .monitor = true,
                   .granularity = secapps::Granularity::kWholeObject});
  if (!full) return specs;

  // Hardware-knob sweep: functional behaviour must survive every point.
  specs.push_back({.name = "hypernel-word-tiny-tlb",
                   .mode = Mode::kHypernel,
                   .monitor = true,
                   .tlb_entries = 4});
  specs.push_back({.name = "hypernel-word-nocache",
                   .mode = Mode::kHypernel,
                   .monitor = true,
                   .cache_enabled = false});
  specs.push_back({.name = "hypernel-word-small-cache",
                   .mode = Mode::kHypernel,
                   .monitor = true,
                   .cache_size_bytes = 4 * 1024});
  specs.push_back({.name = "hypernel-word-slow-dram",
                   .mode = Mode::kHypernel,
                   .monitor = true,
                   .l1_miss_fill = 400});
  specs.push_back({.name = "hypernel-plain", .mode = Mode::kHypernel});
  specs.push_back({.name = "native-sections",
                   .mode = Mode::kNative,
                   .use_sections = true});
  specs.push_back(
      {.name = "kvm-sections", .mode = Mode::kKvmGuest, .use_sections = true});
  specs.push_back(
      {.name = "native-tiny-tlb", .mode = Mode::kNative, .tlb_entries = 4});
  return specs;
}

OracleReport run_sequence_seed(u64 sequence_seed, const GeneratorOptions& gen,
                               std::span<const FuzzConfigSpec> specs,
                               const ExecutorOptions& exec,
                               std::vector<RunResult>* runs) {
  const std::vector<Op> ops = generate_sequence(sequence_seed, gen);
  return check_ops(ops, specs, exec, runs);
}

namespace {

/// Everything one worker produces for one sequence index.  The heavy
/// work (generation + the whole configuration matrix + oracles) happens
/// in the worker; only digest words and the failure evidence cross back
/// to the merging thread.
struct SequenceOutcome {
  bool evaluated = false;  // false only for shards skipped by fail-fast
  u64 seq_seed = 0;
  std::vector<Op> ops;
  OracleReport report;
  /// (functional_hash, cycles) of every run, matrix order.
  std::vector<std::pair<u64, u64>> run_digests;
  /// Per-sequence metrics fold (matrix order), merged campaign-wide on
  /// the merging thread.
  obs::Snapshot metrics;
  /// Per-layer fold of every run of the sequence, the re-run included,
  /// with the rest of the sequence's wall in `other`.
  obs::LayerReport profile;
};

SequenceOutcome evaluate_sequence(u64 index, const FuzzOptions& options,
                                  const GeneratorOptions& gen,
                                  std::span<const FuzzConfigSpec> specs,
                                  const ExecutorOptions& exec) {
  const u64 start = obs::host_now_ns();
  SequenceOutcome out;
  out.seq_seed = sequence_seed(options.seed, index);
  out.ops = generate_sequence(out.seq_seed, gen);
  std::vector<RunResult> runs;
  out.report = check_ops(out.ops, specs, exec, &runs,
                         exec.profile ? &out.profile : nullptr);
  out.run_digests.reserve(runs.size());
  for (const RunResult& run : runs) {
    out.run_digests.emplace_back(run.fingerprint.functional_hash(),
                                 run.fingerprint.cycles);
    if (exec.collect_metrics) out.metrics.merge(run.metrics);
  }
  if (exec.profile) {
    // What no run's window covered (generation, the oracles, system
    // teardown) is the sequence's `other`: the rows sum to its wall.
    const u64 wall = obs::host_now_ns() - start;
    const u64 covered = out.profile.total_ns();
    out.profile[obs::Layer::kOther].self_ns += wall > covered ? wall - covered
                                                              : 0;
  }
  out.evaluated = true;
  return out;
}

}  // namespace

CampaignResult run_campaign(const FuzzOptions& options, std::ostream* log) {
  std::vector<FuzzConfigSpec> specs = build_matrix(options.full_matrix);
  for (FuzzConfigSpec& spec : specs) {
    spec.host_fast_path = options.host_fast_path;
    spec.cores = options.cores;
  }
  GeneratorOptions gen{.ops = options.ops,
                       .attacks = options.attacks,
                       .forged = options.forged,
                       .extended_attacks = options.extended_attacks,
                       .scenario_pool = options.scenario_pool};
  ExecutorOptions exec{.inject_bypass = options.inject_bypass,
                       .audit_stride = options.audit_stride,
                       .collect_metrics = options.collect_metrics,
                       .profile = options.profile};

  CampaignResult result;
  result.corpus_digest = hypernel::kFnvOffset;
  // Fan the sequences out: each index is an independent universe (its
  // seed comes from the index alone), so any worker count produces the
  // same slot array.  jobs == 1 degenerates to the plain sequential
  // loop inside run_sharded.
  exec::ShardOptions shard;
  shard.jobs = options.jobs;
  shard.fail_fast = options.fail_fast;
  std::vector<SequenceOutcome> outcomes = exec::run_sharded<SequenceOutcome>(
      options.sequences,
      [&](u64 index) {
        return evaluate_sequence(index, options, gen, specs, exec);
      },
      [](const SequenceOutcome& o) { return !o.report.ok(); }, shard,
      &result.exec);

  // Merge in index order on this thread.  Every statement below sees
  // exactly what the old sequential loop saw, so logs, digests and
  // failure details are byte-identical at any job count.
  for (u64 index = 0; index < outcomes.size(); ++index) {
    // Unevaluated slots only exist under fail-fast, and only above the
    // lowest failure (the runner runs every index below it), where the
    // merge has already stopped.
    if (!outcomes[index].evaluated) break;
    const u64 seq_seed = outcomes[index].seq_seed;
    const std::vector<Op>& ops = outcomes[index].ops;
    OracleReport report = outcomes[index].report;
    ++result.sequences_run;
    u64 seq_digest = hypernel::kFnvOffset;
    for (const auto& [hash, cycles] : outcomes[index].run_digests) {
      result.corpus_digest = hypernel::fnv_fold(result.corpus_digest, hash);
      result.corpus_digest = hypernel::fnv_fold(result.corpus_digest, cycles);
      seq_digest = hypernel::fnv_fold(hypernel::fnv_fold(seq_digest, hash),
                                      cycles);
    }
    result.sequence_digests.push_back(seq_digest);
    result.sequence_verdicts.push_back(report.ok() ? 0 : 1);
    if (options.collect_metrics) {
      result.metrics.merge(outcomes[index].metrics);
    }
    if (options.profile) result.profile.merge(outcomes[index].profile);
    if (report.ok()) {
      if (log != nullptr && (index + 1) % 10 == 0) {
        *log << "  " << (index + 1) << "/" << options.sequences
             << " sequences clean\n";
      }
      continue;
    }

    ++result.failures;
    if (result.failure_details.size() >= options.max_failures) {
      if (options.fail_fast) break;
      continue;
    }

    SequenceFailure failure;
    failure.index = index;
    failure.sequence_seed = seq_seed;
    failure.findings = report.findings;
    failure.ops = ops;
    if (options.shrink) {
      failure.ops = shrink(
          failure.ops,
          [&specs, &exec](std::span<const Op> candidate) {
            return !check_ops(candidate, specs, exec, nullptr).ok();
          },
          /*max_probes=*/400, &failure.shrink_stats);
      // Re-evaluate on the minimal sequence: its findings and failing
      // step are what the reproducer reports.
      OracleReport minimal = check_ops(failure.ops, specs, exec, nullptr);
      if (!minimal.ok()) {
        failure.findings = minimal.findings;
        report.first_bad_step = minimal.first_bad_step;
      }
    }

    // Dump the failing step's machine trace — and, when trace capture is
    // on, the whole reproducer's causal trace blob — under the reference
    // config.  One deterministic rerun serves both.
    const bool want_step_trace = report.first_bad_step != ~0ull &&
                                 report.first_bad_step < failure.ops.size();
    if (want_step_trace || options.capture_trace) {
      ExecutorOptions traced = exec;
      traced.capture_trace = options.capture_trace;
      if (want_step_trace) {
        failure.trace_step = report.first_bad_step;
        failure.trace_config = specs[0].name;
        traced.trace_step = report.first_bad_step;
      }
      RunResult rerun = run_sequence(specs[0], failure.ops, traced);
      if (want_step_trace) failure.trace = std::move(rerun.trace);
      failure.trace_blob = std::move(rerun.trace_blob);
    }

    failure.replay = "hypernel_fuzz --replay=" + std::to_string(seq_seed) +
                     " --ops=" + std::to_string(options.ops) +
                     (options.full_matrix ? " --matrix=full" : "") +
                     (options.cores != 1
                          ? " --cores=" + std::to_string(options.cores)
                          : "") +
                     (options.inject_bypass ? " --inject-bypass" : "");
    result.failure_details.push_back(std::move(failure));

    if (log != nullptr) {
      const SequenceFailure& f = result.failure_details.back();
      *log << "FAILURE at sequence " << index << " (seed " << options.seed
           << ", sequence seed " << f.sequence_seed << ")\n";
      for (const std::string& finding : f.findings) {
        *log << "  finding: " << finding << "\n";
      }
      *log << "  minimal reproducer (" << f.ops.size() << " ops):\n";
      for (size_t i = 0; i < f.ops.size(); ++i) {
        *log << "    [" << i << "] " << describe(f.ops[i]) << "\n";
      }
      if (!f.trace.empty()) {
        *log << "  machine trace of step " << f.trace_step << " under "
             << f.trace_config << ":\n";
        for (const std::string& line : f.trace) {
          *log << "    " << line << "\n";
        }
      } else if (f.trace_step != ~0ull) {
        *log << "  machine trace of step " << f.trace_step << " under "
             << f.trace_config
             << ": no architectural events (write invisible to the bus)\n";
      }
      *log << "  replay: " << f.replay << "\n";
    }
    if (options.fail_fast) break;
  }
  // Campaign-representative artifacts.  A failing campaign's trace is
  // the first failure's reproducer; everything else comes from one
  // deterministic rerun of sequence 0 under the reference configuration
  // on this (merging) thread — byte-identical at any `jobs` value and
  // invisible to digests.  Tracing and sampling share the rerun, so
  // --trace-out + --sample-cycles yields a v3 trace with the HNTSERIE
  // section embedded alongside the standalone stream.
  const bool failure_trace = options.capture_trace &&
                             !result.failure_details.empty() &&
                             !result.failure_details[0].trace_blob.empty();
  if (failure_trace) {
    result.trace_blob = result.failure_details[0].trace_blob;
  }
  const bool want_clean_trace = options.capture_trace && !failure_trace;
  if ((want_clean_trace || options.sample_cycles != 0) &&
      result.sequences_run > 0) {
    ExecutorOptions rerun = exec;
    rerun.capture_trace = want_clean_trace;
    rerun.sample_cycles = options.sample_cycles;
    const std::vector<Op> ops0 =
        generate_sequence(sequence_seed(options.seed, 0), gen);
    RunResult r0 = run_sequence(specs[0], ops0, rerun);
    if (want_clean_trace) result.trace_blob = std::move(r0.trace_blob);
    result.timeseries_blob = std::move(r0.timeseries_blob);
  }
  return result;
}

}  // namespace hn::fuzz
