// hypernel_fuzz — deterministic differential fuzzer for the Hypernel
// simulation.
//
// Generates random operation sequences from a seed, executes each under
// the whole configuration matrix (Native / KVM-guest / Hypernel, both
// monitoring granularities, optional hardware-knob sweep), and checks the
// two oracles after every step: differential functional equivalence and
// Hypersec/monitor invariants.  Failures are shrunk to a minimal
// reproducer, the failing step's machine trace is dumped, and a replay
// command is printed.
//
// Campaigns fan sequences across --jobs worker threads (default: all
// hardware threads); results merge in index order, so stdout — progress
// lines, failure reports, the summary — is byte-identical at any job
// count.  Host-side throughput stats go to stderr.
//
//   hypernel_fuzz --seed=1 --sequences=50            # campaign
//   hypernel_fuzz --seed=1 --sequences=50 --jobs=4   # same output, faster
//   hypernel_fuzz --seed=1 --sequences=50 --matrix=full
//   hypernel_fuzz --replay=<sequence-seed> --ops=40  # one sequence
//   hypernel_fuzz --inject-bypass ...                # prove the oracle bites
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "attacks/scenario.h"
#include "attacks/scorecard.h"
#include "common/blob_file.h"
#include "common/parse_int.h"
#include "fuzz/fuzzer.h"
#include "fuzz/seed_io.h"
#include "obs/artifacts.h"

namespace {

using hn::fuzz::CampaignResult;
using hn::fuzz::FuzzOptions;

struct Options {
  FuzzOptions fuzz;
  hn::obs::ArtifactFlags artifacts;
  std::optional<hn::u64> replay_seed;
  std::string replay_file;
  std::string failure_dir;
};

std::optional<std::string> arg_value(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    return std::string(arg + n + 1);
  }
  return std::nullopt;
}

void usage() {
  std::printf(
      "usage: hypernel_fuzz [options]\n"
      "  --seed=N          campaign master seed (default 1)\n"
      "  --sequences=N     number of sequences to run (default 10)\n"
      "  --ops=K           ops per sequence (default 40)\n"
      "  --matrix=M        quick (default) or full hardware-knob sweep\n"
      "  --replay=S        run the single sequence with sequence seed S\n"
      "                    (as printed in a failure's replay line)\n"
      "  --replay-file=F   run the op program in F (`op <name> <a> <b> <c>`\n"
      "                    per line; the attack-corpus seed format) under\n"
      "                    the matrix plus the three detector configs\n"
      "  --attack-seeds    splice attack-library scenarios into generated\n"
      "                    sequences as structured seeds and mix in the\n"
      "                    control-flow / page-table attack kinds\n"
      "  --audit-stride=N  run Hypersec::audit() every N steps (default 1)\n"
      "  --jobs=N          worker threads for sequence evaluation (default:\n"
      "                    hardware concurrency; 1 = fully sequential).\n"
      "                    Never changes output, only wall-clock\n"
      "  --cores=N         simulated cores per machine (default 1).  A\n"
      "                    differential dimension: cross-core interleaving\n"
      "                    with deterministic bus arbitration; output is\n"
      "                    reproducible at any --jobs for a fixed N\n"
      "  --failure-dir=D   write one reproducer file per failing sequence\n"
      "                    (shrunk ops, replay command, machine trace) to D\n"
      "  --fail-fast       cancel the campaign at the first failing sequence\n"
      "  --no-shrink       report original failing sequences unshrunk\n"
      "  --reference       force host-side reference mode (no sim fast\n"
      "                    path); output must stay byte-identical\n"
      "  --no-attacks      generate no attack writes\n"
      "  --no-forged       generate no forged-hypercall probes\n"
      "  --inject-bypass   test hook: attack writes dodge the bus snooper\n"
      "                    (the detection oracle must catch this)\n"
      "artifacts (metrics and profile cover every run; the trace is the\n"
      "first failure's reproducer, or sequence 0 under the reference config\n"
      "when the campaign is clean; the stream is sequence 0's; a replay\n"
      "exports the first configuration's trace and stream):\n%s",
      hn::obs::kArtifactUsage);
}

/// Reports a malformed integer flag; the caller's usage error.
bool bad_number(const char* arg) {
  std::fprintf(stderr, "malformed number in '%s'\n", arg);
  return false;
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::optional<std::string> v;
    if ((v = arg_value(arg, "--seed"))) {
      if (!hn::parse_u64(*v, &opt->fuzz.seed)) return bad_number(arg);
    } else if ((v = arg_value(arg, "--sequences"))) {
      if (!hn::parse_u64(*v, &opt->fuzz.sequences)) return bad_number(arg);
    } else if ((v = arg_value(arg, "--ops"))) {
      if (!hn::parse_u64(*v, &opt->fuzz.ops)) return bad_number(arg);
    } else if ((v = arg_value(arg, "--matrix"))) {
      if (*v == "full") {
        opt->fuzz.full_matrix = true;
      } else if (*v != "quick") {
        std::fprintf(stderr, "unknown matrix '%s'\n", v->c_str());
        return false;
      }
    } else if ((v = arg_value(arg, "--replay-file"))) {
      opt->replay_file = *v;
    } else if ((v = arg_value(arg, "--replay"))) {
      hn::u64 seed = 0;
      if (!hn::parse_u64(*v, &seed)) return bad_number(arg);
      opt->replay_seed = seed;
    } else if (std::strcmp(arg, "--attack-seeds") == 0) {
      opt->fuzz.extended_attacks = true;
      opt->fuzz.scenario_pool = hn::attacks::scenario_pool();
    } else if ((v = arg_value(arg, "--audit-stride"))) {
      if (!hn::parse_u32(*v, &opt->fuzz.audit_stride)) return bad_number(arg);
    } else if ((v = arg_value(arg, "--jobs"))) {
      if (!hn::parse_u32(*v, &opt->fuzz.jobs)) return bad_number(arg);
    } else if ((v = arg_value(arg, "--cores"))) {
      if (!hn::parse_u32(*v, &opt->fuzz.cores)) return bad_number(arg);
      if (opt->fuzz.cores == 0 || opt->fuzz.cores > 8) {
        std::fprintf(stderr, "--cores must be in [1, 8]\n");
        return false;
      }
    } else if ((v = arg_value(arg, "--failure-dir"))) {
      opt->failure_dir = *v;
      opt->fuzz.capture_trace = true;  // reproducers ship with their trace
    } else if (std::strcmp(arg, "--reference") == 0) {
      opt->fuzz.host_fast_path = false;
    } else if (std::strcmp(arg, "--fail-fast") == 0) {
      opt->fuzz.fail_fast = true;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      opt->fuzz.shrink = false;
    } else if (std::strcmp(arg, "--no-attacks") == 0) {
      opt->fuzz.attacks = false;
    } else if (std::strcmp(arg, "--no-forged") == 0) {
      opt->fuzz.forged = false;
    } else if (std::strcmp(arg, "--inject-bypass") == 0) {
      opt->fuzz.inject_bypass = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return false;
    }
  }
  return true;
}

/// Replay one op program under the standard matrix, both oracles armed:
/// the generated sequence of --replay=S, or the explicit program of
/// --replay-file=F (the attack-corpus seed format), which adds the three
/// detector configurations and prints every configuration's alerts.  This
/// is the repro path for campaign, scorecard and corpus failures.
int replay(const Options& opt) {
  const bool from_file = !opt.replay_file.empty();
  const hn::fuzz::GeneratorOptions gen{.ops = opt.fuzz.ops,
                                       .attacks = opt.fuzz.attacks,
                                       .forged = opt.fuzz.forged};
  std::vector<hn::fuzz::FuzzConfigSpec> specs =
      hn::fuzz::build_matrix(opt.fuzz.full_matrix);
  std::vector<hn::fuzz::Op> ops;
  if (from_file) {
    hn::Result<std::vector<hn::fuzz::Op>> loaded =
        hn::fuzz::load_ops_file(opt.replay_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().message().c_str());
      return 2;
    }
    ops = std::move(loaded).value();
    for (hn::fuzz::FuzzConfigSpec& spec : hn::attacks::detector_configs()) {
      specs.push_back(spec);
    }
    std::printf("replaying %s (%zu ops, %zu configurations)\n",
                opt.replay_file.c_str(), ops.size(), specs.size());
  } else {
    ops = hn::fuzz::generate_sequence(*opt.replay_seed, gen);
    std::printf("replaying sequence seed %llu (%zu ops, %zu configurations)\n",
                static_cast<unsigned long long>(*opt.replay_seed), ops.size(),
                specs.size());
  }
  for (auto& spec : specs) {
    spec.host_fast_path = opt.fuzz.host_fast_path;
    spec.cores = opt.fuzz.cores;
  }
  hn::fuzz::ExecutorOptions exec{.inject_bypass = opt.fuzz.inject_bypass,
                                 .audit_stride = opt.fuzz.audit_stride};
  exec.collect_metrics = opt.fuzz.collect_metrics;
  exec.capture_trace = !opt.artifacts.trace_out.empty();
  exec.profile = opt.fuzz.profile;
  exec.sample_cycles = opt.fuzz.sample_cycles;
  for (size_t i = 0; i < ops.size(); ++i) {
    std::printf("  [%zu] %s\n", i, hn::fuzz::describe(ops[i]).c_str());
  }

  std::vector<hn::fuzz::RunResult> runs;
  hn::fuzz::OracleReport report;
  if (from_file) {
    for (const auto& spec : specs) {
      runs.push_back(hn::fuzz::run_sequence(spec, ops, exec));
      const hn::fuzz::RunResult& rec = runs.back();
      std::printf("  %-24s alerts=%llu events=%llu\n", rec.config.c_str(),
                  static_cast<unsigned long long>(rec.fingerprint.alerts),
                  static_cast<unsigned long long>(
                      rec.fingerprint.monitor_events));
      for (const hn::fuzz::AlertRecord& a : rec.alert_log) {
        std::printf("    alert %s by %s at cycle %llu\n",
                    hn::secapps::alert_kind_name(a.kind), a.detector.c_str(),
                    static_cast<unsigned long long>(a.at));
      }
    }
    report = hn::fuzz::check_sequence(ops, specs, runs);
  } else {
    report = hn::fuzz::run_sequence_seed(*opt.replay_seed, gen, specs, exec,
                                         &runs);
  }

  // The first configuration's trace and stream; metrics and profile fold
  // every configuration in matrix order.
  hn::obs::Produced produced{.trace = std::move(runs[0].trace_blob),
                             .timeseries = std::move(runs[0].timeseries_blob)};
  for (const hn::fuzz::RunResult& run : runs) {
    produced.metrics.merge(run.metrics);
    produced.profile.merge(run.profile);
  }
  if (!hn::obs::write_artifacts(opt.artifacts, std::move(produced))) return 2;
  if (report.ok()) {
    std::puts("clean: all oracles passed");
    return 0;
  }
  for (const std::string& finding : report.findings) {
    std::printf("finding: %s\n", finding.c_str());
  }
  return 1;
}

/// One self-contained reproducer file per failing sequence: everything a
/// developer needs to replay a CI failure without the CI logs.
void write_failure_artifacts(const Options& opt, const CampaignResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(opt.failure_dir, ec);
  if (ec) {
    std::fprintf(stderr, "failure-dir: cannot create %s: %s\n",
                 opt.failure_dir.c_str(), ec.message().c_str());
    return;
  }
  for (const hn::fuzz::SequenceFailure& f : result.failure_details) {
    const std::string path = opt.failure_dir + "/failure_seq" +
                             std::to_string(f.index) + ".txt";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "failure-dir: cannot write %s\n", path.c_str());
      continue;
    }
    std::fprintf(out,
                 "campaign seed: %llu\n"
                 "sequence index: %llu\n"
                 "sequence seed: %llu\n"
                 "replay: %s\n\n",
                 static_cast<unsigned long long>(opt.fuzz.seed),
                 static_cast<unsigned long long>(f.index),
                 static_cast<unsigned long long>(f.sequence_seed),
                 f.replay.c_str());
    std::fprintf(out, "findings (%zu):\n", f.findings.size());
    for (const std::string& finding : f.findings) {
      std::fprintf(out, "  %s\n", finding.c_str());
    }
    std::fprintf(out, "\nminimal reproducer (%zu ops):\n", f.ops.size());
    for (size_t i = 0; i < f.ops.size(); ++i) {
      std::fprintf(out, "  [%zu] %s\n", i,
                   hn::fuzz::describe(f.ops[i]).c_str());
    }
    if (!f.trace.empty()) {
      std::fprintf(out, "\nmachine trace (%s, step %llu):\n",
                   f.trace_config.c_str(),
                   static_cast<unsigned long long>(f.trace_step));
      for (const std::string& line : f.trace) {
        std::fprintf(out, "  %s\n", line.c_str());
      }
    }
    std::fclose(out);
    // Each reproducer ships with its causal trace (same basename, .trace):
    // `hypernel_trace report` shows the detection chains of the failure.
    if (!f.trace_blob.empty()) {
      const std::string trace_path = opt.failure_dir + "/failure_seq" +
                                     std::to_string(f.index) + ".trace";
      if (!hn::write_blob_file(f.trace_blob, trace_path)) {
        std::fprintf(stderr, "failure-dir: cannot write %s\n",
                     trace_path.c_str());
      }
    }
  }
  std::fprintf(stderr, "failure artifacts: %zu file(s) in %s\n",
               result.failure_details.size(), opt.failure_dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.fuzz.jobs = 0;  // CLI default: hardware concurrency (library: 1)
  hn::Result<hn::obs::ArtifactFlags> artifacts =
      hn::obs::strip_artifact_flags(&argc, argv);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "%s\n", artifacts.status().message().c_str());
    usage();
    return 2;
  }
  if (!parse(argc, argv, &opt)) {
    usage();
    return 2;
  }
  opt.artifacts = std::move(artifacts).value();
  opt.fuzz.collect_metrics = !opt.artifacts.metrics_out.empty();
  opt.fuzz.capture_trace |= !opt.artifacts.trace_out.empty();
  opt.fuzz.profile = opt.artifacts.profile;
  opt.fuzz.sample_cycles = opt.artifacts.sample_cycles;
  if (!opt.replay_file.empty() || opt.replay_seed) return replay(opt);

  std::printf("campaign: seed=%llu sequences=%llu ops=%llu matrix=%s%s\n",
              static_cast<unsigned long long>(opt.fuzz.seed),
              static_cast<unsigned long long>(opt.fuzz.sequences),
              static_cast<unsigned long long>(opt.fuzz.ops),
              opt.fuzz.full_matrix ? "full" : "quick",
              opt.fuzz.inject_bypass ? " (bypass injected)" : "");
  CampaignResult result = hn::fuzz::run_campaign(opt.fuzz, &std::cout);
  // Host-side execution stats go to stderr: stdout stays byte-identical
  // across --jobs values (the determinism contract the CI pins).
  const hn::exec::ShardReport& exec = result.exec;
  std::fprintf(stderr, "exec: jobs=%u wall=%.1fms throughput=%.1f seq/s%s\n",
               exec.jobs, exec.wall_ms,
               exec.wall_ms > 0
                   ? 1000.0 * static_cast<double>(result.sequences_run) /
                         exec.wall_ms
                   : 0.0,
               opt.fuzz.fail_fast && exec.indices_skipped > 0
                   ? " (fail-fast cancelled)"
                   : "");
  for (size_t w = 0; w < exec.workers.size(); ++w) {
    std::fprintf(stderr, "  worker %zu: %llu jobs, busy %.1fms\n", w,
                 static_cast<unsigned long long>(exec.workers[w].jobs),
                 static_cast<double>(exec.workers[w].busy_ns) / 1e6);
  }
  std::printf("sequences: %llu  failures: %llu  corpus digest: %016llx\n",
              static_cast<unsigned long long>(result.sequences_run),
              static_cast<unsigned long long>(result.failures),
              static_cast<unsigned long long>(result.corpus_digest));
  if (!opt.failure_dir.empty() && !result.failure_details.empty()) {
    write_failure_artifacts(opt, result);
  }
  // Host-side artifacts go to files and stderr, like the exec stats, so
  // stdout stays byte-identical across hosts and job counts.
  if (!hn::obs::write_artifacts(
          opt.artifacts, {.metrics = std::move(result.metrics),
                          .trace = std::move(result.trace_blob),
                          .timeseries = std::move(result.timeseries_blob),
                          .profile = result.profile})) {
    return 2;
  }
  return result.ok() ? 0 : 1;
}
