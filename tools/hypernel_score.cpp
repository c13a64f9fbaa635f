// hypernel_score — the per-detector attack scorecard.
//
// Runs every scenario in the attack library (src/attacks) under every
// detector configuration, plus one benign false-positive probe per
// detector, grades the results against the library's declared ground
// truth, and emits a deterministic report: a human table on stdout, the
// full JSON via --out, and the scorecard digest on the last line.
//
// The report is byte-identical at any --jobs value — the scorecard
// tests pin this.
//
//   hypernel_score                           # table + digest
//   hypernel_score --jobs=4 --out=score.json
//   hypernel_score --no-trace
#include <cstdio>
#include <cstring>
#include <fstream>

#include "attacks/scorecard.h"
#include "common/parse_int.h"
#include "obs/artifacts.h"

namespace {

void usage() {
  std::printf(
      "usage: hypernel_score [options]\n"
      "  --jobs=N          worker threads for cell evaluation (default:\n"
      "                    hardware concurrency; 1 = sequential).  Never\n"
      "                    changes the report, only wall-clock\n"
      "  --out=F           write the full JSON scorecard to F\n"
      "  --no-trace        skip flight-recorder capture and causal\n"
      "                    attribution (faster; attribution not required\n"
      "                    for the exit code)\n"
      "  --cores=N         simulated cores per machine (default 1); N > 1\n"
      "                    adds the cross-core scenario rows\n"
      "artifacts (metrics and profile cover every cell; the trace and the\n"
      "stream are the first intended-hit cell's):\n%s",
      hn::obs::kArtifactUsage);
}

/// Reports a malformed flag value: usage error, exit 2.
int bad_value(const char* arg) {
  std::fprintf(stderr, "malformed value in '%s'\n", arg);
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const hn::Result<hn::obs::ArtifactFlags> artifacts =
      hn::obs::strip_artifact_flags(&argc, argv);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "%s\n", artifacts.status().message().c_str());
    usage();
    return 2;
  }
  const hn::obs::ArtifactFlags& flags = artifacts.value();
  hn::attacks::ScorecardOptions opt;
  opt.jobs = 0;  // CLI default: hardware concurrency (library: 1)
  opt.profile = flags.profile;
  opt.collect_metrics = !flags.metrics_out.empty();
  opt.sample_cycles = flags.sample_cycles;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      if (!hn::parse_u32(arg + 7, &opt.jobs)) return bad_value(arg);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strcmp(arg, "--no-trace") == 0) {
      opt.trace_attribution = false;
    } else if (std::strncmp(arg, "--cores=", 8) == 0) {
      if (!hn::parse_u32(arg + 8, &opt.cores) || opt.cores == 0 ||
          opt.cores > 8) {
        std::fprintf(stderr, "--cores must be in [1, 8]\n");
        return bad_value(arg);
      }
    } else if (std::strcmp(arg, "--help") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      usage();
      return 2;
    }
  }

  hn::attacks::Scorecard score = hn::attacks::run_scorecard(opt);
  std::fputs(hn::attacks::render_scorecard(score).c_str(), stdout);

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << score.json;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "scorecard JSON written to %s\n", out_path.c_str());
  }
  // Host-side artifacts go to files and stderr: stdout (table, digest)
  // stays byte-identical across hosts and jobs.
  if (!hn::obs::write_artifacts(
          flags, {.metrics = std::move(score.metrics),
                  .trace = std::move(score.sample_trace),
                  .timeseries = std::move(score.sample_timeseries),
                  .profile = score.profile})) {
    return 2;
  }
  std::printf("scorecard digest: %016llx\n",
              static_cast<unsigned long long>(score.digest));
  return score.ok(/*require_attribution=*/opt.trace_attribution) ? 0 : 1;
}
