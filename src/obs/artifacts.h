// The artifact front end (DESIGN.md §10): the five flags through which
// every tool and bench exports what a run recorded, one parser for them
// and one writer for what they ask for.
//
//   --metrics-out=F      metrics snapshot (JSON, or CSV when F ends in .csv)
//   --trace-out=F        causal flight-recorder trace (HNTRACE)
//   --timeseries-out=F   sampled time-series stream (HNTSERIE)
//   --sample-cycles[=N]  sampling interval in simulated cycles
//   --profile            per-layer self time on both clocks, to stderr
//
// The contract, the same in every binary: a requested artifact is
// written, or the writer names it and the binary exits 2.  Flag order
// never changes an artifact.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace hn::obs {

struct ArtifactFlags {
  std::string metrics_out;
  std::string trace_out;
  std::string timeseries_out;
  /// Resolved interval; 0 = sampling off.
  Cycles sample_cycles = 0;
  bool profile = false;

  /// The metrics registry must be on: --metrics-out exports it, and the
  /// flight recorder's timeline interleaves the layer scopes.
  [[nodiscard]] bool registry() const {
    return !metrics_out.empty() || !trace_out.empty();
  }
};

/// Remove the five artifact flags from argv, compacting it in place so the
/// binary's own flags keep their order, and resolve the sampling interval
/// once the whole command line is read: an explicit non-zero
/// --sample-cycles=N wins, else kDefaultSampleCycles when --timeseries-out
/// or a bare --sample-cycles was given, else 0.  A malformed number or an
/// empty path is a usage error.
[[nodiscard]] Result<ArtifactFlags> strip_artifact_flags(int* argc,
                                                         char** argv);

/// What one run recorded, for write_artifacts.  An empty trace, stream or
/// profile means the run did not record it.
struct Produced {
  Snapshot metrics = {};
  std::vector<u8> trace = {};
  std::vector<u8> timeseries = {};
  LayerReport profile = {};
};

/// Render --profile to stderr as the per-layer table, then write every
/// requested file.  With --metrics-out the host clock folds into the
/// snapshot as layer.<name>.self_ns, beside the registry's
/// layer.<name>.{self_cycles,scopes}, and the table renders from that
/// snapshot, so `hypernel_trace profile` prints the same table.
/// Returns false, naming the artifact, when one was requested but not
/// produced or could not be written.
[[nodiscard]] bool write_artifacts(const ArtifactFlags& flags,
                                   Produced produced);

/// The usage paragraph for the five flags, shared by every usage text.
inline constexpr const char* kArtifactUsage =
    "  --metrics-out=F   write the run's metrics snapshot to F (JSON, or\n"
    "                    CSV when F ends in .csv)\n"
    "  --trace-out=F     write the causal flight-recorder trace to F\n"
    "                    (render with hypernel_trace)\n"
    "  --timeseries-out=F\n"
    "                    write the sampled HNTSERIE stream to F (render\n"
    "                    with hypernel_trace timeline)\n"
    "  --sample-cycles[=N]\n"
    "                    sample time-series tracks every N simulated\n"
    "                    cycles (default 65536 with a bare flag or with\n"
    "                    --timeseries-out)\n"
    "  --profile         render per-layer self time (simulated cycles and\n"
    "                    host ms) to stderr; with --metrics-out the host\n"
    "                    column is also exported as layer.*.self_ns\n"
    "                    (render with hypernel_trace profile)\n"
    "  A requested artifact is written, or the binary names it and exits 2.\n";

}  // namespace hn::obs
