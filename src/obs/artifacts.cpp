#include "obs/artifacts.h"

#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/blob_file.h"
#include "common/parse_int.h"
#include "obs/export.h"
#include "obs/timeseries.h"

namespace hn::obs {
namespace {

/// The value of `--name=value`, or nullptr when `arg` is another flag.
const char* flag_value(const char* arg, std::string_view name) {
  if (std::strncmp(arg, name.data(), name.size()) != 0) return nullptr;
  return arg[name.size()] == '=' ? arg + name.size() + 1 : nullptr;
}

/// Write one requested artifact; false (with a message) when the run did
/// not produce it or the file could not be written.
bool write_one(const char* name, const std::string& path,
               const std::vector<u8>& bytes) {
  if (path.empty()) return true;
  if (bytes.empty()) {
    std::fprintf(stderr, "%s: %s not written: the run recorded none\n", name,
                 path.c_str());
    return false;
  }
  if (!write_blob_file(bytes, path)) {
    std::fprintf(stderr, "%s: %s not written: cannot write the file\n", name,
                 path.c_str());
    return false;
  }
  std::fprintf(stderr, "%s: %zu bytes written to %s\n", name, bytes.size(),
               path.c_str());
  return true;
}

}  // namespace

Result<ArtifactFlags> strip_artifact_flags(int* argc, char** argv) {
  ArtifactFlags flags;
  Cycles explicit_interval = 0;
  bool want_samples = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    std::string* path = nullptr;  // set for the three path flags
    if ((v = flag_value(arg, "--metrics-out"))) {
      path = &flags.metrics_out;
    } else if ((v = flag_value(arg, "--trace-out"))) {
      path = &flags.trace_out;
    } else if ((v = flag_value(arg, "--timeseries-out"))) {
      path = &flags.timeseries_out;
      want_samples = true;
    } else if ((v = flag_value(arg, "--sample-cycles"))) {
      if (!parse_u64(v, &explicit_interval)) {
        return Status::Invalid(std::string("malformed number in '") + arg +
                               "'");
      }
    } else if (std::strcmp(arg, "--sample-cycles") == 0) {
      want_samples = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      flags.profile = true;
    } else {
      argv[out++] = argv[i];  // the binary's own flag
    }
    if (path != nullptr) {
      if (*v == '\0') {
        return Status::Invalid(std::string("empty path in '") + arg + "'");
      }
      *path = v;
    }
  }
  *argc = out;
  if (explicit_interval != 0) {
    flags.sample_cycles = explicit_interval;
  } else if (want_samples) {
    flags.sample_cycles = kDefaultSampleCycles;
  }
  return flags;
}

bool write_artifacts(const ArtifactFlags& flags, Produced produced) {
  bool ok = true;
  if (flags.profile) {
    if (produced.profile.total_ns() == 0) {
      std::fprintf(stderr, "profile: not rendered: the run recorded none\n");
      ok = false;
    } else {
      LayerReport shown = produced.profile;
      if (!flags.metrics_out.empty()) {
        // Render what the file holds, so `hypernel_trace profile` prints
        // the same table.
        fold_self_ns(produced.profile, produced.metrics);
        shown = layer_report(produced.metrics);
      }
      std::fprintf(stderr, "profile (self time per layer):\n%s",
                   render_layers(shown).c_str());
    }
  }
  if (!flags.metrics_out.empty()) {
    const std::string& path = flags.metrics_out;
    const bool csv = path.ends_with(".csv");
    const std::string text =
        csv ? to_csv(produced.metrics) : to_json(produced.metrics);
    ok &= write_one("metrics", path, std::vector<u8>(text.begin(), text.end()));
  }
  ok &= write_one("trace", flags.trace_out, produced.trace);
  ok &= write_one("timeseries", flags.timeseries_out, produced.timeseries);
  return ok;
}

}  // namespace hn::obs
