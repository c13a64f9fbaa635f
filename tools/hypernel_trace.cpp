// hypernel_trace: offline renderer for causal flight-recorder traces
// (the binary files --trace-out produces; format in sim/trace_io.h).
//
//   hypernel_trace report FILE              detection-latency attribution
//   hypernel_trace timeline FILE            sampled load timeline (v3 trace
//                                           or bare --timeseries-out stream)
//   hypernel_trace export --chrome FILE     Chrome trace-event JSON
//                         [--out=F]         (loads in Perfetto)
//   hypernel_trace dump FILE [--filter=K]   one line per event (K = kind name)
//   hypernel_trace diff A B                 first divergence + per-kind counts
//   hypernel_trace profile FILE             self-time table from a metrics
//                                           JSON (--profile + --metrics-out)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/blob_file.h"
#include "obs/scope.h"
#include "sim/trace_io.h"
#include "sim/trace_report.h"

namespace {

using namespace hn;

const char* arg_value(const char* arg, const char* key) {
  const size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

bool load(const std::string& path, sim::TraceData& data) {
  std::vector<u8> blob;
  if (!read_blob_file(path, blob)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  if (const Status s = sim::parse_trace(blob, data); !s.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), s.message().c_str());
    return false;
  }
  return true;
}

int cmd_report(const std::string& path) {
  sim::TraceData data;
  if (!load(path, data)) return 1;
  const sim::AttributionReport report = sim::build_attribution(data);
  const std::string text = sim::render_attribution(report, data.cpu_ghz);
  std::fputs(text.c_str(), stdout);
  return 0;
}

int cmd_export(const std::string& path, const std::string& out_path) {
  sim::TraceData data;
  if (!load(path, data)) return 1;
  const std::string json = sim::export_chrome_json(data);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  if (!write_blob_file(std::vector<u8>(json.begin(), json.end()), out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "chrome trace written to %s\n", out_path.c_str());
  return 0;
}

int cmd_timeline(const std::string& path) {
  // Accepts either a full HNTRACE v3 trace (time-series section embedded)
  // or a bare HNTSERIE stream (--timeseries-out artifact).
  std::vector<u8> blob;
  if (!read_blob_file(path, blob)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  sim::TraceData data;
  const Status trace_status = sim::parse_trace(blob, data);
  if (!trace_status.ok()) {
    data = sim::TraceData{};
    if (const Status s = obs::parse_timeseries(blob, data.timeseries);
        !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   trace_status.message().c_str());
      std::fprintf(stderr, "%s: %s\n", path.c_str(), s.message().c_str());
      return 1;
    }
    data.cpu_ghz = data.timeseries.cpu_ghz;
  }
  std::fputs(sim::render_timeline(data).c_str(), stdout);
  return 0;
}

int cmd_dump(const std::string& path, const std::string& filter) {
  sim::TraceData data;
  if (!load(path, data)) return 1;
  const std::string text = sim::render_dump(data, filter);
  std::fputs(text.c_str(), stdout);
  return 0;
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  sim::TraceData a;
  sim::TraceData b;
  if (!load(a_path, a) || !load(b_path, b)) return 1;
  const std::string text = sim::render_diff(a, b);
  std::fputs(text.c_str(), stdout);
  // Exit 0 when identical, 1 when different (diff-like contract).
  return text.rfind("traces identical", 0) == 0 ? 0 : 1;
}

/// Pull one counter value out of an exported metrics JSON.  The format
/// is the fixed one-entry-per-line layout obs::to_json emits, so a
/// string scan is exact — no JSON parser needed (or available).
bool json_counter(const std::string& text, const std::string& path,
                  u64* value) {
  const std::string needle = "\"path\": \"" + path + "\"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const size_t line_end = text.find('\n', at);
  const size_t v = text.find("\"value\": ", at);
  if (v == std::string::npos || v > line_end) return false;
  *value = std::strtoull(text.c_str() + v + 9, nullptr, 10);
  return true;
}

int cmd_profile(const std::string& path) {
  std::vector<u8> blob;
  if (!read_blob_file(path, blob)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  const std::string text(blob.begin(), blob.end());

  obs::LayerReport report;
  bool any = false;
  for (unsigned l = 0; l < obs::kLayerCount; ++l) {
    const std::string base =
        std::string("layer.") + obs::layer_name(static_cast<obs::Layer>(l));
    obs::LayerRow& row = report.rows[l];
    any |= json_counter(text, base + ".self_cycles", &row.self_cycles);
    any |= json_counter(text, base + ".self_ns", &row.self_ns);
    any |= json_counter(text, base + ".scopes", &row.scopes);
  }
  if (!any) {
    std::fprintf(stderr,
                 "%s has no layer.* counters (produce one by running any\n"
                 "  tool or bench with --profile --metrics-out=%s)\n",
                 path.c_str(), path.c_str());
    return 1;
  }
  std::fputs(obs::render_layers(report).c_str(), stdout);
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: hypernel_trace <command> [options]\n"
      "  report FILE              detection-latency attribution report\n"
      "  timeline FILE            per-window load timeline (FILE: a v3\n"
      "                           trace or a --timeseries-out stream)\n"
      "  export --chrome FILE [--out=F]\n"
      "                           Chrome trace-event JSON (Perfetto)\n"
      "  dump FILE [--filter=K]   list events (K: kind name, e.g. buswrite)\n"
      "  diff A B                 compare two traces (exit 1 on difference)\n"
      "  profile FILE             render the per-layer self-time table from\n"
      "                           a metrics JSON (any tool or bench run with\n"
      "                           --profile --metrics-out=FILE)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  // Collect positional args and recognized flags after the command.
  std::vector<std::string> pos;
  std::string out_path;
  std::string filter;
  bool chrome = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chrome") == 0) {
      chrome = true;
    } else if (const char* v = arg_value(argv[i], "--out")) {
      out_path = v;
    } else if (const char* v2 = arg_value(argv[i], "--filter")) {
      filter = v2;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage();
      return 2;
    } else {
      pos.emplace_back(argv[i]);
    }
  }

  if (cmd == "report" && pos.size() == 1) return cmd_report(pos[0]);
  if (cmd == "timeline" && pos.size() == 1) return cmd_timeline(pos[0]);
  if (cmd == "export" && pos.size() == 1) {
    if (!chrome) {
      std::fprintf(stderr, "export: only --chrome is supported\n");
      return 2;
    }
    return cmd_export(pos[0], out_path);
  }
  if (cmd == "dump" && pos.size() == 1) return cmd_dump(pos[0], filter);
  if (cmd == "diff" && pos.size() == 2) return cmd_diff(pos[0], pos[1]);
  if (cmd == "profile" && pos.size() == 1) return cmd_profile(pos[0]);
  usage();
  return 2;
}
