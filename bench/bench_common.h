// Shared helpers for the benchmark harnesses: system construction per
// evaluation configuration, paper-reference tables, and the parallel
// config-matrix driver.
//
// Every bench cell (one mode x benchmark x granularity point) builds its
// own System — a fresh simulated universe — so cells fan out across
// worker threads with run_cells() and land in a slot array in index
// order: the printed tables are byte-identical at any --jobs value,
// only wall-clock changes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parse_int.h"
#include "exec/sharded_runner.h"
#include "hypernel/system.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "sim/trace_io.h"

namespace hn::bench {

/// Command-line arguments every bench driver accepts.
struct BenchArgs {
  unsigned jobs = 0;           // 0 = hardware concurrency
  std::string metrics_out;     // empty = observability off
  std::string trace_out;       // empty = flight recorder off
  std::string timeseries_out;  // empty = time-series sampling off
  Cycles sample_cycles = 0;    // 0 = default when timeseries_out set
};

namespace detail {

inline BenchArgs& args() {
  static BenchArgs a;
  return a;
}

/// Per-cell metrics snapshots, keyed by cell index so the final fold
/// happens in index order regardless of which worker finished when.
struct MetricsSink {
  std::mutex mu;
  std::map<u64, obs::Snapshot> cells;
};

inline MetricsSink& metrics_sink() {
  static MetricsSink s;
  return s;
}

/// Per-cell flight-recorder blobs; the lowest-index cell's trace is what
/// --trace-out writes, so the exported file is jobs-independent.
struct TraceSink {
  std::mutex mu;
  std::map<u64, std::vector<u8>> cells;
};

inline TraceSink& trace_sink() {
  static TraceSink s;
  return s;
}

/// Per-cell HNTSERIE streams, same lowest-index-wins contract as the
/// trace sink, so --timeseries-out is jobs-independent too.
struct TimeSeriesSink {
  std::mutex mu;
  std::map<u64, std::vector<u8>> cells;
};

inline TimeSeriesSink& timeseries_sink() {
  static TimeSeriesSink s;
  return s;
}

}  // namespace detail

[[nodiscard]] inline bool metrics_enabled() {
  return !detail::args().metrics_out.empty();
}

[[nodiscard]] inline bool trace_enabled() {
  return !detail::args().trace_out.empty();
}

[[nodiscard]] inline bool timeseries_enabled() {
  return !detail::args().timeseries_out.empty();
}

/// Effective sampling interval: --sample-cycles if given, else the
/// library default when --timeseries-out asked for a stream, else 0.
[[nodiscard]] inline Cycles sample_interval() {
  const BenchArgs& a = detail::args();
  if (a.sample_cycles != 0) return a.sample_cycles;
  return a.timeseries_out.empty() ? 0 : obs::kDefaultSampleCycles;
}

/// Build a system in the §7.1 performance setup: Hypersec without the MBM
/// ("only Hypersec is working in the case of Hypernel").
inline std::unique_ptr<hypernel::System> make_perf_system(hypernel::Mode mode) {
  hypernel::SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = false;
  cfg.metrics = metrics_enabled() || trace_enabled();
  cfg.machine.sample_cycles = sample_interval();
  auto sys = hypernel::System::create(cfg);
  if (!sys.ok()) {
    std::fprintf(stderr, "system creation failed: %s\n",
                 sys.status().message().c_str());
    std::abort();
  }
  if (trace_enabled()) sys.value()->machine().trace().set_enabled(true);
  return std::move(sys).value();
}

/// Build a system in the §7.2 monitoring setup: Hypernel with the MBM.
inline std::unique_ptr<hypernel::System> make_monitor_system() {
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kHypernel;
  cfg.enable_mbm = true;
  cfg.metrics = metrics_enabled() || trace_enabled();
  cfg.machine.sample_cycles = sample_interval();
  auto sys = hypernel::System::create(cfg);
  if (!sys.ok()) {
    std::fprintf(stderr, "system creation failed: %s\n",
                 sys.status().message().c_str());
    std::abort();
  }
  if (trace_enabled()) sys.value()->machine().trace().set_enabled(true);
  return std::move(sys).value();
}

/// Stash one cell's metrics snapshot.  Safe from any worker thread;
/// no-op unless --metrics-out was given.
inline void record_cell_metrics(u64 index, const obs::Snapshot& snap) {
  if (!metrics_enabled()) return;
  detail::MetricsSink& sink = detail::metrics_sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  sink.cells[index].merge(snap);
}

/// Stash one cell's pre-serialized flight-recorder blob — for drivers
/// whose cells own their trace capture (fuzz-executor based benches get
/// the blob from RunResult instead of a live System).
inline void record_cell_trace(u64 index, std::vector<u8> blob) {
  if (!trace_enabled() || blob.empty()) return;
  detail::TraceSink& sink = detail::trace_sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  sink.cells.emplace(index, std::move(blob));
}

/// Convenience overload: snapshot a System's registry before it dies.
/// Also stashes the cell's flight-recorder blob when --trace-out is on.
inline void record_cell_metrics(u64 index, hypernel::System& sys) {
  if (trace_enabled()) {
    detail::TraceSink& sink = detail::trace_sink();
    std::lock_guard<std::mutex> lock(sink.mu);
    sink.cells.emplace(index, sim::capture_trace(sys.machine()));
  }
  if (timeseries_enabled()) {
    detail::TimeSeriesSink& sink = detail::timeseries_sink();
    std::lock_guard<std::mutex> lock(sink.mu);
    sink.cells.emplace(index, sim::capture_timeseries(sys.machine()));
  }
  if (!metrics_enabled()) return;
  record_cell_metrics(index, sys.metrics_snapshot());
}

/// Fold every recorded cell (index order) and write --metrics-out.
/// Returns 0, or 1 on I/O failure — benches `return write_bench_metrics()`
/// (or combine it with their own exit code) as their last statement.
inline int write_bench_metrics() {
  if (trace_enabled()) {
    detail::TraceSink& traces = detail::trace_sink();
    std::lock_guard<std::mutex> lock(traces.mu);
    const std::string& path = detail::args().trace_out;
    if (traces.cells.empty()) {
      std::fprintf(stderr, "trace: no cell recorded a trace; %s not written\n",
                   path.c_str());
    } else if (!sim::write_trace_file(traces.cells.begin()->second, path)) {
      std::fprintf(stderr, "trace: failed to write %s\n", path.c_str());
      return 1;
    } else {
      std::fprintf(stderr, "trace: cell %llu trace written to %s\n",
                   static_cast<unsigned long long>(traces.cells.begin()->first),
                   path.c_str());
    }
  }
  if (timeseries_enabled()) {
    detail::TimeSeriesSink& streams = detail::timeseries_sink();
    std::lock_guard<std::mutex> lock(streams.mu);
    const std::string& path = detail::args().timeseries_out;
    if (streams.cells.empty()) {
      std::fprintf(stderr,
                   "timeseries: no cell recorded a stream; %s not written\n",
                   path.c_str());
    } else if (!obs::write_timeseries_file(streams.cells.begin()->second,
                                           path)) {
      std::fprintf(stderr, "timeseries: failed to write %s\n", path.c_str());
      return 1;
    } else {
      std::fprintf(
          stderr, "timeseries: cell %llu stream written to %s\n",
          static_cast<unsigned long long>(streams.cells.begin()->first),
          path.c_str());
    }
  }
  if (!metrics_enabled()) return 0;
  detail::MetricsSink& sink = detail::metrics_sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  obs::Snapshot total;
  for (const auto& [index, snap] : sink.cells) total.merge(snap);
  const std::string& path = detail::args().metrics_out;
  if (!obs::write_metrics_file(total, path)) {
    std::fprintf(stderr, "metrics: failed to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "metrics: %zu entries (%zu cells) written to %s\n",
               total.entries.size(), sink.cells.size(), path.c_str());
  return 0;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

namespace detail {

/// The common flags' usage line; a usage error exits 2.
[[noreturn]] inline void usage_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs=N] [--metrics-out=F] [--trace-out=F]\n"
               "          [--timeseries-out=F] [--sample-cycles[=N]]\n",
               argv0);
  std::exit(2);
}

}  // namespace detail

/// For drivers whose framework owns the command line (google-benchmark):
/// extract the common bench flags from argv, compacting it in place, and
/// leave every other flag for the framework's own parser.  A malformed
/// integer value is a usage error, never a silent 0.
inline BenchArgs parse_and_strip_args(int* argc, char** argv) {
  BenchArgs parsed;
  auto bad_number = [argv](const char* arg) {
    std::fprintf(stderr, "malformed number in '%s'\n", arg);
    detail::usage_exit(argv[0]);
  };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      if (!parse_u32(argv[i] + 7, &parsed.jobs)) bad_number(argv[i]);
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      parsed.metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      parsed.trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--timeseries-out=", 17) == 0) {
      parsed.timeseries_out = argv[i] + 17;
    } else if (std::strncmp(argv[i], "--sample-cycles=", 16) == 0) {
      if (!parse_u64(argv[i] + 16, &parsed.sample_cycles)) {
        bad_number(argv[i]);
      }
    } else if (std::strcmp(argv[i], "--sample-cycles") == 0) {
      parsed.sample_cycles = obs::kDefaultSampleCycles;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  detail::args() = parsed;
  return parsed;
}

/// Parse the common bench arguments (--jobs=N, --metrics-out=F, ...) from
/// argv, storing them where make_*_system / record_cell_metrics /
/// write_bench_metrics can see them.  Unknown arguments are a usage
/// error so typos don't silently run the default.
inline BenchArgs parse_args(int argc, char** argv) {
  const BenchArgs parsed = parse_and_strip_args(&argc, argv);
  if (argc > 1) detail::usage_exit(argv[0]);
  return parsed;
}

/// Run `fn(i)` for every cell i in [0, n) across `jobs` workers (0 =
/// hardware concurrency), returning results in index order.  Wall time
/// and per-worker stats go to stderr so table output stays clean.
template <typename Result, typename Fn>
std::vector<Result> run_cells(u64 n, unsigned jobs, Fn&& fn) {
  exec::ShardOptions opt;
  opt.jobs = jobs;
  exec::ShardReport report;
  std::vector<Result> results =
      exec::run_sharded<Result>(n, std::forward<Fn>(fn), opt, &report);
  std::fprintf(stderr, "bench exec: %llu cells, jobs=%u, wall=%.1fms\n",
               static_cast<unsigned long long>(n),
               jobs == 0 ? exec::ThreadPool::default_parallelism() : jobs,
               report.wall_ms);
  return results;
}

}  // namespace hn::bench
