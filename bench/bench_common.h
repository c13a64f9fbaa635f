// Shared helpers for the benchmark harnesses: system construction per
// evaluation configuration, the per-cell artifact sinks behind the five
// artifact flags (obs/artifacts.h), and the parallel config-matrix driver.
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
#include "obs/artifacts.h"
#include "sim/trace_io.h"

namespace hn::bench {

/// Command-line arguments every bench driver accepts.
struct BenchArgs {
  unsigned jobs = 0;  // 0 = hardware concurrency
  obs::ArtifactFlags artifacts;
};

namespace detail {

inline BenchArgs& args() {
  static BenchArgs a;
  return a;
}

/// What each cell recorded, keyed by cell index so the final fold
/// happens in index order regardless of which worker finished when.
struct CellSink {
  std::mutex mu;
  std::map<u64, obs::Produced> cells;
};

inline CellSink& cell_sink() {
  static CellSink s;
  return s;
}

/// Metrics and profiles add up; the first trace and stream are kept, so
/// the exported files are the lowest-index cell's at any --jobs.
inline void fold(obs::Produced& into, obs::Produced cell) {
  into.metrics.merge(cell.metrics);
  into.profile.merge(cell.profile);
  if (into.trace.empty()) into.trace = std::move(cell.trace);
  if (into.timeseries.empty()) into.timeseries = std::move(cell.timeseries);
}

}  // namespace detail

/// The artifact flags the bench was started with.
[[nodiscard]] inline const obs::ArtifactFlags& artifacts() {
  return detail::args().artifacts;
}

/// Build `cfg` with the artifact flags applied: the registry, the
/// sampler, the flight recorder and the scope stack's host clock (from
/// the end of boot) are on as the flags ask.
inline std::unique_ptr<hypernel::System> make_system(
    hypernel::SystemConfig cfg) {
  const obs::ArtifactFlags& flags = artifacts();
  cfg.metrics = flags.registry();
  cfg.machine.sample_cycles = flags.sample_cycles;
  auto sys = hypernel::System::create(cfg);
  if (!sys.ok()) {
    std::fprintf(stderr, "system creation failed: %s\n",
                 sys.status().message().c_str());
    std::abort();
  }
  sim::Machine& m = sys.value()->machine();
  m.trace().set_enabled(!flags.trace_out.empty());
  m.scopes().set_host_clock(flags.profile);
  return std::move(sys).value();
}

/// Build a system in the §7.1 performance setup: Hypersec without the MBM
/// ("only Hypersec is working in the case of Hypernel").
inline std::unique_ptr<hypernel::System> make_perf_system(hypernel::Mode mode) {
  hypernel::SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = false;
  return make_system(cfg);
}

/// Build a system in the §7.2 monitoring setup: Hypernel with the MBM.
inline std::unique_ptr<hypernel::System> make_monitor_system() {
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kHypernel;
  cfg.enable_mbm = true;
  return make_system(cfg);
}

/// Stash what one cell recorded; a cell recorded twice folds.  Safe from
/// any worker thread.
inline void record_cell(u64 index, obs::Produced cell) {
  detail::CellSink& sink = detail::cell_sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  detail::fold(sink.cells[index], std::move(cell));
}

/// Convenience overload: capture what a System recorded before it dies.
inline void record_cell(u64 index, hypernel::System& sys) {
  const obs::ArtifactFlags& flags = artifacts();
  sim::Machine& m = sys.machine();
  obs::Produced cell{.timeseries = sim::capture_timeseries(m),
                     .profile = m.scopes().report()};
  if (!flags.metrics_out.empty()) cell.metrics = sys.metrics_snapshot();
  if (!flags.trace_out.empty()) cell.trace = sim::capture_trace(m);
  record_cell(index, std::move(cell));
}

/// Fold every recorded cell in index order and write the requested
/// artifacts.  Returns 0, or 2 when one was not recorded or could not be
/// written — benches `return write_bench_artifacts()` (or combine it with
/// their own exit code) as their last statement.
inline int write_bench_artifacts() {
  detail::CellSink& sink = detail::cell_sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  obs::Produced all;
  for (auto& [index, cell] : sink.cells) detail::fold(all, std::move(cell));
  return obs::write_artifacts(artifacts(), std::move(all)) ? 0 : 2;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

namespace detail {

/// The common flags' usage text; a usage error exits 2.
[[noreturn]] inline void usage_exit(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--jobs=N] [artifact flags]\n%s", argv0,
               obs::kArtifactUsage);
  std::exit(2);
}

}  // namespace detail

/// For drivers whose framework owns the command line (google-benchmark):
/// extract --jobs=N and the artifact flags from argv, compacting it in
/// place, and leave every other flag for the framework's own parser.  A
/// malformed value is a usage error, never a silent 0.
inline BenchArgs parse_and_strip_args(int* argc, char** argv) {
  Result<obs::ArtifactFlags> flags = obs::strip_artifact_flags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    detail::usage_exit(argv[0]);
  }
  BenchArgs parsed{.artifacts = std::move(flags).value()};
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      if (!parse_u32(argv[i] + 7, &parsed.jobs)) {
        std::fprintf(stderr, "malformed number in '%s'\n", argv[i]);
        detail::usage_exit(argv[0]);
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  detail::args() = parsed;
  return parsed;
}

/// Parse the common bench arguments (--jobs=N and the artifact flags)
/// from argv, storing them where make_system / record_cell /
/// write_bench_artifacts can see them.  Unknown arguments are a usage
/// error so typos don't silently run the default.
inline BenchArgs parse_args(int argc, char** argv) {
  const BenchArgs parsed = parse_and_strip_args(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument '%s'\n", argv[1]);
    detail::usage_exit(argv[0]);
  }
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
               static_cast<unsigned long long>(n), report.jobs,
               report.wall_ms);
  return results;
}

}  // namespace hn::bench
