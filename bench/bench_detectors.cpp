// Detector-overhead bench: the scorecard's benign workload replayed with
// no detector and under each detector configuration (object-integrity
// monitor, nested-kernel invariant checker, kernel-CFI monitor).
//
// Overhead is *simulated* cycles relative to the unmonitored baseline —
// the cost of non-cacheable monitored pages, bus-event dispatch and
// verdict evaluation, exactly what §7.2 charges to monitoring.  The
// workload is benign by construction, so every detector must stay silent:
// a single alert makes the run a false positive and the bench exits
// non-zero rather than reporting a polluted number.
//
//   bench_detectors [--jobs=N] [artifact flags]
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/scenario.h"
#include "attacks/scorecard.h"
#include "bench/bench_common.h"
#include "fuzz/executor.h"

namespace {

using namespace hn;

struct Cell {
  std::string config;
  Cycles cycles = 0;  // simulated cycles for the whole workload
  u64 events = 0;     // monitor events dispatched while staying silent
  u64 alerts = 0;     // must be zero (benign workload)
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);

  std::vector<fuzz::FuzzConfigSpec> specs;
  {
    fuzz::FuzzConfigSpec base;
    base.name = "no-detector";
    specs.push_back(base);
  }
  for (const fuzz::FuzzConfigSpec& spec : attacks::detector_configs()) {
    specs.push_back(spec);
  }
  const std::vector<fuzz::Op> ops = attacks::benign_workload();

  fuzz::ExecutorOptions exec;
  exec.collect_metrics = !args.artifacts.metrics_out.empty();
  exec.capture_trace = !args.artifacts.trace_out.empty();
  exec.profile = args.artifacts.profile;
  exec.sample_cycles = args.artifacts.sample_cycles;
  const std::vector<Cell> cells =
      bench::run_cells<Cell>(specs.size(), args.jobs, [&](u64 i) {
        fuzz::RunResult rec = fuzz::run_sequence(specs[i], ops, exec);
        bench::record_cell(i, {.metrics = std::move(rec.metrics),
                               .trace = std::move(rec.trace_blob),
                               .timeseries = std::move(rec.timeseries_blob),
                               .profile = rec.profile});
        return Cell{specs[i].name, rec.fingerprint.cycles,
                    rec.fingerprint.monitor_events, rec.fingerprint.alerts};
      });

  std::printf("Detector overhead on the benign workload (%zu ops)\n",
              ops.size());
  bench::print_rule();
  std::printf("%-27s %14s %10s %10s %9s\n", "configuration", "sim cycles",
              "events", "alerts", "overhead");
  bench::print_rule();
  const double baseline = static_cast<double>(cells[0].cycles);
  bool clean = true;
  for (const Cell& cell : cells) {
    const double overhead =
        (static_cast<double>(cell.cycles) - baseline) / baseline * 100.0;
    std::printf("%-27s %14llu %10llu %10llu %+8.2f%%\n", cell.config.c_str(),
                static_cast<unsigned long long>(cell.cycles),
                static_cast<unsigned long long>(cell.events),
                static_cast<unsigned long long>(cell.alerts), overhead);
    if (cell.alerts != 0) clean = false;
  }
  bench::print_rule();
  if (!clean) {
    std::fprintf(stderr,
                 "FALSE POSITIVE: a detector alerted on the benign workload\n");
    return 1;
  }
  return bench::write_bench_artifacts();
}
