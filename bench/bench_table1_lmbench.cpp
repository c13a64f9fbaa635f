// Reproduces Table 1: "Execution time of kernel operations (us)" — the
// LMbench-style microbenchmarks under Native, KVM-guest and Hypernel.
//
// Paper reference values are printed alongside the measured ones.  The
// Native column is what the kernel-cost calibration targets; the KVM and
// Hypernel columns emerge from mechanism (stage-2 walks and faults; TVM
// traps and page-table hypercalls).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "workloads/lmbench.h"

namespace {

struct PaperRow {
  const char* name;
  double native;
  double kvm;
  double hypernel;
};

// Table 1 of the paper, verbatim.
constexpr PaperRow kPaper[] = {
    {"syscall stat", 1.92, 1.83, 1.94},
    {"signal install", 0.68, 0.75, 0.68},
    {"signal ovh", 2.96, 3.38, 2.98},
    {"pipe lat", 10.07, 11.45, 10.68},
    {"socket lat", 13.76, 16.08, 14.51},
    {"fork+exit", 271.68, 337.84, 314.77},
    {"fork+execv", 285.53, 351.81, 340.70},
    {"page fault", 1.57, 1.98, 1.89},
    {"mmap", 24.60, 28.40, 27.50},
};

}  // namespace

int main(int argc, char** argv) {
  using hn::hypernel::Mode;
  constexpr unsigned kIterations = 64;
  const unsigned jobs = hn::bench::parse_args(argc, argv).jobs;

  // One cell per mode; each builds its own System, so the three columns
  // fan out across workers and merge in mode order.
  const Mode modes[3] = {Mode::kNative, Mode::kKvmGuest, Mode::kHypernel};
  const auto cells =
      hn::bench::run_cells<std::vector<hn::workloads::LmbenchResult>>(
          3, jobs, [&](hn::u64 m) {
            auto sys = hn::bench::make_perf_system(modes[m]);
            hn::workloads::LmbenchSuite suite(*sys, kIterations);
            auto rows = suite.run_all();
            hn::bench::record_cell(m, *sys);
            return rows;
          });
  const std::vector<hn::workloads::LmbenchResult>* results = cells.data();

  std::printf("Table 1: Execution time of kernel operations (us)\n");
  std::printf("%u iterations per operation; paper values in parentheses\n\n",
              kIterations);
  std::printf("%-16s %9s %9s | %9s %9s | %9s %9s\n", "Test", "Native",
              "(paper)", "KVM-guest", "(paper)", "Hypernel", "(paper)");
  hn::bench::print_rule();

  double slowdown_sum[2] = {0, 0};
  double paper_slowdown_sum[2] = {0, 0};
  const size_t rows = results[0].size();
  for (size_t i = 0; i < rows; ++i) {
    const double native = results[0][i].us;
    const double kvm = results[1][i].us;
    const double hyper = results[2][i].us;
    std::printf("%-16s %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f\n",
                results[0][i].name.c_str(), native, kPaper[i].native, kvm,
                kPaper[i].kvm, hyper, kPaper[i].hypernel);
    slowdown_sum[0] += kvm / native - 1.0;
    slowdown_sum[1] += hyper / native - 1.0;
    paper_slowdown_sum[0] += kPaper[i].kvm / kPaper[i].native - 1.0;
    paper_slowdown_sum[1] += kPaper[i].hypernel / kPaper[i].native - 1.0;
  }
  hn::bench::print_rule();
  std::printf(
      "average slowdown vs native:  KVM-guest %.1f%% (paper %.1f%%; reported "
      "15.5%%)  |  Hypernel %.1f%% (paper %.1f%%; reported 8.8%%)\n",
      100.0 * slowdown_sum[0] / rows, 100.0 * paper_slowdown_sum[0] / rows,
      100.0 * slowdown_sum[1] / rows, 100.0 * paper_slowdown_sum[1] / rows);
  return hn::bench::write_bench_artifacts();
}
