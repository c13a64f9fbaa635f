// Reproduces Figure 6: application-benchmark runtime normalized to Native,
// under Native / KVM-guest / Hypernel.
//
// The paper reports average overheads of 13.5% (KVM-guest) and 3.1%
// (Hypernel); compute-bound benchmarks sit near native while the
// fork/FS/network-heavy ones carry the overhead.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "workloads/apps.h"

int main(int argc, char** argv) {
  using hn::hypernel::Mode;
  const char* kApps[] = {"whetstone", "dhrystone", "untar", "iozone", "apache"};
  constexpr int kAppCount = 5;
  const unsigned jobs = hn::bench::parse_args(argc, argv).jobs;

  // 3 modes x 5 apps = 15 independent cells; each gets a fresh system
  // (no cross-benchmark cache/dcache pollution), so the whole matrix
  // fans out across workers.
  const Mode modes[3] = {Mode::kNative, Mode::kKvmGuest, Mode::kHypernel};
  const auto cells = hn::bench::run_cells<double>(
      3 * kAppCount, jobs, [&](hn::u64 cell) {
        const int m = static_cast<int>(cell) / kAppCount;
        const int a = static_cast<int>(cell) % kAppCount;
        auto sys = hn::bench::make_perf_system(modes[m]);
        hn::workloads::AppParams p;
        p.scale = 0.35;  // overhead ratios are scale-invariant; keep runs fast
        const double us = hn::workloads::run_app_by_name(*sys, kApps[a], p).us;
        hn::bench::record_cell(cell, *sys);
        return us;
      });
  double us[3][kAppCount];
  for (int m = 0; m < 3; ++m) {
    for (int a = 0; a < kAppCount; ++a) {
      us[m][a] = cells[static_cast<size_t>(m) * kAppCount + a];
    }
  }

  std::printf(
      "Figure 6: application benchmarks, runtime normalized to Native\n\n");
  std::printf("%-12s %12s %18s %18s\n", "benchmark", "Native(us)",
              "KVM-guest(norm)", "Hypernel(norm)");
  hn::bench::print_rule(64);
  double sum_kvm = 0;
  double sum_hyper = 0;
  for (int a = 0; a < kAppCount; ++a) {
    const double nk = us[1][a] / us[0][a];
    const double nh = us[2][a] / us[0][a];
    sum_kvm += nk - 1.0;
    sum_hyper += nh - 1.0;
    std::printf("%-12s %12.0f %18.3f %18.3f\n", kApps[a], us[0][a], nk, nh);
  }
  hn::bench::print_rule(64);
  std::printf(
      "average overhead:  KVM-guest %.1f%% (paper: 13.5%%)   Hypernel %.1f%% "
      "(paper: 3.1%%)\n",
      100.0 * sum_kvm / kAppCount, 100.0 * sum_hyper / kAppCount);
  return hn::bench::write_bench_artifacts();
}
