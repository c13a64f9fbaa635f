// Reproduces Table 2: "Comparison of the number of trap events" — MBM
// interrupts while monitoring the cred/dentry kernel objects, under the
// two security-solution variants of §7.2:
//
//   page-granularity estimate = whole-object monitoring (every write to
//       any word of a monitored object raises an event; equal to the fault
//       count of a page-granularity scheme with objects aggregated onto
//       monitored pages — the paper's estimation argument);
//   word-granularity           = sensitive-fields-only monitoring.
//
// The paper's headline: word granularity needs only ~6.2% of the traps.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "secapps/object_monitor.h"
#include "workloads/apps.h"

namespace {

struct PaperRow {
  const char* name;
  double page_gran;
  double word_gran;
};
constexpr PaperRow kPaper[] = {
    {"whetstone", 525, 48},   {"dhrystone", 637, 39},
    {"untar", 2173870, 96467}, {"iozone", 1510, 117},
    {"apache", 48650, 1754},
};

hn::u64 run_with_monitor(hn::u64 cell, const char* app,
                         hn::secapps::Granularity granularity) {
  auto sys = hn::bench::make_monitor_system();
  hn::secapps::ObjectIntegrityMonitor monitor(*sys, granularity);
  if (!monitor.install().ok()) {
    std::fprintf(stderr, "monitor install failed\n");
    std::abort();
  }
  hn::workloads::AppParams p;
  hn::workloads::run_app_by_name(*sys, app, p);
  hn::bench::record_cell(cell, *sys);
  return sys->mbm()->stats().detections;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = hn::bench::parse_args(argc, argv).jobs;
  constexpr int kRows = 5;

  // 5 benchmarks x 2 granularities = 10 independent monitored systems.
  const auto cells = hn::bench::run_cells<hn::u64>(
      2 * kRows, jobs, [&](hn::u64 cell) {
        const PaperRow& row = kPaper[cell / 2];
        return run_with_monitor(
            cell, row.name,
            cell % 2 == 0 ? hn::secapps::Granularity::kWholeObject
                          : hn::secapps::Granularity::kSensitiveFields);
      });

  std::printf("Table 2: number of trap events (MBM interrupts) while\n");
  std::printf("monitoring cred+dentry objects during each benchmark\n\n");
  std::printf("%-12s %16s %22s %8s | %16s %16s\n", "benchmark", "page-gran",
              "word-gran", "ratio", "(paper page)", "(paper word)");
  hn::bench::print_rule(100);

  double ratio_sum = 0;
  hn::u64 total_page = 0;
  hn::u64 total_word = 0;
  for (int r = 0; r < kRows; ++r) {
    const PaperRow& row = kPaper[r];
    const hn::u64 page = cells[static_cast<size_t>(r) * 2];
    const hn::u64 word = cells[static_cast<size_t>(r) * 2 + 1];
    const double ratio = page == 0 ? 0 : 100.0 * word / page;
    ratio_sum += ratio;
    total_page += page;
    total_word += word;
    std::printf("%-12s %16llu %15llu (%4.1f%%) %8s | %16.0f %11.0f (%.1f%%)\n",
                row.name, static_cast<unsigned long long>(page),
                static_cast<unsigned long long>(word), ratio, "",
                row.page_gran, row.word_gran,
                100.0 * row.word_gran / row.page_gran);
  }
  hn::bench::print_rule(100);
  std::printf(
      "overall: word-granularity requires %.1f%% of page-granularity traps "
      "(paper: ~6.2%%; per-benchmark mean %.1f%%)\n",
      100.0 * total_word / total_page, ratio_sum / 5);
  return hn::bench::write_bench_artifacts();
}
