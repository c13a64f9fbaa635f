// Ablation: 2 MiB section vs 4 KiB page kernel mappings (§6.2's kernel
// patch).  Sections walk one level less (cheaper TLB misses, fewer table
// pages) — but leave the image RWX and make per-page read-only page-table
// protection impossible: Hypersec refuses to engage on a section-mapped
// kernel.  This bench quantifies both sides of that trade.
#include <cstdio>

#include "bench/bench_common.h"
#include "hypernel/system.h"
#include "workloads/lmbench.h"

namespace {

using namespace hn;

void run_native(u64 cell, bool use_sections) {
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kNative;
  cfg.enable_mbm = false;
  cfg.kernel.use_sections = use_sections;
  auto sys = hn::bench::make_system(cfg);
  workloads::LmbenchSuite suite(*sys, 32);
  const auto t0 = sys->snapshot();
  const auto results = suite.run_all();
  const sim::Counters d = sys->counters_since(t0);

  double total = 0;
  for (const auto& r : results) total += r.us;
  std::printf("%-22s %10.1f %14llu %14llu %12llu\n",
              use_sections ? "2 MiB sections" : "4 KiB pages", total,
              (unsigned long long)d.pt_descriptor_fetches,
              (unsigned long long)d.tlb_misses,
              (unsigned long long)sys->kernel().kpt().pt_page_count());
  hn::bench::record_cell(cell, *sys);
}

}  // namespace

int main(int argc, char** argv) {
  hn::bench::parse_args(argc, argv);
  std::printf("Ablation: kernel linear-map granule (native, LMbench suite)\n\n");
  std::printf("%-22s %10s %14s %14s %12s\n", "mapping", "sum(us)",
              "walk fetches", "TLB misses", "PT pages");
  hn::bench::print_rule(78);
  run_native(0, false);
  run_native(1, true);

  // The security side: Hypersec cannot protect a section-mapped kernel.
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kHypernel;
  cfg.kernel.use_sections = true;
  auto attempt = hypernel::System::create(cfg);
  std::printf("\nHypernel on the section-mapped kernel: %s\n",
              attempt.ok() ? "engaged (unexpected!)" : "refused");
  if (!attempt.ok()) {
    std::printf("  reason: %s\n", attempt.status().message().c_str());
  }
  std::printf(
      "\nsections are slightly faster natively, but the image section is "
      "RWX and page tables\nshare 2 MiB blocks with data — the granularity "
      "gap §6.2 patches away with 4 KiB pages.\n");
  if (attempt.ok()) return 1;
  return hn::bench::write_bench_artifacts();
}
