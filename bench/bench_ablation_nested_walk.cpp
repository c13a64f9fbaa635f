// Ablation: why nested paging hurts — the stage-2 walk blow-up vs TLB
// reach (§1, §3).  Sweeps the TLB size and measures a TLB-thrashing
// kernel pointer-chase under Native vs KVM-guest, reporting the per-miss
// descriptor-fetch amplification; then shows lazy vs eager stage-2
// population on the fork-heavy LMbench row.
#include <cstdio>

#include "bench/bench_common.h"
#include "hypernel/system.h"
#include "workloads/lmbench.h"

namespace {

using namespace hn;

/// Kernel-space pointer chase across `pages` distinct pages.
double chase(hypernel::System& sys, u64 pages, u64 rounds) {
  kernel::Kernel& k = sys.kernel();
  Result<PhysAddr> block =
      k.buddy().alloc_pages(10);  // 4 MiB contiguous arena
  if (!block.ok()) std::abort();
  const VirtAddr base = kernel::phys_to_virt(block.value());
  const auto t0 = sys.snapshot();
  for (u64 r = 0; r < rounds; ++r) {
    for (u64 p = 0; p < pages; ++p) {
      sys.machine().read64(base + p * kPageSize + (p % 64) * 8);
    }
  }
  const double us = sys.us_since(t0);
  k.buddy().free_pages(block.value(), 10);
  return us / static_cast<double>(rounds * pages) * 1000.0;  // ns per access
}

}  // namespace

int main(int argc, char** argv) {
  hn::bench::parse_args(argc, argv);
  std::printf("Ablation: nested-walk cost vs TLB reach\n\n");
  std::printf("kernel pointer-chase, ns per access (simulated)\n");
  std::printf("%-18s %12s %12s %12s %10s\n", "working set", "TLB", "native",
              "KVM-guest", "penalty");
  hn::bench::print_rule(72);
  hn::u64 cell = 0;
  for (const unsigned tlb : {64u, 256u, 1024u}) {
    for (const u64 pages : {32ull, 512ull}) {
      double ns[2];
      for (int m = 0; m < 2; ++m) {
        hypernel::SystemConfig cfg;
        cfg.mode = m == 0 ? hypernel::Mode::kNative
                          : hypernel::Mode::kKvmGuest;
        cfg.enable_mbm = false;
        cfg.machine.tlb_entries = tlb;
        cfg.kvm.recycle_invalidate_permille = 0;  // isolate the walk effect
        auto sys = hn::bench::make_system(cfg);
        ns[m] = chase(*sys, pages, 64);
        hn::bench::record_cell(cell++, *sys);
      }
      std::printf("%4llu pages        %12u %10.1fns %10.1fns %+9.1f%%\n",
                  (unsigned long long)pages, tlb, ns[0], ns[1],
                  100.0 * (ns[1] / ns[0] - 1.0));
    }
  }
  std::printf(
      "\nfits-in-TLB working sets are free either way; past TLB reach every "
      "miss walks\n4 descriptors natively vs up to 24 nested — the o(n^2) "
      "blow-up Hypernel avoids.\n");

  std::printf(
      "\nlazy vs eager stage-2 population (cold start -> LMbench fork+exit "
      "row):\n");
  struct Variant {
    const char* name;
    bool eager;
    bool thp;
  };
  const Variant variants[] = {
      {"eager (prepopulated)", true, true},
      {"lazy + THP batching", false, true},
      {"lazy, 4 KiB faults", false, false},
  };
  for (const Variant& v : variants) {
    hypernel::SystemConfig cfg;
    cfg.mode = hypernel::Mode::kKvmGuest;
    cfg.enable_mbm = false;
    cfg.kvm.eager_map = v.eager;
    cfg.kvm.thp_backing = v.thp;
    cfg.kvm.recycle_invalidate_permille = 0;
    auto sys = hn::bench::make_system(cfg);
    const auto t0 = sys->snapshot();  // includes the cold-start fills
    workloads::LmbenchSuite suite(*sys, 32);
    if (!suite.setup().ok()) std::abort();
    const auto r = suite.fork_exit();
    std::printf(
        "  %-22s steady %7.2f us/op, whole run %8.0f us, s2 faults %llu\n",
        v.name, r.us, sys->us_since(t0),
        (unsigned long long)sys->kvm()->stats().s2_faults_serviced);
    hn::bench::record_cell(cell++, *sys);
  }
  std::printf(
      "\nlaziness only costs at cold start; at steady state both pay the "
      "same nested walk\ntax on every TLB miss — nested paging's "
      "irreducible cost (§1).\n");
  return hn::bench::write_bench_artifacts();
}
