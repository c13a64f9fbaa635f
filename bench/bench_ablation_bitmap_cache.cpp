// Ablation: the MBM bitmap cache (§6.3 — "accessing the main memory and
// fetching the bitmap data for every write event in the same region is
// inefficient").  Runs the monitored untar workload with the cache
// enabled (several sizes) and disabled, reporting main-memory bitmap
// fetches, hit rates, and FIFO drops (a slower translator drains slower).
#include <cstdio>

#include "bench/bench_common.h"
#include "secapps/object_monitor.h"
#include "workloads/apps.h"

namespace {

struct Outcome {
  hn::u64 fetches = 0;
  hn::u64 drops = 0;
  double hit_rate = 0;
  hn::u64 detections = 0;
};

Outcome run(hn::u64 cell, bool cache_enabled, unsigned entries) {
  hn::hypernel::SystemConfig cfg;
  cfg.mode = hn::hypernel::Mode::kHypernel;
  cfg.enable_mbm = true;
  cfg.mbm_bitmap_cache_enabled = cache_enabled;
  cfg.mbm_bitmap_cache_entries = entries;
  auto sys = hn::bench::make_system(cfg);
  hn::secapps::ObjectIntegrityMonitor monitor(
      *sys, hn::secapps::Granularity::kWholeObject);
  if (!monitor.install().ok()) std::abort();
  hn::workloads::AppParams p;
  p.scale = 0.1;
  hn::workloads::run_untar(*sys, p);

  const hn::mbm::MbmStats s = sys->mbm()->stats();
  Outcome out;
  out.fetches = s.bitmap_fetches;
  out.drops = s.fifo_drops;
  out.detections = s.detections;
  const hn::u64 lookups = s.bitmap_cache_hits + s.bitmap_cache_misses;
  out.hit_rate = lookups ? 100.0 * s.bitmap_cache_hits / lookups : 0;
  hn::bench::record_cell(cell, *sys);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  hn::bench::parse_args(argc, argv);
  std::printf("Ablation: MBM bitmap cache (whole-object monitored untar, "
              "scale 0.1)\n\n");
  std::printf("%-22s %16s %10s %12s %12s\n", "configuration",
              "bitmap fetches", "hit rate", "fifo drops", "detections");
  hn::bench::print_rule(78);
  struct Case {
    const char* name;
    bool enabled;
    unsigned entries;
  };
  const Case cases[] = {
      {"cache off", false, 16},
      {"cache 4 entries", true, 4},
      {"cache 16 entries", true, 16},
      {"cache 64 entries", true, 64},
  };
  Outcome base{};
  hn::u64 cell = 0;
  for (const Case& c : cases) {
    const Outcome o = run(cell++, c.enabled, c.entries);
    if (!c.enabled) base = o;
    std::printf("%-22s %16llu %9.1f%% %12llu %12llu\n", c.name,
                (unsigned long long)o.fetches, o.hit_rate,
                (unsigned long long)o.drops, (unsigned long long)o.detections);
  }
  std::printf(
      "\nthe cache removes the per-event main-memory bitmap read that "
      "would otherwise cost\na DRAM round trip per snooped write — why "
      "§6.3 spends gates on it.\n");
  (void)base;
  return hn::bench::write_bench_artifacts();
}
